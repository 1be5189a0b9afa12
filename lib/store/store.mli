(** Crash-safe content-addressed report store.

    A store directory caches the stats-free reports of clean analyses.
    The analysis is one whole-program fixpoint per (program,
    configuration), and its stats-free report is a pure function of
    both, so a report is all a store keeps — never solver state. A
    report is filed under up to two keys. Under the {e program key}
    ({!Codec.key}: a digest of normalized program × strategy × engine ×
    layout × arithmetic mode × budget × diagnostics) an exact repeat of
    the normalized program is answered with no solving; a program
    {!Codec.shadowed_key} flags is never filed under it. Under the
    {e record key} ({!Codec.record_key}: configuration, report name and
    the MD5 of the raw source bytes — what a request has before its
    frontend runs) an exact repeat of the source skips the frontend and
    {!Codec.key} too ("direct mode"). Anything else solves cold. The cache is an
    accelerator only — the governing invariant is that {b a corrupt or
    adversarial store can cost time but never change a report}: every
    file is verified (checksum, format version, key) before anything is
    trusted, and any failure degrades to a scratch solve of the request
    program.

    {b Layout.} [DIR/index.log] — append-only recency/size log whose
    torn tail (a write that died mid-line) is dropped on load;
    [DIR/snaps/<key>.snap] — the {e snapshot}: one report file per
    program key;
    [DIR/records/<key>.rec] — one report file per record key, which
    also lists each [#include] the preprocessor resolved as its path
    plus the MD5 of its text (or "absent") and the front-end error bit.
    Both are {!Codec.report_file}s under the same [sum <md5>] trailer. A
    record hit re-resolves every listed include and compares digests;
    any difference is a plain miss, and the compiled path's answer
    overwrites the record. [DIR/quarantine/] — files that failed
    verification, moved (never deleted) for post-mortem.

    {b Durability.} Every file is written temp + fsync +
    rename so a crash never leaves a half-visible file. A temp is named
    [<dest>.<pid>.tmp] after its writer, so processes sharing the
    directory never touch each other's; a stray temp — a crash between
    fsync and rename — is removed at open once its writer is this
    process or no longer runs.
    [add] and [del] index lines are fsync'd; the [touch] line every hit
    appends is not: losing one costs eviction order, never an answer.

    {b Eviction.} Least-recently-used by total file bytes against
    [max_bytes]; recency is index-log line order. The log compacts at
    open once dead lines accumulate.

    {b Faults.} Every physical write draws an ordinal from the
    injection hook, letting tests deterministically tear a write, flip
    a bit, fail with ENOSPC, or die between fsync and rename
    ([lib/server]'s [Faults.store_hook] builds the hook from a plan
    string). All injected failures are contained: counted in
    {!Core.Metrics.store}, logged, and never able to reach a report. *)

open Cfront
open Norm
open Core

module Codec : module type of Codec

type fault = Short_write | Bit_flip | Enospc | Crash_rename
(** One injected write fault. [Short_write] truncates the payload but
    completes the operation (the checksum catches it at next load);
    [Bit_flip] corrupts one bit mid-payload; [Enospc] fails before any
    byte is written; [Crash_rename] leaves a durable temp file but
    never makes it visible — kill -9 between fsync and rename. *)

type t

val open_store :
  ?max_bytes:int ->
  ?inject:(int -> fault option) ->
  ?log:(string -> unit) ->
  string ->
  t
(** Open (creating if needed) a store directory: load the index with
    torn-tail recovery, compact it if stale, sweep crash leftovers.
    [inject] is consulted with a 1-based write ordinal before every
    physical write (default: no faults). [log] receives operational
    warnings — quarantines, eviction, contained write failures — and
    must never feed report output (default: drop them). [max_bytes]
    defaults to 256 MiB. *)

(** How a request was satisfied. *)
type origin =
  [ `Hit  (** exact program key: the stored report answered *)
  | `Ancestor of int
    (** never produced; kept only because perfbench/tool/pbtool.ml
        matches on it *)
  | `Cold  (** solved from scratch (and cached if clean) *) ]

type served = {
  sv_json : string;
      (** stats-free report JSON ({!Core.Report.json_of_result} with
          [~timing:false ~solver_stats:false]) — byte-identical to what
          a scratch solve of the same request renders, whatever
          [sv_origin] says *)
  sv_result : Analysis.result option;
      (** the live solved state; [None] exactly for a hit, which never
          builds a solver *)
  sv_origin : origin;
}

val serve :
  t ->
  want:[ `Json | `Solver ] ->
  diags:Diag.payload list ->
  name:string ->
  strategy_id:string ->
  engine:Solver.engine ->
  layout:Layout.config ->
  layout_id:string ->
  budget:Budget.limits ->
  Nast.program ->
  served
(** Satisfy one analysis request through the store. In [`Json] mode an
    exact program-key hit answers with the stored report and no
    solving; a miss solves cold with {!Core.Analysis.run}. [`Solver]
    mode needs a live solver, which no report holds, so it always
    solves. Either way a clean (non-degraded) solve is stored under its
    program key. [diags] are the front-end diagnostics destined for the
    report — part of the key, because the stored report embeds them. *)

val counters : t -> Metrics.store
(** This handle's counters (hits, misses, snapshots written,
    quarantines, evictions, write failures), accumulated across
    {!serve} and {!find_record} calls. *)

val with_counters : t -> string -> string
(** Splice [,"store":{...}] into a report JSON object, after all report
    fields: the counter block is observability, not part of the
    report's determinism contract. *)

val dir : t -> string
(** The store directory this handle was opened on. *)

(** {2 Report records (direct mode)} *)

val find_record :
  t ->
  key:string ->
  include_digest:(string -> string option) ->
  (string * bool) option
(** [Some (report, diag_errors)] when the record at [key] verifies and
    every [#include] it lists still has its recorded digest
    ([include_digest path], [None] for a file that was and is absent):
    the stored stats-free report and the front-end error bit. Counts a
    hit and appends a [touch]. A changed include is a plain [None]; a
    record that fails its checksum, version or key check is quarantined
    first. *)

val put_record :
  t ->
  key:string ->
  includes:(string * string option) list ->
  diag_errors:bool ->
  string ->
  unit
(** Store the stats-free report of a clean answer under [key], with
    each include the preprocessor resolved as (path, digest of its
    text, or [None] when it was absent). Write failures are contained
    and counted like a snapshot's. *)

(** {2 Test access} *)

val snap_path : t -> string -> string
val record_path : t -> string -> string
val quarantine_path : t -> string -> string

val live : t -> (string * int) list
(** Live (key, size) rows — snapshots and records — most recent first. *)
