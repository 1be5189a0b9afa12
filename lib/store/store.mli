(** Crash-safe content-addressed fixpoint store.

    A store directory caches solved fixpoints keyed by a digest of
    (normalized program × strategy × engine × layout × arithmetic mode
    × budget × diagnostics): an exact repeat of an analysis is served
    in O(1) with zero solver visits, and a near-repeat warm-starts from
    the nearest cached additive ancestor. Beside each clean answer sits
    a {e report record} keyed on what a request has before its frontend
    runs — configuration, report name and the MD5 of the raw source
    bytes ({!record_key}) — so an exact repeat of the source skips the
    frontend, {!Codec.key} and the snapshot decode altogether
    ("direct mode"). The cache is an accelerator only — the governing
    invariant is that {b a corrupt or adversarial store can cost time
    but never change a report}: every snapshot and record is verified
    (checksum, format version, key; for snapshots also range checks and
    a graph audit) before anything is trusted, and any failure degrades
    to a scratch solve of the request program.

    {b Layout.} [DIR/index.log] — append-only recency/size log whose
    torn tail (a write that died mid-line) is dropped on load;
    [DIR/snaps/<key>.snap] — one snapshot per normalized-program key;
    [DIR/records/<key>.rec] — one report record per source key: the
    key, each [#include] the preprocessor resolved as its path plus the
    MD5 of its text (or "absent"), the front-end error bit and the
    rendered stats-free report, under the same [sum <md5>] trailer as a
    snapshot. A record hit re-resolves every listed include and
    compares digests; any difference is a plain miss, and the compiled
    path's answer overwrites the record. [DIR/quarantine/] — snapshots
    and records that failed verification, moved (never deleted) for
    post-mortem.

    {b Durability.} Snapshots and records are written temp + fsync +
    rename so a crash never leaves a half-visible file. A temp is named
    [<dest>.<pid>.tmp] after its writer, so processes sharing the
    directory never touch each other's; a stray temp — a crash between
    fsync and rename — is removed at open once its writer is this
    process or no longer runs.
    [add] and [del] index lines are fsync'd; the [touch] line every hit
    appends is not: losing one costs eviction order, never an answer.

    {b Eviction.} Least-recently-used by total snapshot and record
    bytes against [max_bytes]; recency is index-log line order. The
    log compacts at open once dead lines accumulate.

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
  [ `Hit  (** exact key: the stored snapshot served the request *)
  | `Ancestor of int
    (** warm-started from a cached additive ancestor [n] statements
        away *)
  | `Cold  (** solved from scratch (and cached if clean) *) ]

type served = {
  sv_json : string;
      (** stats-free report JSON ({!Core.Report.json_of_result} with
          [~timing:false ~solver_stats:false]) — byte-identical to what
          a scratch solve of the same request renders, whatever
          [sv_origin] says *)
  sv_result : Analysis.result option;
      (** the live solved state; [None] only for an exact hit served in
          [`Json] mode, which never builds a solver *)
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
  ?arith:Codec.arith ->
  budget:Budget.limits ->
  Nast.program ->
  served
(** Satisfy one analysis request through the store. Exact hit in
    [`Json] mode: the stored report, no solving. Exact hit in
    [`Solver] mode: the snapshot restored and resumed — zero solver
    visits. Miss: the nearest cached additive ancestor (same
    configuration, statement-key multiset contained in the request's,
    distance at most half the request) is restored, the added
    statements enqueued, and the fixpoint resumed warm; with no usable
    ancestor, a scratch solve. Clean (non-degraded) misses are cached.
    [diags] are the front-end diagnostics destined for the report —
    part of the key, because the stored report embeds them. *)

val counters : t -> Metrics.store
(** This handle's counters (hits, misses, ancestor warm starts,
    quarantines, evictions, write failures), accumulated across
    {!serve} and {!find_record} calls. *)

val with_counters : t -> string -> string
(** Splice [,"store":{...}] into a report JSON object, after all report
    fields: the counter block is observability, not part of the
    report's determinism contract. *)

val dir : t -> string
(** The store directory this handle was opened on. *)

(** {2 Report records (direct mode)} *)

val record_key : Codec.config -> name:string -> source:string -> string
(** The record key: digest of the record-format version, the
    {!Codec.config_line}, the report name and the MD5 of the raw source
    bytes — everything a request has before its frontend runs. *)

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
