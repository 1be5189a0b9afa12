(** Snapshot codec: a solved solver's full state as deterministic bytes.

    A snapshot captures everything {!Core.Solver.resume} needs to
    continue a fixpoint as if the original process had never exited:
    the points-to graph's class structure and per-class append logs,
    per-(statement, cell) cursors, object and pointer subscriptions,
    copy edges with their drain cursors, the per-statement support
    tables, and the run's stats-free report JSON. An exact repeat
    restores and resumes with an empty worklist — zero solver visits;
    a near-repeat restores, enqueues only the added statements, and
    resumes warm.

    {b Identity-free coordinates.} Variable ids, cell ids, and
    statement ids are process-local interning accidents, so the codec
    never stores them. Variables travel as {!Incr.Progdiff.var_key}
    strings, cells as (variable, selector) pairs, statements as
    positions in the program's statement-key sequence. On load,
    everything rebinds against the {e request's} freshly-compiled
    program; any referenced entity the request lacks fails the restore
    (the store then falls back to a scratch solve).

    {b Determinism.} Encoding iterates hash tables only through
    semantically sorted or solve-ordered views, so the same solved
    state always produces the same bytes — the digest-stability
    property [test/test_store.ml] checks.

    {b Integrity.} The last line of a snapshot is an MD5 checksum of
    everything before it; {!decode} verifies it and the format version
    before trusting a single field, and every index read is
    range-checked, so a truncated, bit-flipped, or adversarial
    snapshot yields [Error] — never a wrong answer. *)

open Cfront
open Norm
open Core

type arith = [ `Spread | `Copy | `Stride | `Unknown ]

type config = {
  strategy_id : string;
  engine : Solver.engine;
  layout_id : string;
  arith : arith;
  budget : Budget.limits;
}
(** Everything besides the program that shapes the fixpoint. The engine
    is part of the identity because engines leave differently-shaped
    cursor state even at the same fixpoint. *)

val config_line : config -> string
(** Canonical one-line rendering of a configuration. *)

val config_digest : config -> string
(** Digest of {!config_line} alone — the ancestor-search partition key:
    only snapshots of the same configuration can warm-start a request. *)

val stmt_keys : Nast.program -> string list
(** The program's statements as {!Incr.Progdiff.stmt_key} strings, in
    program order (initializers first, then each function in order). *)

val key :
  config -> name:string -> diags_fp:string -> Nast.program -> string
(** The store key: digest of the configuration, the report name, the
    front-end diagnostics rendering, and the {e sorted} variable and
    statement key multisets. Two requests share a key exactly when a
    stored report for one is byte-correct for the other ([diags_fp]
    folds the diagnostics in because the report embeds them — the same
    normalized program reached with different warnings must not
    collide). *)

val enc_str : string -> string
(** Percent-escape a string into one whitespace-free token (percent,
    space, and control bytes become [%XX]), so codec lines split on
    single spaces with no quoting rules. Shared with [lib/summary]'s
    record format. *)

val dec_str_opt : string -> string option
(** Inverse of {!enc_str}; [None] on a malformed escape. *)

val seal : string -> string
(** Append the integrity trailer — a final line [sum <md5 hex>] over
    every byte before it. Snapshots and report records share it. *)

val unseal : string -> (string, string) result
(** Verify and strip the {!seal} trailer; [Error] on truncation, a
    missing trailer, or a checksum mismatch. *)

type decoded
(** A checksum- and range-verified snapshot, not yet bound to a
    program. *)

val decoded_key : decoded -> string
val decoded_config_line : decoded -> string
val decoded_name : decoded -> string

val decoded_report : decoded -> string
(** The producing run's stats-free report JSON, byte-exact. *)

val decoded_stmt_keys : decoded -> string list
(** The producing program's statement keys, program order. *)

val encode :
  Solver.t ->
  config:config ->
  name:string ->
  key:string ->
  report_json:string ->
  (string, string) result
(** Serialize a solved solver. [Error why] refuses states that would
    not rebind faithfully — e.g. cells of the [`Unknown] marker object
    or of a shadowed variable key, or attribution rows for statements
    outside the current program — rather than store them wrong. *)

val decode : string -> (decoded, string) result
(** Verify checksum and version, parse, range-check. Pure. *)

val ancestor_distance : decoded -> request_keys:string list -> int option
(** [Some n]: the snapshot's statement-key multiset is contained in the
    request's and the request adds [n] statements — an additive
    ancestor, safe to warm-start by monotonicity. [None]: the request
    removed statements the snapshot solved, so its facts may
    over-approximate and the snapshot is unusable as a warm start. *)

val restore :
  decoded ->
  config:config ->
  layout:Layout.config ->
  strategy:(module Strategy.S) ->
  Nast.program ->
  (Solver.t * Nast.stmt list, string) result
(** Rebind a decoded snapshot onto [prog]: a fresh [~track:true] solver
    whose graph, cursors, subscriptions, copy edges, and support tables
    replay the snapshot, plus the request statements the snapshot did
    not cover (in program order — enqueue them and [resume] to close
    the gap; empty for an exact repeat, in which case [resume] returns
    without a single visit). Any binding failure or internal
    inconsistency (audited with {!Core.Graph.check_counts}) is
    [Error]. *)
