(** Measurements behind the paper's evaluation (Section 5): the Figure-4
    average points-to set size over dereferenced pointers, the Figure-6
    edge counts, and the Figure-3 instrumentation percentages. *)

open Cfront
open Norm

val deref_pointer : Nast.stmt -> Cvar.t option
(** The pointer dereferenced by a source-level deref statement, if this
    statement is one. *)

val deref_sites : Nast.program -> (Nast.stmt * Cvar.t) list
(** All static instances of dereferenced pointers, in program order. *)

val expanded_pts : Solver.t -> Cvar.t -> Cell.Set.t
(** Points-to set of a pointer under the solved state, expanded for
    metrics (Collapse-Always structure targets become their leaf
    fields). *)

type summary = {
  strategy_id : string;
  strategy_name : string;
  deref_sites : int;
  avg_deref_size : float;  (** Figure 4 *)
  max_deref_size : int;
  total_edges : int;  (** Figure 6 *)
  figures3 : Actx.figures;
  lookup_calls : int;
  resolve_calls : int;
  corrupt_derefs : int;
      (** deref sites whose pointer may hold the Unknown marker
          ([`Unknown] arithmetic mode only) *)
  unknown_externs : string list;
  degraded : Budget.event list;
      (** which objects were collapsed under budget pressure, why, and
          when; empty for a full-precision run *)
  engine : string;
      (** the engine's name in {!Solver.engines} *)
  solver_visits : int;  (** statement visits the worklist dispatched *)
  facts_consumed : int;
      (** facts read by rule visits plus facts pushed along copy edges *)
  delta_facts : int;  (** facts rule visits actually iterated *)
  full_facts : int;
      (** set sizes those visits would have re-read naively; the
          [delta_facts]/[full_facts] ratio is the delta engine's win *)
  copy_edges : int;  (** subset-constraint edges installed (delta only) *)
  cycles_found : int;
      (** subset cycles collapsed by lazy cycle detection ([`Delta]) *)
  cells_unified : int;
      (** cells folded into another class's representative ([`Delta]) *)
  wasted_propagations : int;
      (** propagations that produced nothing new: statement visits that
          consumed facts but derived no edge, plus copy-edge drains that
          moved facts but added none *)
  incr_stmts_added : int;
      (** statements the last incremental edit added (0 for a cold run) *)
  incr_stmts_removed : int;
  incr_warm_visits : int;
      (** statement visits the last edit performed *)
  incr_stmts_replayed : int;
      (** statements the last edit enqueued (the whole program when it
          was solved from scratch) *)
}

val summarize : Solver.t -> summary

(** {1 Fleet-level counters}

    Aggregated by the batch/serve supervisor ([lib/server]) across a
    whole run of jobs: how many crashed, hung, were retried, were
    quarantined, and how far down the degradation ladder the fleet had
    to go. One {!fleet} per supervisor; workers never touch it. *)

type fleet = {
  mutable jobs : int;  (** jobs submitted (including replayed ones) *)
  mutable completed : int;  (** jobs that produced a result this run *)
  mutable replayed : int;
      (** jobs whose result was replayed from the journal on resume *)
  mutable crashes : int;
      (** worker deaths (signal or unexpected exit) while running a job *)
  mutable hangs : int;  (** jobs killed for exceeding the job timeout *)
  mutable job_errors : int;
      (** clean in-worker failures (front-end fatals, exceptions) *)
  mutable retries : int;  (** re-queues after a failed attempt *)
  mutable quarantined : int;  (** jobs that exhausted their attempts *)
  mutable breaker_skips : int;
      (** jobs failed fast because their input's circuit breaker was
          already open *)
  mutable max_rung : int;
      (** deepest degradation rung any completed job needed *)
  mutable shed : int;
      (** requests refused with a [shed] outcome (queue full, deadline
          expired, or drain in progress) — never silently dropped *)
  mutable deadline_expired : int;
      (** subset of [shed] whose reason was an expired request deadline *)
  mutable rss_kills : int;
      (** workers SIGKILLed by the memory watchdog for exceeding the
          per-worker RSS cap *)
  mutable brownout_escalations : int;
      (** times sustained queue pressure escalated the brownout rung *)
  mutable brownout_rung : int;  (** brownout rung at end of run *)
  mutable brownout_max_rung : int;  (** deepest brownout rung reached *)
  mutable drain_incomplete : int;
      (** in-flight jobs a drain/shutdown deadline cut off before they
          finished (each was shed, not lost) *)
  mutable queue_depth : int;  (** pending-queue depth at end of run *)
  mutable queue_peak : int;  (** deepest the pending queue ever got *)
  mutable latencies_ms : float list;
      (** submit→outcome latency of every answered request, ms;
          rendered as p50/p99 in {!fleet_json} *)
}

val fleet_create : unit -> fleet

val percentile : float list -> float -> float
(** [percentile xs p] — nearest-rank percentile ([p] in 0..100) of an
    unsorted sample; [0.0] for the empty sample. *)

val fleet_json : fleet -> string
(** Single-line JSON object with the counters above ([latencies_ms]
    rendered as [latency_p50_ms]/[latency_p99_ms]). *)

val pp_fleet : Format.formatter -> fleet -> unit
(** Human-readable one-liner for stderr summaries. *)

(** {1 Report-store counters}

    Owned by [lib/store]: what the content-addressed report store did
    for one run — served exact repeats, quarantined corruption, evicted
    under its size budget. Spliced into report JSON as a ["store"]
    object and printed on the CLI, so a fault in the store is always
    visible even though it can never change the report proper. *)

type store = {
  mutable hits : int;  (** snapshot or record reports served *)
  mutable misses : int;  (** requests that solved *)
  mutable ancestor_warm_starts : int;
      (** always 0; kept only because perfbench/tool/pbtool.ml reads it *)
  mutable corrupt_quarantined : int;
      (** files that failed checksum/version/key and were moved to
          quarantine (never deleted) *)
  mutable evictions : int;  (** files deleted by the LRU size budget *)
  mutable snapshots_written : int;
  mutable write_failures : int;
      (** contained write faults (ENOSPC, crash-before-rename): the
          file was not stored, the answer was unaffected *)
}

val store_create : unit -> store

val store_json : store -> string
(** Single-line JSON object with the counters above. *)

val pp_store : Format.formatter -> store -> unit
(** Human-readable one-liner for stderr summaries. *)
