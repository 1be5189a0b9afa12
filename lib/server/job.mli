(** One unit of analysis work for the batch/serve service.

    A job names an input (C file path or embedded-corpus program), a
    framework instance, a layout, and a budget. Jobs cross the
    supervisor/worker pipe as single tab-separated lines, so none of the
    string fields may contain tabs or newlines ({!validate}).

    Retries escalate through a {e degradation ladder} before a job is
    quarantined:

    - rung 0 — the job's configured budget and strategy, unchanged;
    - rung 1 — the budget capped to a tight preset (the analysis
      degrades earlier but finishes sooner);
    - rung 2 — the tight budget {e and} the strategy forced to
      Collapse-Always, the cheapest sound instance.

    Attempt [n] runs at rung [min (n-1) max_rung]. *)

type t = {
  id : string;  (** unique within a batch, e.g. ["job3"] *)
  spec : string;  (** C file path or corpus program name *)
  strategy_id : string;
  layout_id : string;  (** ilp32 | lp64 | word16 *)
  budget : Core.Budget.limits;
  store_dir : string option;
      (** fixpoint-store directory the worker consults before solving
          (and caches clean results into); [None] = always solve *)
  deadline_ms : int option;
      (** request deadline, milliseconds from submission; the
          supervisor sheds the job if it expires while queued,
          intersects the remaining deadline with the budget's
          [timeout_s] at dispatch, and kills a worker still running
          past it ([None] = no deadline) *)
  engine : string;
      (** solver engine id (delta | delta-nocycle | naive | summary);
          ["summary"] with a [store_dir] additionally consults the
          per-function summary cache under [store_dir/summaries] *)
}

val make :
  idx:int ->
  ?strategy:string ->
  ?layout:string ->
  ?budget:Core.Budget.limits ->
  ?store_dir:string ->
  ?deadline_ms:int ->
  ?engine:string ->
  string ->
  t
(** [make ~idx spec] — id ["job<idx>"], strategy ["cis"], layout
    ["ilp32"], budget {!Core.Budget.default}, no store, no deadline,
    engine ["delta"]. *)

val validate : t -> (unit, string) result
(** Reject tabs/newlines in string fields, unknown strategies, and
    unknown layouts. *)

val layout_of_id : string -> Cfront.Layout.config option

val engine_ids : string list
(** The engine ids {!validate} accepts. *)

val engine_of : t -> Core.Solver.engine
(** Resolve the job's engine id to a solver engine. *)

(** {1 Degradation ladder} *)

val max_rung : int
(** Highest rung (currently 2). *)

val rung_of_attempt : int -> int
(** [rung_of_attempt n] for attempt [n >= 1]. *)

val budget_for_rung : Core.Budget.limits -> int -> Core.Budget.limits

val strategy_for_rung : string -> int -> string

(** {1 Wire encoding} *)

val to_wire : t -> attempt:int -> rung:int -> string
(** Single line (no trailing newline), tab-separated, led by a wire
    version that {!of_wire} checks. Two documented
    clamps: the budget timeout crosses the wire in whole milliseconds
    with a 1 ms floor (a sub-millisecond timeout is rewritten to 1 ms,
    never to "unlimited"), and the rung-1 tight preset caps it at 2 s
    ({!budget_for_rung}). Both are pinned by the roundtrip tests in
    [test/test_server.ml]. *)

val of_wire : string -> (t * int * int, string) result
(** Inverse of {!to_wire}: job, attempt, rung. *)
