(** One-call driver: pick a strategy, run the solver, collect metrics. *)

open Cfront
open Norm

val strategies : (module Strategy.S) list
(** The four framework instances, in the paper's precision order:
    Collapse Always, Collapse on Cast, Common Initial Sequence,
    Offsets. *)

val strategy_ids : string list

val strategy_of_id : string -> (module Strategy.S) option
(** Look up by short id: ["collapse-always"], ["collapse-on-cast"],
    ["cis"], ["offsets"]. *)

type result = {
  solver : Solver.t;
  metrics : Metrics.summary;
  time_s : float;  (** wall-clock seconds spent solving *)
  degraded : Budget.event list;
      (** budget degradations, oldest first; empty for a full-precision
          run *)
  diags : Diag.payload list;
      (** front-end diagnostics accumulated by {!run_source} when given a
          context; empty otherwise *)
}

val run :
  ?layout:Layout.config ->
  ?budget:Budget.limits ->
  ?engine:Solver.engine ->
  strategy:(module Strategy.S) ->
  Nast.program ->
  result
(** Analyze a normalized program. The default budget is
    {!Budget.unlimited}; pass {!Budget.default} (or custom limits) to
    bound the solve and degrade precision instead of diverging. The
    default engine is [`Delta]; [`Naive] selects the reference
    full-reread worklist (same fixpoint, more work). *)

val run_source :
  ?layout:Layout.config ->
  ?defines:(string * string) list ->
  ?resolve:(string -> string option) ->
  ?budget:Budget.limits ->
  ?engine:Solver.engine ->
  ?diags:Diag.ctx ->
  strategy:(module Strategy.S) ->
  file:string ->
  string ->
  result
(** Parse, type-check, lower, and analyze a C source string.

    With [?diags], front-end errors are recorded in the context and the
    front end recovers, analyzing what it could parse; the accumulated
    diagnostics are surfaced in [result.diags].

    @raise Diag.Error on front-end failures when [?diags] is omitted. *)

val pts_of_var : result -> string -> Cell.t list
(** Points-to set of a named variable (qualified like ["main::p"] or
    bare); empty for unknown names. *)
