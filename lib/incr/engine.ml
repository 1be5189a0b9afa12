(** Warm start for edits that only add statements over existing
    variables; a scratch solve of the edited program for every other
    edit. See the interface for the rule and why it is exact. *)

open Norm
open Core

type stats = {
  stmts_added : int;
  stmts_removed : int;
  facts_retracted : int;
  warm_visits : int;
  stmts_replayed : int;
  fallback : bool;
}

(* The alignment index of the program the last [reanalyze] left its
   solver on, keyed by that program value's physical identity: the
   next edit of the same session finds it and keys only the edited
   version. Any other solver (another session, or a base that a caller
   kept) misses and is keyed afresh. The ephemeron keeps neither the
   program nor its index alive past the session. *)
let last_index : (Nast.program, Progdiff.index) Ephemeron.K1.t option ref =
  ref None

let base_index (prog : Nast.program) : Progdiff.index =
  match Option.bind !last_index (fun e -> Ephemeron.K1.query e prog) with
  | Some ix -> ix
  | None -> Progdiff.index prog

let carry (ix : Progdiff.index) =
  last_index := Some (Ephemeron.K1.make (Progdiff.program ix) ix)

let reanalyze ?diags:_ (t : Solver.t) (edited : Nast.program) :
    Solver.t * stats =
  if t.Solver.engine = `Naive then
    invalid_arg
      "Incr.Engine.reanalyze: the naive engine is a scratch-only oracle";
  let a = Progdiff.align ~base:(base_index t.Solver.prog) edited in
  let d = a.Progdiff.delta in
  let n_added = List.length d.Progdiff.added in
  let n_removed = List.length d.Progdiff.removed in
  let finish (t' : Solver.t) ~warm ~replayed ~fallback =
    t'.Solver.incr_stmts_added <- n_added;
    t'.Solver.incr_stmts_removed <- n_removed;
    t'.Solver.incr_warm_visits <- warm;
    t'.Solver.incr_stmts_replayed <- replayed;
    ( t',
      {
        stmts_added = n_added;
        stmts_removed = n_removed;
        facts_retracted = 0;
        warm_visits = warm;
        stmts_replayed = replayed;
        fallback;
      } )
  in
  if
    n_removed = 0
    && d.Progdiff.added_vars = []
    && d.Progdiff.removed_vars = []
    && not (Budget.degraded t.Solver.budget)
  then begin
    let aligned = a.Progdiff.aligned in
    carry aligned;
    Solver.set_program t (Progdiff.program aligned);
    let r0 = t.Solver.rounds in
    List.iter (Solver.enqueue t) d.Progdiff.added;
    Solver.resume t;
    finish t ~warm:(t.Solver.rounds - r0) ~replayed:n_added ~fallback:false
  end
  else begin
    carry (Lazy.force a.Progdiff.edited);
    let t' =
      Solver.run ~layout:t.Solver.ctx.Actx.layout ~arith:t.Solver.arith_mode
        ~budget:t.Solver.budget.Budget.limits ~engine:t.Solver.engine
        ~strategy:t.Solver.base_strategy edited
    in
    finish t' ~warm:t'.Solver.rounds ~replayed:(Nast.stmt_count edited)
      ~fallback:true
  end
