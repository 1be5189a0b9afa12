(** Incremental re-analysis: a warm start for additive edits, a scratch
    solve for the rest.

    Given a solver at fixpoint and an edited version of its program,
    {!reanalyze} aligns the edit over the base ({!Progdiff.align}) and
    takes one of two paths:

    - {b Warm start}, when the alignment removes no statement, adds or
      removes no variable, and the base is not budget-degraded. The
      aligned program is swapped into the live solver, the added
      statements are enqueued — their cells intern against the existing
      cell table, their cursors start at the log tails' left edge and
      the existing subscriptions wake exactly the statements the new
      facts reach — and the delta engine resumes. Monotonicity makes
      this exact: the base fixpoint is a sub-fixpoint of the edited
      program's least fixpoint, and the resumed run closes the gap.
      Because every variable is the base's, every type the solver
      compares (struct identity included) is the base compile's.

    - {b Scratch solve}, for every other edit: {!Core.Solver.run} on the
      edited program as compiled, under the base solver's configuration,
      exactly as a cold analysis does. Facts are not monotone under
      statement removal, and a variable from the edited compile carries
      types that the base's do not compare equal to, so no warm state is
      reused. The edited program's alignment index is carried to the
      next edit, so a session keys each version once.

    Warm answers are the scratch answers of the edited source:
    [test/test_incr.ml] compares the stats-free report and a name-based
    points-to rendering with a cold solve of the edited program, for
    all four strategies under the delta and delta-nocycle engines. The
    one known exception is the shadowed-local conflation described in
    {!Progdiff}. The naive engine is a scratch-only oracle, so
    {!reanalyze} rejects it. *)

open Cfront
open Norm
open Core

type stats = {
  stmts_added : int;
  stmts_removed : int;
  facts_retracted : int;
      (** always 0; kept only because perfbench/tool/pbtool.ml reads it *)
  warm_visits : int;
      (** statement visits this re-analysis performed (on a scratch
          solve: the visits of the whole solve); perfbench/tool/pbtool.ml
          reads it *)
  stmts_replayed : int;
      (** statements enqueued: the added ones on a warm start, the whole
          edited program on a scratch solve; perfbench/tool/pbtool.ml
          reads it *)
  fallback : bool;
      (** the edit was solved from scratch; perfbench/tool/pbtool.ml
          counts these *)
}

val reanalyze :
  ?diags:Diag.ctx -> Solver.t -> Nast.program -> Solver.t * stats
(** [reanalyze t edited] brings [t] to [edited]'s fixpoint. The
    returned solver is [t] itself warm-started in place, or a fresh
    solver of [edited] — always use the returned value. After a scratch
    solve [t] is left as it was. The returned solver's [incr_*]
    counters are set either way, so {!Core.Metrics.summarize} reports
    the edit. [diags] is never written to (neither path reports a
    diagnostic of its own); the argument is kept only because
    perfbench/tool/pbtool.ml passes it.

    @raise Invalid_argument when [t] runs the [`Naive] engine. *)
