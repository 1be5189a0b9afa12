(** Incremental re-analysis: warm-start solving and retraction.

    Given a solver at fixpoint and an edited version of its program,
    {!reanalyze} brings the solver to the edited program's fixpoint
    without recomputing from scratch whenever it can:

    - {b Additive edits} (no statements removed): the edited program is
      aligned over the base's variables ({!Progdiff.align}), the new
      statements are enqueued into the live solver — their cells intern
      against the existing cell table, their cursors start at the log
      tails' left edge and the existing subscriptions wake exactly the
      statements the new facts reach — and the delta engine resumes.
      Monotonicity makes this exact: the base fixpoint is a
      sub-fixpoint of the edited program's least fixpoint, and the
      resumed run closes the gap.

    - {b Edits with removals} (targeted delete-and-rederive): facts are
      not monotone under statement removal, so the engine uses the
      per-statement support counts a [~track:true] solver records.
      Every direct edge or copy constraint whose last deriving
      statement disappeared seeds an {e affected} set of cells; the set
      is closed under copy-edge flow, class sharing, and read-to-write
      dependence (a surviving reader of an affected cell is invalidated
      and its support spent like a removed statement's). Marking is
      narrowed per fact: a dying constraint endangers only the facts it
      carried, and an endangered fact only marks its class when it has
      neither a surviving direct derivation onto a class member nor a
      surviving copy inflow from an unaffected class whose every fact
      is itself directly supported — so a single dead edge typically
      affects a single cell, not everything downstream. The affected
      classes are then cleared surgically
      ({!Core.Solver.retract_cells}) — cursors, copy edges,
      subscriptions, attribution and extern records for everything
      unaffected survive — and only the statements the retraction could
      have touched are replayed: the added ones, the woken readers, the
      writers into affected cells, and the installers of copy
      constraints over a cleared class. The resumed monotone solve over
      the retained facts re-derives exactly the edited program's
      fixpoint, at a cost proportional to what actually died rather
      than to the program.

    - {b Fallback}: when the affected closure exceeds [retract_budget]
      cells, the base fixpoint is budget-degraded, or removals arrive
      without support tracking, the engine solves the aligned program
      from scratch and reports a [degraded-incremental] warning through
      the diagnostics context (precision is unaffected — only the warm
      start is given up, so the condition is a warning, not an error).

    - {b Planned fallback}: before retracting, the engine estimates
      whether retraction can win — the removed statements' share of all
      attributed constraints, and (once the closure is computed) the
      affected cells' share of all fact-bearing cells. When either says
      the replay would re-derive most of the fixpoint anyway, a scratch
      solve is strictly cheaper (no closure, no clearing) and the
      engine chooses it proactively. That choice is a plan, not a
      degradation: no warning is emitted, and it surfaces as the
      [incr_fallback_planned] metric ([stats.fallback_planned]). The
      guard only engages past an absolute size floor, so small
      interactive edits always exercise the retraction path.

    The differential guarantee — warm result {!Core.Graph.equal} and
    stats-free-JSON byte-identical to a from-scratch solve of the
    aligned program — holds for all four strategies under the delta and
    delta-nocycle engines, and is enforced by [test/test_incr.ml] and
    the fuzz harness. The naive engine is a scratch-only oracle (its
    retraction kept stale facts), so {!reanalyze} rejects it. *)

open Cfront
open Norm
open Core

type stats = {
  stmts_added : int;
  stmts_removed : int;
  facts_retracted : int;
      (** facts cleared from affected cells before the replay *)
  affected_cells : int;  (** size of the retraction closure *)
  warm_visits : int;
      (** statement visits this re-analysis performed (on fallback: the
          visits of the from-scratch solve) *)
  stmts_replayed : int;
      (** statements the targeted replay re-enqueued (added + woken +
          writers into affected cells + copy installers over them; the
          whole program on fallback) *)
  fallback : bool;  (** the engine re-solved from scratch *)
  fallback_planned : bool;
      (** the scratch solve was the cost estimate's proactive choice
          (implies [fallback]); no degradation warning was emitted *)
}

val default_retract_budget : int

val reanalyze :
  ?retract_budget:int ->
  ?diags:Diag.ctx ->
  Solver.t ->
  Nast.program ->
  Solver.t * stats
(** [reanalyze t edited] brings [t] to [edited]'s fixpoint. The
    returned solver is [t] itself warm-started in place, or a fresh
    solver when the engine fell back to scratch — always use the
    returned value. On fallback [t] is left at the base fixpoint,
    unmodified (support counters included), so a later [reanalyze] of
    [t] — e.g. with a larger [retract_budget] — is still valid. The
    returned solver's [incr_*] counters are set either way, so
    {!Core.Metrics.summarize} reports the edit.

    @raise Invalid_argument when [t] runs the [`Naive] engine. *)
