(** The fixpoint solver: applies the paper's inference rules 1–5
    (Figure 2) over a normalized program until no new points-to facts
    appear.

    Generic in the strategy; interprocedural behaviour is
    context-insensitive, with indirect callees discovered from function
    pointers' points-to sets as the fixpoint grows. Library calls use
    {!Norm.Summaries}.

    Three engines produce identical fixpoints:

    - [`Delta] (default) — difference propagation with online cycle
      elimination: statement visits consume only the facts added since
      their last visit (cursors into the {!Idset} append logs), resolves
      install persistent copy edges, and a cell-level priority worklist
      (pseudo-topological order of the copy graph) pushes each fact
      across each edge once. Subset cycles are detected lazily (a drain
      that moves facts but adds none, onto an already-equal set,
      triggers a bounded DFS) and their cells {!Graph.unify}'d to share
      one points-to set.
    - [`Delta_nocycle] — difference propagation with cycle elimination
      off: the ablation baseline for benchmarks and differential tests.
    - [`Naive] — the reference worklist that re-reads full sets on every
      visit; retained as the differential-testing oracle.

    Resilience: every worklist step is charged against a {!Budget.t}.
    When a budget trips the solver degrades gracefully — the offending
    object(s) are collapsed to one cell each (the Collapse-Always
    treatment applied per object, their edges merged) and the fixpoint is
    re-established over the coarser cell space, so the result is always a
    sound over-approximation. A collapse also discards in-flight deltas
    (cursors and copy edges name pre-collapse cells) and dissolves the
    union-find classes ({!Graph.unshare}); the re-enqueued statements
    re-derive the constraints over the representative cells.
    Degradations are recorded as {!Budget.event}s. *)

open Cfront
open Norm

module Itbl = Idtbl.Int

type engine = [ `Delta | `Delta_nocycle | `Naive ]

val engines : (string * engine) list
(** Every engine under its CLI, wire and store-key name, default first:
    the one table the command line, the job wire, the store key and
    the metrics read. *)

val engine_name : engine -> string
(** The engine's name in {!engines}. *)

type t = {
  ctx : Actx.t;
  graph : Graph.t;
  strategy : (module Strategy.S);
      (** the degradation-aware wrapper; redirects cells of collapsed
          objects to their representative *)
  base_strategy : (module Strategy.S);
      (** the instance [create] was given, unwrapped *)
  budget : Budget.t;
  collapsed : unit Cvar.Tbl.t;  (** objects degraded to a single cell *)
  collapse_all : bool ref;
      (** set when a step/time/total budget trips: every object is
          treated as collapsed from then on *)
  engine : engine;
  mutable prog : Nast.program;
      (** mutable for incremental re-analysis: {!set_program} swaps in
          the aligned edited program between {!resume}s *)
  funcs : (string, Nast.func) Hashtbl.t;
  queue : Nast.stmt Queue.t;
  in_queue : unit Itbl.t;
  subscribers : Nast.stmt list ref Cvar.Tbl.t;
  stmt_subs : Cvar.Set.t ref Itbl.t;
  cursors : int ref Itbl.t Itbl.t;
      (** delta: stmt id → (cell id → facts already consumed) *)
  dirty : unit Itbl.t;
      (** delta: stmts whose cursors reset at their next visit *)
  pointer_subs : Nast.stmt list ref Itbl.t;
      (** delta: class representative id → statements consuming that
          class's set via cursor; re-keyed to the survivor on
          unification *)
  cell_subbed : unit Idtbl.Pair.t;
  copy_out : (int * int ref) list ref Itbl.t;
      (** delta: class id → (dst cell id, copy cursor); edges move to
          the surviving class on unification *)
  copy_mem : unit Idtbl.Pair.t;
  copy_srcs : int list ref;
      (** [copy_out] keys in creation order — deterministic DFS roots
          for the pseudo-topological drain order *)
  cell_pq : Pq.t;
      (** cells with unpushed facts, drained in pseudo-topological
          order of the copy graph *)
  in_cell_wl : unit Itbl.t;
  order : int Itbl.t;
      (** class id → pseudo-topological rank (reverse postorder);
          unranked cells drain last *)
  mutable order_edges : int;
      (** [copy_mem] size when [order] was last recomputed *)
  lcd_done : unit Idtbl.Pair.t;
      (** (src, dst) class pairs that already triggered a cycle search *)
  mutable rounds : int;  (** statement visits *)
  mutable facts_consumed : int;
      (** facts read by rule visits plus facts pushed along copy edges *)
  mutable delta_facts : int;
      (** facts rule visits actually iterated (delta suffixes) *)
  mutable full_facts : int;
      (** set sizes those visits would have re-read naively *)
  mutable cycles_found : int;
      (** subset cycles collapsed by lazy cycle detection *)
  mutable cells_unified : int;
      (** cells folded into another class's representative *)
  mutable wasted_props : int;
      (** propagations that produced nothing new: statement visits that
          consumed facts but derived no edge, and copy-edge drains that
          moved facts but added none *)
  arith_mode : [ `Spread | `Copy | `Stride | `Unknown ];
      (** How pointer arithmetic is modelled:
          [`Spread] — the paper's Assumption-1 rule (default);
          [`Stride] — Wilson–Lam array refinement;
          [`Unknown] — pessimistic corrupted-pointer marker;
          [`Copy] — optimistic ablation. *)
  unknown_obj : Cvar.t;
      (** the distinguished target of [`Unknown]-mode arithmetic *)
  mutable unknown_externs : string list;
      (** called external functions with neither a body nor a summary *)
  mutable incr_stmts_added : int;  (** statements added by the last edit *)
  mutable incr_stmts_removed : int;
  mutable incr_warm_visits : int;
      (** statement visits the last edit performed (a scratch solve's
          visits when the edit was solved from scratch) *)
  mutable incr_stmts_replayed : int;
      (** statements the last edit enqueued: the added ones on a warm
          start, the whole program on a scratch solve *)
}

val collapse_sel : Cell.t -> Cell.t
(** The representative cell of a collapsed object, preserving the
    selector kind (paths collapse to the whole object, offsets to 0). *)

val create :
  ?layout:Layout.config ->
  ?arith:[ `Spread | `Copy | `Stride | `Unknown ] ->
  ?budget:Budget.limits ->
  ?engine:engine ->
  strategy:(module Strategy.S) ->
  Nast.program ->
  t

val collapse_object : t -> reason:Budget.reason -> Cvar.t -> unit
(** Degrade one object to a single cell now (idempotent): merge its
    edges onto the representative, discard in-flight deltas, and
    re-enqueue all statements. *)

val copy_edge_count : t -> int
(** Copy (subset-constraint) edges installed by the delta engines
    (cumulative — edges subsumed by a later class unification stay
    counted); 0 under [`Naive]. *)

val check_copy_lists : t -> string option
(** Audit the copy lists once {!solve} or {!resume} returned: every
    [copy_out] key is a class representative and no entry's destination
    lies in its key's own class. [None] when consistent; otherwise a
    description of the first violation. *)

val solve : t -> unit
(** Enqueue every statement and run the worklist to a fixpoint,
    degrading under budget pressure instead of diverging. *)

val enqueue : t -> Nast.stmt -> unit
(** Add one statement to the worklist (deduplicated). The incremental
    engine seeds a warm start with just the added statements. *)

val resume : t -> unit
(** Drain the worklist to a fixpoint from whatever is queued, without
    re-enqueueing anything — the warm-start entry point. *)

val set_program : t -> Nast.program -> unit
(** Swap in a new program (the incremental engine's aligned edit),
    keeping the function table consistent and dropping the strategy
    memo ({!Actx.clear_memo}), so a long session does not grow it.
    Enqueues nothing. *)

val reset_deltas : t -> unit
(** Discard all delta-engine state (cursors, copy edges, worklists,
    union-find sharing). Used on degradation collapses, where cells
    themselves change meaning. *)

val run :
  ?layout:Layout.config ->
  ?arith:[ `Spread | `Copy | `Stride | `Unknown ] ->
  ?budget:Budget.limits ->
  ?engine:engine ->
  ?track:bool ->
  strategy:(module Strategy.S) ->
  Nast.program ->
  t
(** {!create} followed by {!solve}. [track] is ignored; it is kept only
    because perfbench/tool/pbtool.ml passes it. *)

val degradations : t -> Budget.event list
(** Degradation events recorded during [solve], oldest first. *)

val degraded : t -> bool
