(** The fixpoint solver: applies the paper's inference rules 1–5 (Figure 2)
    over a normalized program until no new points-to facts appear.

    The solver is generic in the strategy (any {!Strategy.S}); the rules
    below call the strategy's [normalize]/[lookup]/[resolve] exactly where
    Figure 2 does. Interprocedural behaviour is context-insensitive:
    parameter and return bindings are virtual copy assignments generated
    per discovered callee, with indirect callees taken from the function
    pointer's points-to set as it grows. Library calls use
    {!Norm.Summaries}.

    Three engines share the rule code:

    - [`Delta] (default) — difference propagation with online cycle
      elimination. A statement visit consumes only the facts added to the
      pointer cells it reads since its last visit (an integer cursor into
      each {!Idset} append log), and [lookup]/[resolve] run on that delta
      only. The fact *transfers* a resolve derives become persistent copy
      edges (subset constraints) between cells; a priority worklist —
      keyed by a periodically recomputed pseudo-topological order of the
      copy graph, so facts flow roughly sources-before-sinks — pushes
      each new fact along its out-edges exactly once. Cells caught in a
      subset cycle ([a ⊆ b ⊆ … ⊆ a]) provably converge to the same set,
      so the engine detects such cycles lazily (Lazy Cycle Detection:
      a drain that moves facts but adds none, onto a destination whose
      set already equals the source's, triggers a bounded DFS looking for
      a path back) and {!Graph.unify}'s the members into one class
      sharing a single set — the facts stop circulating the cycle.
      Statements are only revisited when a cell they consume gains facts,
      or — for the Offsets instance, whose [resolve] pair set depends on
      which source cells carry facts ([Strategy.S.graph_resolve]) — when
      a subscribed object gains a new fact-bearing cell, which resets the
      statement's cursors so its resolves re-run over the full sets.

    - [`Delta_nocycle] — the same difference propagation with cycle
      elimination switched off: the ablation baseline that isolates the
      cycle win in benchmarks and differential tests.

    - [`Naive] — the reference engine: a statement worklist that re-reads
      entire points-to sets on every visit (statements subscribe to base
      objects; any new fact on the object re-enqueues them). Quadratic in
      the worst case, but a direct transcription of Figure 2 — retained
      as the differential-testing oracle for the delta engines.

    Resilience: the loop charges every processed statement against a
    {!Budget.t}. When a budget trips, the solver does not abort — it
    collapses the offending object(s) to a single cell (the
    Collapse-Always treatment applied per object), merges their edges,
    re-enqueues everything, and continues to a sound-but-coarser
    fixpoint. Collapsing is implemented by wrapping the strategy: every
    cell the base strategy produces for a collapsed object is redirected
    to that object's representative cell. A collapse invalidates in-flight
    deltas (cursors and copy edges reference pre-collapse cells) and
    dissolves the union-find classes ({!Graph.unshare} runs before the
    graph is rewritten), so the delta engine resets its delta state and
    the re-enqueued statements re-derive the constraints over the coarser
    cell space. *)

open Cfront
open Norm

module Itbl = Idtbl.Int

type engine = [ `Delta | `Delta_nocycle | `Naive ]

let engines : (string * engine) list =
  [ ("delta", `Delta); ("delta-nocycle", `Delta_nocycle); ("naive", `Naive) ]

let engine_name (e : engine) : string =
  fst (List.find (fun (_, e') -> e' = e) engines)

type t = {
  ctx : Actx.t;
  graph : Graph.t;
  strategy : (module Strategy.S);
      (** the degradation-aware wrapper around [base_strategy] *)
  base_strategy : (module Strategy.S);
  budget : Budget.t;
  collapsed : unit Cvar.Tbl.t;  (** objects degraded to a single cell *)
  collapse_all : bool ref;
      (** set when a step/time/total budget trips: every object is
          treated as collapsed from then on *)
  engine : engine;
  mutable prog : Nast.program;
      (** mutable for incremental re-analysis: {!set_program} swaps in
          the aligned edited program between [resume]s *)
  funcs : (string, Nast.func) Hashtbl.t;
  queue : Nast.stmt Queue.t;
  in_queue : unit Itbl.t;
  subscribers : Nast.stmt list ref Cvar.Tbl.t;
      (** naive: statements to re-run when the object gains any fact;
          delta: statements whose graph-dependent resolves must re-run
          when the object gains a new fact-bearing cell *)
  stmt_subs : Cvar.Set.t ref Itbl.t;  (** keyed by stmt id *)
  (* --- delta-engine state (empty under [`Naive]) ------------------- *)
  cursors : int ref Itbl.t Itbl.t;
      (** stmt id → (cell id → facts of that cell already consumed) *)
  dirty : unit Itbl.t;
      (** stmts whose cursors reset at their next visit (a subscribed
          object gained a new fact-bearing cell) *)
  pointer_subs : Nast.stmt list ref Itbl.t;
      (** class representative id → statements consuming that class's
          facts via cursor; re-keyed to the survivor on unification *)
  cell_subbed : unit Idtbl.Pair.t;
      (** (stmt id, class id) pairs already in [pointer_subs] *)
  copy_out : (int * int ref) list ref Itbl.t;
      (** class id → (dst cell id, copy cursor into the class's log);
          edges move to the surviving class on unification, cursors
          reset (the merged log reordered the loser's facts) *)
  copy_mem : unit Idtbl.Pair.t;  (** (src, dst) edge dedup *)
  copy_srcs : int list ref;
      (** [copy_out] keys in creation order — the deterministic DFS root
          sequence for the pseudo-topological order (hashtable iteration
          order depends on interned ids and would break run-to-run
          byte-identical reports) *)
  cell_pq : Pq.t;
      (** cells with facts not yet pushed out, drained in
          pseudo-topological order of the copy graph *)
  in_cell_wl : unit Itbl.t;
  order : int Itbl.t;
      (** class id → pseudo-topological rank (reverse postorder of the
          copy graph); unranked cells drain last *)
  mutable order_edges : int;
      (** [copy_mem] size when [order] was last recomputed; the order is
          refreshed once the edge count outgrows it by half *)
  lcd_done : unit Idtbl.Pair.t;
      (** (src class, dst class) pairs that already triggered a cycle
          search — each wasted edge pays for at most one DFS *)
  (* --- profiling --------------------------------------------------- *)
  mutable rounds : int;  (** statement visits *)
  mutable facts_consumed : int;
      (** facts read by rule visits plus facts pushed along copy edges *)
  mutable delta_facts : int;
      (** facts rule visits actually iterated (the suffixes) *)
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
          - [`Spread] — the paper's Assumption-1 rule: the result may
            point to any cell of the pointed-to object;
          - [`Stride] — Wilson–Lam refinement (Section 6): arithmetic on a
            pointer into an array stays on the representative element, and
            only non-array targets spread;
          - [`Unknown] — the pessimistic alternative the paper discusses
            under Complication 3: the result is a distinguished Unknown
            value, usable to flag potential misuses of memory;
          - [`Copy] — optimistic ablation: the result aliases the
            operand. *)
  unknown_obj : Cvar.t;
      (** the distinguished target of [`Unknown]-mode arithmetic *)
  mutable unknown_externs : string list;
  mutable incr_stmts_added : int;  (** statements added by the last edit *)
  mutable incr_stmts_removed : int;
  mutable incr_warm_visits : int;
      (** statement visits the last edit performed (a scratch solve's
          visits when the edit was solved from scratch) *)
  mutable incr_stmts_replayed : int;
      (** statements the last edit enqueued: the added ones on a warm
          start, the whole program on a scratch solve *)
}

(* ------------------------------------------------------------------ *)
(* Per-object collapse: the degrading strategy wrapper                 *)
(* ------------------------------------------------------------------ *)

(** The representative cell of a collapsed object, preserving the
    strategy's selector kind: path-based cells collapse to the whole
    object, offset cells to offset 0. *)
let collapse_sel (c : Cell.t) : Cell.t =
  match c.Cell.sel with
  | Cell.Path [] | Cell.Off 0 -> c
  | Cell.Path _ -> Cell.whole c.Cell.base
  | Cell.Off _ -> Cell.v c.Cell.base (Cell.Off 0)

(** Wrap [base] so that every cell it produces for a collapsed object is
    redirected to that object's single representative cell — the
    Collapse-Always treatment applied per object. Sound because pointing
    at the representative stands for pointing anywhere in the object (the
    paper's Section 4.3.1 reading), and the solver merges the collapsed
    object's existing edges onto the representative when it collapses. *)
let degrading_strategy ~(collapsed : unit Cvar.Tbl.t)
    ~(collapse_all : bool ref) (module B : Strategy.S) : (module Strategy.S) =
  (module struct
    let name = B.name
    let id = B.id
    let portable = B.portable
    let graph_resolve = B.graph_resolve

    let is_collapsed (v : Cvar.t) = !collapse_all || Cvar.Tbl.mem collapsed v

    (* nothing collapsed: [redirect] is the identity, and every base
       instance already answers [lookup]/[resolve] deduplicated in
       [Cell.compare] order, so the re-dedup below would change nothing *)
    let pristine () = (not !collapse_all) && Cvar.Tbl.length collapsed = 0

    let redirect (c : Cell.t) : Cell.t =
      if is_collapsed c.Cell.base then collapse_sel c else c

    let normalize ctx v alpha = redirect (B.normalize ctx v alpha)

    let lookup ctx tau alpha target =
      if pristine () then B.lookup ctx tau alpha target
      else
        Strategy.dedup_cells
          (List.map redirect (B.lookup ctx tau alpha (redirect target)))

    let resolve ctx graph dst src tau =
      if pristine () then B.resolve ctx graph dst src tau
      else
        let pairs = B.resolve ctx graph (redirect dst) (redirect src) tau in
        Strategy.dedup_pairs
          (List.map (fun (d, s) -> (redirect d, redirect s)) pairs)

    let all_cells ctx obj =
      if is_collapsed obj then [ redirect (B.normalize ctx obj []) ]
      else B.all_cells ctx obj

    let in_array = B.in_array

    let expand_for_metrics ctx c =
      let c = redirect c in
      if is_collapsed c.Cell.base then
        (* a collapsed target stands for the whole object: expand to all
           of its cells, mirroring Collapse-Always metrics accounting *)
        match B.all_cells ctx c.Cell.base with
        | [ only ] when Cell.equal only c -> B.expand_for_metrics ctx c
        | cells -> cells
      else B.expand_for_metrics ctx c
  end)

let create ?(layout = Layout.default) ?(arith = `Spread)
    ?(budget = Budget.unlimited) ?(engine = `Delta) ~strategy
    (prog : Nast.program) : t =
  let funcs = Hashtbl.create 32 in
  List.iter (fun f -> Hashtbl.replace funcs f.Nast.fname f) prog.Nast.pfuncs;
  let collapsed = Cvar.Tbl.create 16 in
  let collapse_all = ref false in
  {
    ctx = Actx.create ~layout ();
    graph = Graph.create ();
    strategy = degrading_strategy ~collapsed ~collapse_all strategy;
    base_strategy = strategy;
    budget = Budget.create ~limits:budget ();
    collapsed;
    collapse_all;
    engine;
    prog;
    funcs;
    queue = Queue.create ();
    in_queue = Itbl.create 256;
    subscribers = Cvar.Tbl.create 128;
    stmt_subs = Itbl.create 256;
    cursors = Itbl.create 256;
    dirty = Itbl.create 64;
    pointer_subs = Itbl.create 256;
    cell_subbed = Idtbl.Pair.create 512;
    copy_out = Itbl.create 256;
    copy_mem = Idtbl.Pair.create 512;
    copy_srcs = ref [];
    cell_pq = Pq.create ();
    in_cell_wl = Itbl.create 256;
    order = Itbl.create 256;
    order_edges = 0;
    lcd_done = Idtbl.Pair.create 64;
    rounds = 0;
    facts_consumed = 0;
    delta_facts = 0;
    full_facts = 0;
    cycles_found = 0;
    cells_unified = 0;
    wasted_props = 0;
    arith_mode = arith;
    unknown_obj = Cvar.fresh ~name:"$unknown" ~ty:Ctype.Void ~kind:Cvar.Global;
    unknown_externs = [];
    incr_stmts_added = 0;
    incr_stmts_removed = 0;
    incr_warm_visits = 0;
    incr_stmts_replayed = 0;
  }

(** Both difference-propagation engines ([`Delta] and [`Delta_nocycle]). *)
let is_delta t = t.engine <> `Naive

(** Cycle elimination runs under the full [`Delta] engine only. *)
let cycles_on t = t.engine = `Delta

let canon_id t (cid : int) : int =
  Cell.id (Graph.canon t.graph (Cell.of_id cid))

let enqueue t (s : Nast.stmt) =
  if not (Itbl.mem t.in_queue s.Nast.id) then begin
    Itbl.replace t.in_queue s.Nast.id ();
    Queue.add s t.queue
  end

(** Subscribe [stmt] to future facts on [obj] (naive: any fact; delta:
    new fact-bearing cells, for graph-dependent resolves). *)
let subscribe t (stmt : Nast.stmt) (obj : Cvar.t) =
  let subs =
    match Itbl.find_opt t.stmt_subs stmt.Nast.id with
    | Some s -> s
    | None ->
        let s = ref Cvar.Set.empty in
        Itbl.replace t.stmt_subs stmt.Nast.id s;
        s
  in
  if not (Cvar.Set.mem obj !subs) then begin
    subs := Cvar.Set.add obj !subs;
    let lst =
      match Cvar.Tbl.find_opt t.subscribers obj with
      | Some l -> l
      | None ->
          let l = ref [] in
          Cvar.Tbl.replace t.subscribers obj l;
          l
    in
    lst := stmt :: !lst
  end

(* ------------------------------------------------------------------ *)
(* Delta bookkeeping                                                   *)
(* ------------------------------------------------------------------ *)

let cursor_tbl t (stmt : Nast.stmt) : int ref Itbl.t =
  match Itbl.find_opt t.cursors stmt.Nast.id with
  | Some tbl -> tbl
  | None ->
      let tbl = Itbl.create 8 in
      Itbl.replace t.cursors stmt.Nast.id tbl;
      tbl

(** Register [stmt] as a cursor-consumer of [c]'s facts (keyed by [c]'s
    class, so unification can find and reset the class's consumers). *)
let pointer_subscribe t (stmt : Nast.stmt) (c : Cell.t) =
  let rid = canon_id t (Cell.id c) in
  let key = (stmt.Nast.id, rid) in
  if not (Idtbl.Pair.mem t.cell_subbed key) then begin
    Idtbl.Pair.replace t.cell_subbed key ();
    let lst =
      match Itbl.find_opt t.pointer_subs rid with
      | Some l -> l
      | None ->
          let l = ref [] in
          Itbl.replace t.pointer_subs rid l;
          l
    in
    lst := stmt :: !lst
  end

let subs_list t (rid : int) : Nast.stmt list ref =
  match Itbl.find_opt t.pointer_subs rid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Itbl.replace t.pointer_subs rid l;
      l

let copy_list t (sid : int) : (int * int ref) list ref =
  match Itbl.find_opt t.copy_out sid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Itbl.replace t.copy_out sid l;
      t.copy_srcs := sid :: !(t.copy_srcs);
      l

(** Pseudo-topological rank of a cell ([max_int] when unranked: cells
    discovered since the last recompute drain after ranked ones). *)
let rank t (cid : int) : int =
  match Itbl.find_opt t.order cid with Some p -> p | None -> max_int

let push_cell t (cid : int) =
  if Itbl.mem t.copy_out cid && not (Itbl.mem t.in_cell_wl cid) then begin
    Itbl.replace t.in_cell_wl cid ();
    Pq.push t.cell_pq ~prio:(rank t cid) cid
  end

let mark_dirty t (stmt : Nast.stmt) = Itbl.replace t.dirty stmt.Nast.id ()

(** Number of copy (subset-constraint) edges installed (cumulative:
    edges subsumed by a later class unification stay counted). *)
let copy_edge_count t = Idtbl.Pair.length t.copy_mem

(** Audit the copy lists of a quiescent solver: every [copy_out] key is
    a class representative, and no entry's destination lies in its
    key's own class. [None] when consistent; otherwise the first
    violation found. *)
let check_copy_lists t : string option =
  Itbl.fold
    (fun rid lst acc ->
      match acc with
      | Some _ -> acc
      | None when canon_id t rid <> rid ->
          Some (Printf.sprintf "copy list keyed by non-representative %d" rid)
      | None -> (
          match List.find_opt (fun (did, _) -> canon_id t did = rid) !lst with
          | Some (did, _) ->
              Some (Printf.sprintf "intra-class copy edge %d -> %d" rid did)
          | None -> None))
    t.copy_out None

(** Collapse invalidates cursors and copy edges (they reference
    pre-collapse cells) and the union-find classes (they were proven
    over pre-collapse constraints): drop all delta state and unshare the
    graph. Runs BEFORE the collapse rewrites the graph — the rewrite
    ([Graph.remove_source]) needs the unshared, per-cell view. The
    caller re-enqueues every statement, and re-derivation rebuilds the
    constraints — and recopies the merged representative sets — over the
    coarser cells. *)
let reset_deltas t =
  if is_delta t then begin
    Itbl.reset t.cursors;
    Itbl.reset t.dirty;
    Itbl.reset t.pointer_subs;
    Idtbl.Pair.reset t.cell_subbed;
    Itbl.reset t.copy_out;
    Idtbl.Pair.reset t.copy_mem;
    t.copy_srcs := [];
    Pq.clear t.cell_pq;
    Itbl.reset t.in_cell_wl;
    Itbl.reset t.order;
    t.order_edges <- 0;
    Idtbl.Pair.reset t.lcd_done;
    Graph.unshare t.graph
  end

(* ------------------------------------------------------------------ *)
(* Degradation                                                         *)
(* ------------------------------------------------------------------ *)

let is_collapsed_obj t (v : Cvar.t) =
  !(t.collapse_all) || Cvar.Tbl.mem t.collapsed v

let redirect_cell t (c : Cell.t) : Cell.t =
  if is_collapsed_obj t c.Cell.base then collapse_sel c else c

(** No object collapsed yet: cells need no redirection, which permits
    the bulk (one-merge-pass) copy-edge drain. *)
let pristine t =
  (not !(t.collapse_all)) && Cvar.Tbl.length t.collapsed = 0

(** Collapse [obj] to its representative cell: record the event, discard
    delta state (and class sharing), merge the edges its fine-grained
    cells carry onto the representative, and re-enqueue every statement
    so the fixpoint is re-established over the coarser cell space.
    Idempotent. *)
let collapse_object t ~(reason : Budget.reason) (obj : Cvar.t) =
  if not (Cvar.Tbl.mem t.collapsed obj) then begin
    Cvar.Tbl.replace t.collapsed obj ();
    Budget.record t.budget ~obj reason;
    reset_deltas t;
    List.iter
      (fun (c : Cell.t) ->
        let rep = collapse_sel c in
        if not (Cell.equal rep c) then begin
          Cell.Set.iter
            (fun w -> ignore (Graph.add_edge t.graph rep w))
            (Graph.pts t.graph c);
          Graph.remove_source t.graph c
        end)
      (Graph.cells_of_obj t.graph obj);
    List.iter (enqueue t) (Nast.all_stmts t.prog)
  end

(** Global degradation (step/time/total-cell budgets): collapse every
    object whose facts are spread over several cells, then treat all
    objects as collapsed from here on. The solver then continues to the
    Collapse-Always-shaped fixpoint, which terminates: the cell space is
    one cell per object and the transfer functions are monotone. *)
let degrade_all t ~(reason : Budget.reason) =
  let offenders =
    Graph.fold_objects t.graph
      (fun v cells acc ->
        if Cell.Set.cardinal cells > 1 && not (Cvar.Tbl.mem t.collapsed v)
        then v :: acc
        else acc)
      []
  in
  (* sorted so the collapse (and event) order is independent of hash
     bucketing — reruns of the same input produce identical ledgers *)
  let offenders = List.sort Cvar.compare offenders in
  if offenders = [] then Budget.record t.budget reason
  else List.iter (fun obj -> collapse_object t ~reason obj) offenders;
  t.collapse_all := true;
  reset_deltas t;
  List.iter (enqueue t) (Nast.all_stmts t.prog)

(** Cell-count budgets, checked as edges land. *)
let check_cell_budgets t (src : Cell.t) =
  (match t.budget.Budget.limits.Budget.max_cells_per_object with
  | Some limit when not (is_collapsed_obj t src.Cell.base) ->
      if Graph.cell_count_of_obj t.graph src.Cell.base > limit then
        collapse_object t ~reason:(Budget.Object_cells limit) src.Cell.base
  | _ -> ());
  match t.budget.Budget.limits.Budget.max_total_cells with
  | Some limit
    when Budget.over_total t.budget
           ~total_cells:(Graph.source_cell_count t.graph) ->
      Budget.trip_total t.budget;
      degrade_all t ~reason:(Budget.Total_cells limit)
  | _ -> ()

(** Wake the statements subscribed to a cell that just became
    fact-bearing: a new fact-bearing cell can grow a graph-dependent
    resolve pair set (Offsets), so those statements' cursors reset and
    their resolves re-run over the full sets. *)
let notify_new_source t (c : Cell.t) =
  match Cvar.Tbl.find_opt t.subscribers c.Cell.base with
  | Some lst ->
      List.iter
        (fun s ->
          mark_dirty t s;
          enqueue t s)
        !lst
  | None -> ()

let add_edge t (c : Cell.t) (w : Cell.t) =
  let c = redirect_cell t c and w = redirect_cell t w in
  let was_source = Graph.has_source t.graph c in
  if Graph.add_edge t.graph c w then begin
    (match t.engine with
    | `Naive -> (
        match Cvar.Tbl.find_opt t.subscribers c.Cell.base with
        | Some lst -> List.iter (enqueue t) !lst
        | None -> ())
    | `Delta | `Delta_nocycle ->
        let rid = canon_id t (Cell.id c) in
        (* the new fact flows along the class's copy edges… *)
        push_cell t rid;
        (* …and to the statements consuming the class's set via cursor *)
        (match Itbl.find_opt t.pointer_subs rid with
        | Some lst -> List.iter (enqueue t) !lst
        | None -> ());
        if not was_source then
          (* every member of the class became fact-bearing at once *)
          List.iter (notify_new_source t) (Graph.class_members t.graph c));
    check_cell_budgets t c
  end

(* ------------------------------------------------------------------ *)
(* Online cycle elimination                                            *)
(* ------------------------------------------------------------------ *)

(** Re-target the solver's per-class state after {!Graph.unify} merged
    [b]'s class into [a]'s (or vice versa — the graph picks the survivor
    whose log prefix stays cursor-valid):

    - the losing class's copy edges move to the survivor with cursors
      reset to 0 (the merged log appended the loser's facts in a new
      order); edges that became intra-class tautologies are dropped
      (the survivor's own such edges go later: {!propagate} drops
      them when it finds them behind, {!drop_intra_edges} at
      quiescence);
    - the losing class's cursor-consumers have their cursors translated
      when possible — a consumer that had read the loser's whole log,
      merged into an equal set, has by definition seen every fact of the
      merged set, so its cursor jumps to the merged log's end and no
      revisit happens (the common case: a cycle's sets are equal at
      collapse time) — and removed otherwise (they indexed the dead
      log), with the statement re-enqueued to re-read from scratch;
    - the survivor's consumers re-run only when the merge actually grew
      the surviving set;
    - cells that just became fact-bearing wake their graph-dependent
      resolve subscriptions, exactly like a first [add_edge] would. *)
let unify_cells t (a : Cell.t) (b : Cell.t) =
  let ra = Graph.canon t.graph a and rb = Graph.canon t.graph b in
  if not (Cell.equal ra rb) then begin
    let na = Graph.pts_size t.graph ra and nb = Graph.pts_size t.graph rb in
    let rep, lmembers, newly = Graph.unify t.graph ra rb in
    let loser, ln, wn =
      if Cell.equal rep ra then (rb, nb, na) else (ra, na, nb)
    in
    let wid = Cell.id rep and lid = Cell.id loser in
    let after = Graph.pts_size t.graph rep in
    (* equal sets, nothing appended: the loser's log held exactly the
       merged set's facts, just in another order *)
    let sets_eq = after = wn && ln = wn in
    t.cells_unified <- t.cells_unified + List.length lmembers;
    (match Itbl.find_opt t.copy_out lid with
    | Some llst ->
        Itbl.remove t.copy_out lid;
        let wlst = copy_list t wid in
        List.iter
          (fun (did, cur) ->
            if
              canon_id t did <> wid && not (Idtbl.Pair.mem t.copy_mem (wid, did))
            then begin
              Idtbl.Pair.replace t.copy_mem (wid, did) ();
              cur := 0;
              wlst := (did, cur) :: !wlst
            end)
          !llst
    | None -> ());
    (match Itbl.find_opt t.pointer_subs lid with
    | Some lst ->
        Itbl.remove t.pointer_subs lid;
        let wl = subs_list t wid in
        (* a consumer's cursor table holds the few cells it reads, while
           a class can have thousands of members: scan each table
           against the loser's members, not the members against every
           table *)
        let lset = Itbl.create (List.length lmembers) in
        List.iter
          (fun (m : Cell.t) -> Itbl.replace lset (Cell.id m) ())
          lmembers;
        List.iter
          (fun (s : Nast.stmt) ->
            let needs = ref false in
            (match Itbl.find_opt t.cursors s.Nast.id with
            | Some tbl ->
                let hits =
                  Itbl.fold
                    (fun mid k acc ->
                      if Itbl.mem lset mid then (mid, k) :: acc else acc)
                    tbl []
                in
                List.iter
                  (fun (mid, k) ->
                    if sets_eq && !k >= ln then
                      (* caught up on an equal set: already saw every
                         merged fact — jump to the merged log's end *)
                      k := after
                    else begin
                      Itbl.remove tbl mid;
                      needs := true
                    end)
                  hits
            | None -> ());
            (* a consumer with no cursor entry that still has facts to
               see (it subscribed before the class had any) is already
               queued from when those facts landed; [not sets_eq] means
               the merge brought facts no loser-side consumer ever saw *)
            if !needs || ((not sets_eq) && after > 0) then enqueue t s;
            wl := s :: !wl)
          !lst
    | None -> ());
    if after > wn then (
      match Itbl.find_opt t.pointer_subs wid with
      | Some lst -> List.iter (enqueue t) !lst
      | None -> ());
    List.iter (notify_new_source t) newly;
    push_cell t wid
  end

(** Bound on the nodes a single lazy-cycle-detection DFS may touch:
    keeps the search cost proportional to the wasted drain that paid
    for it, even on huge copy graphs. *)
let lcd_limit = 128

(** Bounded DFS over the representative-level copy graph: a path
    [from → … → target], as the list of its nodes excluding [target]
    ([from] first), or [None]. Only reads solver state. *)
let find_path t ~(from : int) ~(target : int) : int list option =
  let visited = Itbl.create 32 in
  let steps = ref 0 in
  let rec go (n : int) : int list option =
    if !steps >= lcd_limit || Itbl.mem visited n then None
    else begin
      Itbl.replace visited n ();
      incr steps;
      match Itbl.find_opt t.copy_out n with
      | None -> None
      | Some lst ->
          let rec try_edges = function
            | [] -> None
            | (did, _) :: rest -> (
                let d = canon_id t did in
                if d = target then Some [ n ]
                else
                  match go d with
                  | Some path -> Some (n :: path)
                  | None -> try_edges rest)
          in
          try_edges !lst
    end
  in
  go from

(** A drain along [target → from] just moved facts without adding any,
    onto an already-equal set — the lazy-cycle-detection trigger. Search
    for a return path [from → … → target]; if one exists, every node on
    it joins [target]'s class. Runs between drains (never mid-drain: a
    unification moves cursors the drain loop holds). *)
let try_collapse_cycle t ~(from : int) ~(target : int) =
  let from = canon_id t from and target = canon_id t target in
  if from <> target then
    match find_path t ~from ~target with
    | None -> ()
    | Some nodes ->
        t.cycles_found <- t.cycles_found + 1;
        List.iter
          (fun n -> unify_cells t (Cell.of_id target) (Cell.of_id n))
          nodes

(* ------------------------------------------------------------------ *)
(* Pseudo-topological drain order                                      *)
(* ------------------------------------------------------------------ *)

(** Recompute the drain priorities: a reverse postorder of the
    representative-level copy graph (cycles broken at the back edge), so
    sources rank before sinks and a fact tends to cross each cell after
    the cell's set has stopped growing this round. Roots are visited in
    copy-edge creation order ([copy_srcs]) and adjacency in list order —
    never in hashtable order, which varies with interned ids and would
    break byte-identical reruns. *)
let recompute_order t =
  t.order_edges <- Idtbl.Pair.length t.copy_mem;
  Itbl.reset t.order;
  let visited = Itbl.create 256 in
  let post = ref [] in
  let adj n =
    match Itbl.find_opt t.copy_out n with Some l -> !l | None -> []
  in
  let dfs root =
    if not (Itbl.mem visited root) then begin
      Itbl.replace visited root ();
      let stack = ref [ (root, adj root) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (n, []) :: rest ->
            post := n :: !post;
            stack := rest
        | (n, (did, _) :: more) :: rest ->
            stack := (n, more) :: rest;
            let d = canon_id t did in
            if not (Itbl.mem visited d) then begin
              Itbl.replace visited d ();
              stack := (d, adj d) :: !stack
            end
      done
    end
  in
  List.iter (fun sid -> dfs (canon_id t sid)) (List.rev !(t.copy_srcs));
  (* [post]'s head finished last — reverse postorder, rank 0 first *)
  List.iteri (fun i n -> Itbl.replace t.order n i) !post

(** Refresh the order once the copy graph outgrew the one it was
    computed for by half (new cells drain last until then). *)
let maybe_recompute_order t =
  let edges = Idtbl.Pair.length t.copy_mem in
  if edges > t.order_edges + max 16 (t.order_edges / 2) then
    recompute_order t

let pointee_of (v : Cvar.t) : Ctype.t =
  match v.Cvar.vty with
  | Ctype.Ptr ty -> ty
  | Ctype.Array (ty, _) -> ty
  | _ -> Ctype.Void

(** Install the subset constraint [src ⊆ dst] between the two cells'
    classes; first installation pushes [src]'s current facts through the
    cell worklist. Intra-class constraints are tautologies and install
    nothing. *)
let ensure_copy t (dst : Cell.t) (src : Cell.t) =
  let sid = canon_id t (Cell.id src) and did = canon_id t (Cell.id dst) in
  if sid <> did then begin
    if not (Idtbl.Pair.mem t.copy_mem (sid, did)) then begin
      Idtbl.Pair.replace t.copy_mem (sid, did) ();
      let lst = copy_list t sid in
      lst := (did, ref 0) :: !lst;
      if Graph.pts_size t.graph src > 0 then push_cell t sid
    end
  end

(** Consume the facts of [c] that [stmt] has not seen yet (all of them on
    the statement's first visit, or after a dirty reset). Facts added by
    [f] itself are picked up in the same sweep. *)
let consume t (stmt : Nast.stmt) (c : Cell.t) (f : Cell.t -> unit) =
  pointer_subscribe t stmt c;
  match Graph.pts_ids t.graph c with
  | None -> ()
  | Some set ->
      let tbl = cursor_tbl t stmt in
      let cid = Cell.id c in
      (* a stored set is never empty, so the cursor enters the table
         exactly when the first fact is consumed; advancing it is then a
         store, not a table update per fact *)
      let cur =
        match Itbl.find_opt tbl cid with
        | Some cur -> cur
        | None ->
            let cur = ref 0 in
            Itbl.replace tbl cid cur;
            cur
      in
      t.full_facts <- t.full_facts + Idset.cardinal set;
      while !cur < Idset.cardinal set do
        let w = Cell.of_id (Idset.get_ord set !cur) in
        incr cur;
        t.delta_facts <- t.delta_facts + 1;
        t.facts_consumed <- t.facts_consumed + 1;
        f w
      done

(* ------------------------------------------------------------------ *)
(* Rule application                                                    *)
(* ------------------------------------------------------------------ *)

let process t (stmt : Nast.stmt) =
  let module S = (val t.strategy : Strategy.S) in
  let delta = is_delta t in
  (* a dirty statement starts over: its subscribed objects gained new
     fact-bearing cells, so its graph-dependent resolves must re-run *)
  if delta && Itbl.mem t.dirty stmt.Nast.id then begin
    Itbl.remove t.dirty stmt.Nast.id;
    match Itbl.find_opt t.cursors stmt.Nast.id with
    | Some tbl -> Itbl.reset tbl
    | None -> ()
  end;
  let norm v p = S.normalize t.ctx v p in
  (* iterate the facts of pointer cell [c] this statement reads: the full
     set under the naive engine (re-read every visit), the unseen suffix
     under the delta engines *)
  let foreach_fact (c : Cell.t) (f : Cell.t -> unit) =
    if delta then consume t stmt c f
    else begin
      let s = Graph.pts t.graph c in
      let n = Cell.Set.cardinal s in
      t.facts_consumed <- t.facts_consumed + n;
      t.delta_facts <- t.delta_facts + n;
      t.full_facts <- t.full_facts + n;
      Cell.Set.iter f s
    end
  in
  (* naive: transfer every fact of each source cell to the paired
     destination now, and re-run when the source object grows.
     delta: install the pair as a persistent copy edge — propagation
     moves the facts (current and future) exactly once each. *)
  let transfer pairs =
    if delta then List.iter (fun (cd, cs) -> ensure_copy t cd cs) pairs
    else
      List.iter
        (fun ((cd : Cell.t), (cs : Cell.t)) ->
          subscribe t stmt cs.Cell.base;
          let s = Graph.pts t.graph cs in
          let n = Cell.Set.cardinal s in
          t.facts_consumed <- t.facts_consumed + n;
          t.delta_facts <- t.delta_facts + n;
          t.full_facts <- t.full_facts + n;
          Cell.Set.iter (fun w -> add_edge t cd w) s)
        pairs
  in
  (* Run [resolve] and feed its pairs to [transfer]. The source OBJECT is
     subscribed before resolving, even when it yields no pairs: a
     graph-dependent resolve (Offsets pairs only fact-bearing source
     offsets) that runs while the source object is still fact-free must
     re-run once the first fact lands, or those pairs are lost for good.
     Under the naive engine the subscription is unconditional (its only
     re-run trigger is object growth); under the delta engines only
     [graph_resolve] instances need it — copy edges carry future facts
     for pair sets that are a pure function of the types. *)
  let resolve_into (dst : Cell.t) (src : Cell.t) (tau : Ctype.t) =
    if (not delta) || S.graph_resolve then subscribe t stmt src.Cell.base;
    transfer (S.resolve t.ctx t.graph dst src tau)
  in
  (* a virtual copy [dst = src] with declared type τ = dst's type *)
  let virtual_copy (dst : Cvar.t) (src : Cvar.t) =
    if not delta then subscribe t stmt src;
    resolve_into (norm dst []) (norm src []) dst.Cvar.vty
  in
  let bind_call (call : Nast.call) (fname : string) =
    match Hashtbl.find_opt t.funcs fname with
    | Some f ->
        (* actuals into formals, extras into the vararg blob *)
        let rec bind params args =
          match (params, args) with
          | p :: ps, a :: as_ ->
              virtual_copy p a;
              bind ps as_
          | [], extras -> (
              match f.Nast.fvararg with
              | Some va -> List.iter (fun a -> virtual_copy va a) extras
              | None -> ())
          | _ :: _, [] -> ()
        in
        bind f.Nast.fparams call.Nast.cargs;
        (match (call.Nast.cret, f.Nast.fret) with
        | Some dst, Some src -> virtual_copy dst src
        | _ -> ())
    | None -> (
        match Summaries.find fname with
        | Some { Summaries.effects; _ } ->
            let operand_var = function
              | Summaries.Arg i -> List.nth_opt call.Nast.cargs i
              | Summaries.Ret -> call.Nast.cret
            in
            List.iter
              (fun eff ->
                match eff with
                | Summaries.Alloc _ | Summaries.Static_result _ ->
                    () (* materialized during lowering *)
                | Summaries.Ret_is op -> (
                    match (call.Nast.cret, operand_var op) with
                    | Some dst, Some src -> virtual_copy dst src
                    | _ -> ())
                | Summaries.Ret_points_into i -> (
                    match (call.Nast.cret, List.nth_opt call.Nast.cargs i) with
                    | Some dst, Some arg ->
                        if not delta then subscribe t stmt arg;
                        foreach_fact (norm arg []) (fun (c : Cell.t) ->
                            List.iter
                              (fun w -> add_edge t (norm dst []) w)
                              (S.all_cells t.ctx c.Cell.base))
                    | _ -> ())
                | Summaries.Deep_copy (a, b) -> (
                    match (operand_var a, operand_var b) with
                    | Some va, Some vb ->
                        if not delta then begin
                          subscribe t stmt va;
                          subscribe t stmt vb
                        end;
                        let pair (ca : Cell.t) (cb : Cell.t) =
                          resolve_into ca cb cb.Cell.base.Cvar.vty
                        in
                        foreach_fact (norm va []) (fun ca ->
                            Cell.Set.iter
                              (fun cb -> pair ca cb)
                              (Graph.pts t.graph (norm vb [])));
                        (* the cross product needs both deltas: new
                           sources × all destinations too *)
                        if delta then
                          foreach_fact (norm vb []) (fun cb ->
                              Cell.Set.iter
                                (fun ca -> pair ca cb)
                                (Graph.pts t.graph (norm va [])))
                    | _ -> ())
                | Summaries.Store_through (i, op) -> (
                    match (List.nth_opt call.Nast.cargs i, operand_var op) with
                    | Some parg, Some src ->
                        if not delta then begin
                          subscribe t stmt parg;
                          subscribe t stmt src
                        end;
                        let tau = pointee_of parg in
                        foreach_fact (norm parg []) (fun c ->
                            resolve_into c (norm src []) tau)
                    | _ -> ())
                | Summaries.Invoke (i, ops) -> (
                    match List.nth_opt call.Nast.cargs i with
                    | Some fp ->
                        if not delta then subscribe t stmt fp;
                        foreach_fact (norm fp []) (fun (c : Cell.t) ->
                            match c.Cell.base.Cvar.vkind with
                            | Cvar.Funval g -> (
                                match Hashtbl.find_opt t.funcs g with
                                | Some callee ->
                                    let actuals =
                                      List.filter_map operand_var ops
                                    in
                                    let rec bind params args =
                                      match (params, args) with
                                      | p :: ps, a :: as_ ->
                                          virtual_copy p a;
                                          bind ps as_
                                      | _ -> ()
                                    in
                                    bind callee.Nast.fparams actuals
                                | None -> ())
                            | _ -> ())
                    | None -> ()))
              effects
        | None ->
            if not (List.mem fname t.unknown_externs) then
              t.unknown_externs <- fname :: t.unknown_externs)
  in
  match stmt.Nast.kind with
  | Nast.Addr (s, obj, beta) ->
      (* Rule 1: s = &t.β *)
      add_edge t (norm s []) (norm obj beta)
  | Nast.Addr_deref (s, p, alpha) ->
      (* Rule 2: s = &( *p).α — lookup runs once per (new) target *)
      if not delta then subscribe t stmt p;
      let tau_p = pointee_of p in
      foreach_fact (norm p []) (fun c ->
          List.iter
            (fun c' -> add_edge t (norm s []) c')
            (S.lookup t.ctx tau_p alpha c))
  | Nast.Copy (s, obj, beta) ->
      (* Rule 3: s = t.β *)
      if not delta then subscribe t stmt obj;
      resolve_into (norm s []) (norm obj beta) s.Cvar.vty
  | Nast.Load (s, q) ->
      (* Rule 4: s = *q — resolve runs once per (new) target of q *)
      if not delta then subscribe t stmt q;
      foreach_fact (norm q []) (fun c -> resolve_into (norm s []) c s.Cvar.vty)
  | Nast.Store (p, v) ->
      (* Rule 5: *p = t *)
      if not delta then begin
        subscribe t stmt p;
        subscribe t stmt v
      end;
      let tau_p = pointee_of p in
      foreach_fact (norm p []) (fun c -> resolve_into c (norm v []) tau_p)
  | Nast.Arith (s, v) -> (
      if not delta then subscribe t stmt v;
      let spread (c : Cell.t) =
        List.iter
          (fun w -> add_edge t (norm s []) w)
          (S.all_cells t.ctx c.Cell.base)
      in
      match t.arith_mode with
      | `Spread ->
          (* Assumption 1: the result may point to any cell of the
             objects [v] points into *)
          foreach_fact (norm v []) spread
      | `Stride ->
          (* pointers walking an array stay on the representative
             element; anything else spreads as under Assumption 1 *)
          foreach_fact (norm v []) (fun (c : Cell.t) ->
              if S.in_array t.ctx c then add_edge t (norm s []) c
              else spread c)
      | `Unknown ->
          (* pessimistic: the result is a corrupted-pointer marker *)
          foreach_fact (norm v []) (fun _ ->
              add_edge t (norm s []) (Cell.whole t.unknown_obj))
      | `Copy ->
          if delta then ensure_copy t (norm s []) (norm v [])
          else foreach_fact (norm v []) (fun w -> add_edge t (norm s []) w))
  | Nast.Call call -> (
      match call.Nast.cfn with
      | Nast.Direct n -> bind_call call n
      | Nast.Indirect fp ->
          if not delta then subscribe t stmt fp;
          foreach_fact (norm fp []) (fun (c : Cell.t) ->
              match c.Cell.base.Cvar.vkind with
              | Cvar.Funval n -> bind_call call n
              | _ -> ()))

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

(** Step and time budgets, checked once per worklist statement (time is
    sampled sparsely — a clock read every statement would dominate small
    runs). *)
let check_step_budgets t =
  let b = t.budget in
  if Budget.over_steps b then begin
    Budget.trip_steps b;
    match b.Budget.limits.Budget.max_steps with
    | Some n -> degrade_all t ~reason:(Budget.Steps n)
    | None -> ()
  end;
  if Budget.steps b land 255 = 0 && Budget.over_time b then begin
    Budget.trip_time b;
    match b.Budget.limits.Budget.timeout_s with
    | Some s -> degrade_all t ~reason:(Budget.Timeout s)
    | None -> ()
  end

let check_drain_timeout t =
  if Budget.over_time t.budget then begin
    Budget.trip_time t.budget;
    match t.budget.Budget.limits.Budget.timeout_s with
    | Some s -> degrade_all t ~reason:(Budget.Timeout s)
    | None -> ()
  end

(** Drain the cell worklist in pseudo-topological order: push every
    unpropagated fact along its class's copy edges. Monotone (only
    [add_edge]/[union_pts]) and cursor-driven, so each fact crosses each
    edge once — this is where the delta engines move facts that the
    naive engine re-reads statement-side. A first drain of an edge on an
    un-degraded run takes the bulk path: one {!Graph.union_pts} merge
    pass instead of per-fact insertions. Drains that move facts but add
    none are the wasted work cycle elimination exists to remove; under
    [`Delta], a wasted drain onto an already-equal set triggers the
    lazy cycle search (after the cell's drain completes — a unification
    moves the cursors the drain loop holds). *)
let propagate t =
  if is_delta t then begin
    maybe_recompute_order t;
    let copied = ref 0 in
    while not (Pq.is_empty t.cell_pq) do
      let sid0 = Pq.pop t.cell_pq in
      (* clear the marker before working: pushes triggered mid-drain must
         be able to re-queue this cell *)
      Itbl.remove t.in_cell_wl sid0;
      let sid = canon_id t sid0 in
      (* an entry whose cell was unified away is stale: the survivor was
         pushed separately by [unify_cells] *)
      if sid = sid0 then begin
        let lcd_pending = ref [] in
        (match Itbl.find_opt t.copy_out sid with
        | None -> ()
        | Some lst -> (
            match Graph.pts_ids t.graph (Cell.of_id sid) with
            | None -> ()
            | Some set ->
                let intra = ref false in
                List.iter
                  (fun (did, cur) ->
                    if !cur < Idset.cardinal set then begin
                      let dc = Graph.canon t.graph (Cell.of_id did) in
                      let dcid = Cell.id dc in
                      if dcid = sid then begin
                        (* a unification made the edge a tautology:
                           mark it for removal after the walk *)
                        cur := -1;
                        intra := true
                      end
                      else begin
                        let moved0 = !cur in
                        let grew =
                          if moved0 = 0 && pristine t then begin
                            (* bulk first drain: one merge pass, with a
                               capacity hint when the destination set is
                               created *)
                            let total = Idset.cardinal set in
                            let added, newly =
                              Graph.union_pts t.graph ~dst:dc
                                ~src:(Cell.of_id sid)
                            in
                            cur := total;
                            t.facts_consumed <- t.facts_consumed + total;
                            copied := !copied + total;
                            if added > 0 then begin
                              push_cell t dcid;
                              (match Itbl.find_opt t.pointer_subs dcid with
                              | Some l -> List.iter (enqueue t) !l
                              | None -> ());
                              List.iter (notify_new_source t) newly;
                              check_cell_budgets t dc
                            end;
                            if !copied land 4095 = 0 then
                              check_drain_timeout t;
                            added > 0
                          end
                          else begin
                            let before = Graph.pts_size t.graph dc in
                            while !cur < Idset.cardinal set do
                              let w = Cell.of_id (Idset.get_ord set !cur) in
                              incr cur;
                              t.facts_consumed <- t.facts_consumed + 1;
                              incr copied;
                              (* time budget, sampled: a long drain between
                                 two statements must not escape the
                                 timeout *)
                              if !copied land 4095 = 0 then
                                check_drain_timeout t;
                              add_edge t (Cell.of_id did) w
                            done;
                            Graph.pts_size t.graph dc > before
                          end
                        in
                        if not grew then begin
                          t.wasted_props <- t.wasted_props + 1;
                          (* the sets are equal and the drain moved
                             nothing new: the lazy-cycle-detection
                             trigger *)
                          if
                            cycles_on t
                            && Idset.cardinal set = Graph.pts_size t.graph dc
                            && not (Idtbl.Pair.mem t.lcd_done (sid, dcid))
                          then begin
                            Idtbl.Pair.replace t.lcd_done (sid, dcid) ();
                            lcd_pending := dcid :: !lcd_pending
                          end
                        end
                      end
                    end)
                  !lst;
                if !intra then
                  lst := List.filter (fun (_, cur) -> !cur >= 0) !lst));
        List.iter
          (fun dcid -> try_collapse_cycle t ~from:dcid ~target:sid)
          (List.rev !lcd_pending)
      end
    done
  end

(** Drain the worklist to a fixpoint from whatever is queued — the
    warm-start entry point: nothing is re-enqueued, so a resumed solver
    only revisits statements some new fact actually woke. *)
let visit_stmt t (stmt : Nast.stmt) =
  (* clear the dedup marker before dispatch: a statement that
     re-enqueues itself mid-visit (e.g. [p = *p] growing its own
     set) must land back in the queue, not be silently dropped *)
  Itbl.remove t.in_queue stmt.Nast.id;
  t.rounds <- t.rounds + 1;
  Budget.step t.budget;
  check_step_budgets t;
  let facts0 = t.facts_consumed in
  let edges0 = Graph.edge_count t.graph in
  let copies0 = Idtbl.Pair.length t.copy_mem in
  process t stmt;
  (* a visit that read facts but derived nothing (no graph edge,
     no copy edge) re-did work some earlier visit already did *)
  if
    t.facts_consumed > facts0
    && Graph.edge_count t.graph = edges0
    && Idtbl.Pair.length t.copy_mem = copies0
  then t.wasted_props <- t.wasted_props + 1

(** Drop every copy edge whose destination lies in its own source
    class. The drain drops such an edge when it finds it behind its
    source's log; one left caught up by a merge of equal sets (the
    common case for a collapsed cycle) waits for this sweep, which runs
    at quiescence so a fixpoint holds none.
    Dropping is safe: classes never split, except through degradation,
    whose {!reset_deltas} clears every list. *)
let drop_intra_edges t =
  Itbl.iter
    (fun rid lst ->
      if List.exists (fun (did, _) -> canon_id t did = rid) !lst then
        lst := List.filter (fun (did, _) -> canon_id t did <> rid) !lst)
    t.copy_out

let resume t : unit =
  Budget.start t.budget;
  let rec loop () =
    propagate t;
    match Queue.take_opt t.queue with
    | None -> if not (Pq.is_empty t.cell_pq) then loop ()
    | Some stmt ->
        visit_stmt t stmt;
        loop ()
  in
  loop ();
  drop_intra_edges t

let solve t : unit =
  List.iter (enqueue t) (Nast.all_stmts t.prog);
  resume t

(** Swap in a new program (the incremental engine's aligned edit),
    keeping the function table consistent. The strategy memo is dropped:
    its answers stay true, but a long [watch] session would otherwise
    keep every program version's. Does not enqueue anything. *)
let set_program t (prog : Nast.program) =
  Actx.clear_memo t.ctx;
  t.prog <- prog;
  Hashtbl.reset t.funcs;
  List.iter (fun f -> Hashtbl.replace t.funcs f.Nast.fname f) prog.Nast.pfuncs

(** Analyze [prog] with [strategy]; returns the solver state at fixpoint. *)
let run ?layout ?arith ?budget ?engine ?track:_ ~strategy
    (prog : Nast.program) : t =
  let t = create ?layout ?arith ?budget ?engine ~strategy prog in
  solve t;
  t

(** Degradation events recorded during [solve], oldest first. *)
let degradations t : Budget.event list = Budget.events t.budget

let degraded t : bool = Budget.degraded t.budget
