(** Warm-start solving and targeted delete-and-rederive retraction.

    {b Overdelete.} Every fact whose derivation chain involves a removed
    statement lies in an affected cell. By induction over derivation
    height: a dead fact's last derivation step is either a direct edge
    whose support hit zero (its source cell seeds the closure), a copy
    constraint whose support hit zero (its destination seeds), a flow
    through a surviving copy constraint out of an affected cell
    (copy-flow rule), or a derivation by a surviving statement that read
    an affected cell (read-to-write wake rule — the reader's old
    derivations cannot be trusted, so {e all} cells it writes are
    marked). Class sharing is closed over explicitly: unified cells
    share one set, so marking any member marks all.

    Marking is narrowed per fact. A dying constraint only endangers the
    facts it actually carried — for a direct edge the one target, for a
    copy constraint the source class's points-to set — and an
    endangered fact only kills its class when every alternate
    justification is gone: no surviving direct derivation onto any
    class member (edge support minus the tentative decrements stays
    positive), and no surviving copy inflow from an unaffected {e
    green} class — one whose every fact keeps surviving direct support
    — whose set carries the fact. Greenness deliberately ignores copy
    flow, so justification chains bottom out in direct support after at
    most one hop and two dead classes can never vouch for each other
    through mutual copies. Both narrowings re-fire as the drain
    proceeds: a woken statement {e spends} its support exactly like a
    removed one (its rederivation during replay re-earns it), and a
    class marked later re-examines every destination its surviving
    copies feed, so the last examination always sees the final spent
    counts and affected set.

    {b Rederive.} {!Core.Solver.retract_cells} clears exactly the
    affected classes (dissolving them — their justifying cycles may
    have died) while keeping cursors, copy edges and attribution for
    everything else. The replay then re-enqueues only: the added
    statements, the woken readers, the direct writers into an affected
    cell, and the installers of copy constraints whose source or
    destination class was affected (those edges were dropped with the
    class). All are marked dirty, so their visits re-read full sets and
    re-derive — and re-attribute — exactly what still holds; every
    other statement's cursors, subscriptions and support survive
    untouched. The resumed monotone solve over the retained facts
    converges to exactly the edited program's fixpoint: retained facts
    are all derivable without the removed statements, and anything
    derivable that was cleared is re-derived through the replayed
    statements or the surviving constraint edges. *)

open Cfront
open Norm
open Core

module Itbl = Idtbl.Int

type stats = {
  stmts_added : int;
  stmts_removed : int;
  facts_retracted : int;
  affected_cells : int;
  warm_visits : int;
  stmts_replayed : int;
  fallback : bool;
  fallback_planned : bool;
}

let default_retract_budget = 10_000

(* The retraction cost guard (below) only engages past this many
   constraints/source cells: on small fixpoints the closure and clear
   are too cheap to be worth predicting, and the retraction path is the
   one we want exercised by tests and small interactive edits. *)
let plan_floor = 64

exception Too_wide

(** From-scratch solve of the aligned program under the base solver's
    configuration, with the fallback reported as a warning (precision
    is unaffected, so this must not flip the CLI into exit code 1). *)
let scratch ?diags ~(why : string) (t : Solver.t) (prog : Nast.program) :
    Solver.t =
  (match diags with
  | Some d ->
      Diag.warn d "degraded-incremental: %s; solving the edit from scratch"
        why
  | None -> ());
  Solver.run ~layout:t.Solver.ctx.Actx.layout ~arith:t.Solver.arith_mode
    ~budget:t.Solver.budget.Budget.limits ~engine:t.Solver.engine
    ~track:t.Solver.track ~strategy:t.Solver.base_strategy prog

(** The affected-cell closure for a removal edit. Runs against the
    still-solved state (class sharing and cursors intact) and never
    mutates [t] — support spent by the removed statements is counted in
    a local table, so aborting leaves the solver at the base fixpoint,
    reusable for a later attempt. Raises {!Too_wide} past
    [retract_budget] cells. Returns the removed statement ids, the
    affected set (class-closed), and the woken statement ids (surviving
    readers of an affected cell, which {!execute} must replay). *)
let closure (t : Solver.t) (d : Progdiff.t) ~(retract_budget : int) :
    unit Itbl.t * unit Itbl.t * unit Itbl.t =
  let removed_ids = Itbl.create 16 in
  List.iter
    (fun (s : Nast.stmt) -> Itbl.replace removed_ids s.Nast.id ())
    d.Progdiff.removed;
  let affected = Itbl.create 256 in
  let queue = Queue.create () in
  let rec mark (cid : int) =
    if not (Itbl.mem affected cid) then begin
      Itbl.replace affected cid ();
      if Itbl.length affected > retract_budget then raise Too_wide;
      Queue.add cid queue;
      (* unified cells share one set: marking any member marks all *)
      List.iter
        (fun (m : Cell.t) -> mark (Cell.id m))
        (Graph.class_members t.Solver.graph (Cell.of_id cid))
    end
  in
  (* seeds: support that the removed statements were the last to hold.
     Decrements are tentative — accumulated in local tables, never
     applied to the solver's counters (on success the replay resets the
     tracking tables anyway; on Too_wide [t] must stay pristine). *)
  let spent_edge = Idtbl.Pair.create 64 in
  let spent_copy = Idtbl.Pair.create 64 in
  let spend support spent key =
    match Idtbl.Pair.find_opt support key with
    | Some r ->
        let d = 1 + (try Idtbl.Pair.find spent key with Not_found -> 0) in
        Idtbl.Pair.replace spent key d;
        !r - d <= 0
    | None -> false
  in
  (* Pass 1: spend every removed statement's support, collecting the
     constraints whose count ran out. Spending completes before any
     narrowing predicate runs, so "surviving support" below never
     counts a removed statement's contribution. *)
  let dead_edges = ref [] in
  let dead_copy_seeds = ref [] in
  Itbl.iter
    (fun sid () ->
      (match Itbl.find_opt t.Solver.stmt_edges sid with
      | Some l ->
          List.iter
            (fun e ->
              if spend t.Solver.edge_support spent_edge e then
                dead_edges := e :: !dead_edges)
            !l
      | None -> ());
      match Itbl.find_opt t.Solver.stmt_copies sid with
      | Some l ->
          List.iter
            (fun e ->
              if spend t.Solver.copy_support spent_copy e then
                dead_copy_seeds := e :: !dead_copy_seeds)
            !l
      | None -> ())
    removed_ids;
  (* Greenness, cached per class representative: every fact of the
     class keeps a surviving direct derivation onto some member
     (support minus tentative decrements stays positive). Green classes
     anchor the inflow justification below. The cache entry is dropped
     whenever a wake-time spend kills a member edge; a green→non-green
     flip otherwise coincides with the class being marked (the fact
     that lost its last direct support fails [fact_ok] at the spend
     site), so unmarked classes never go stale. *)
  let direct_ok = Itbl.create 64 in
  let all_facts_supported (cid : int) : bool =
    let rep = Graph.canon t.Solver.graph (Cell.of_id cid) in
    let rid = Cell.id rep in
    match Itbl.find_opt direct_ok rid with
    | Some b -> b
    | None ->
        let b =
          match Graph.pts_ids t.Solver.graph rep with
          | None -> true
          | Some set ->
              let members = Graph.class_members t.Solver.graph rep in
              let supported w =
                List.exists
                  (fun (m : Cell.t) ->
                    let e = (Cell.id m, w) in
                    match Idtbl.Pair.find_opt t.Solver.edge_support e with
                    | Some r ->
                        let spent =
                          try Idtbl.Pair.find spent_edge e with Not_found -> 0
                        in
                        !r - spent > 0
                    | None -> false)
                  members
              in
              Idset.fold (fun w acc -> acc && supported w) set true
        in
        Itbl.replace direct_ok rid b;
        b
  in
  (* Per-fact direct check: the fact [w] keeps a surviving direct
     derivation onto some member of [cid]'s class — the shared set keeps
     it with live justification, exactly as the scratch solve of the
     edited program would re-derive it (member facts flow to the whole
     class). *)
  let fact_supported (cid : int) (w : int) : bool =
    List.exists
      (fun (m : Cell.t) ->
        let e = (Cell.id m, w) in
        match Idtbl.Pair.find_opt t.Solver.edge_support e with
        | Some r ->
            let spent =
              try Idtbl.Pair.find spent_edge e with Not_found -> 0
            in
            !r - spent > 0
        | None -> false)
      (Graph.class_members t.Solver.graph (Cell.of_id cid))
  in
  (* Surviving copy inflows per destination class representative. The
     graph is never mutated during the closure, so canonicalising the
     install-time ids once up front is stable; survival of each pair is
     re-checked at query time because [spent_copy] grows as statements
     are woken. *)
  let copy_in = Itbl.create 256 in
  Idtbl.Pair.iter
    (fun ((cs, cd) as key) _ ->
      let rid = Cell.id (Graph.canon t.Solver.graph (Cell.of_id cd)) in
      Itbl.replace copy_in rid
        ((cs, key) :: (try Itbl.find copy_in rid with Not_found -> [])))
    t.Solver.copy_support;
  (* Second justification layer, stratified to stay sound: the fact [w]
     also survives in class [rid] when a surviving copy inflow carries
     it from a class that is (a) not affected and (b) {e green} — every
     one of its facts has surviving direct support. Greenness never
     depends on copy flow, so justification chains have depth at most
     two and the circular-support trap (two dead classes vouching for
     each other through mutual copies) cannot arise. If the justifying
     source class is marked later, the drain's flow rule re-examines
     this destination — marks only grow, so the last examination is the
     one that counts. *)
  let inflow_ok (cid : int) (w : int) : bool =
    let rid = Cell.id (Graph.canon t.Solver.graph (Cell.of_id cid)) in
    match Itbl.find_opt copy_in rid with
    | None -> false
    | Some l ->
        List.exists
          (fun (cs, key) ->
            (match Idtbl.Pair.find_opt t.Solver.copy_support key with
            | Some r ->
                let d =
                  try Idtbl.Pair.find spent_copy key with Not_found -> 0
                in
                !r - d > 0
            | None -> false)
            &&
            let srep = Graph.canon t.Solver.graph (Cell.of_id cs) in
            let sid = Cell.id srep in
            sid <> rid
            && (not (Itbl.mem affected sid))
            && all_facts_supported sid
            &&
            match Graph.pts_ids t.Solver.graph srep with
            | Some set -> Idset.mem set w
            | None -> false)
          l
  in
  let fact_ok (cid : int) (w : int) : bool =
    fact_supported cid w || inflow_ok cid w
  in
  (* Per-fact narrowing for a dying copy constraint [(cs, cd)]: only
     the facts that flowed through it — [pts] of the source class — can
     lose their justification in the destination, so only those are
     checked. A source class that never became fact-bearing kills
     nothing.

     One exception bypasses the narrowing entirely: a copy whose
     endpoints sit in the SAME class. Unification is itself a derived
     fact — the solver only merges classes when it finds a copy cycle,
     and after the merge every edge of that cycle is intra-class — so
     an intra-class copy death may have severed the cycle that
     justified the merge. Facts cannot witness that (the merged class
     holds the union either way); the class must dissolve and let the
     replay re-unify whatever cycles still exist. *)
  let copy_death_kills (cs : int) (cd : int) : bool =
    let srep = Graph.canon t.Solver.graph (Cell.of_id cs) in
    let drep = Graph.canon t.Solver.graph (Cell.of_id cd) in
    if Cell.id srep = Cell.id drep then true
    else
      match Graph.pts_ids t.Solver.graph srep with
      | None -> false
      | Some set ->
          let dead = ref false in
          Idset.iter (fun w -> if (not !dead) && not (fact_ok cd w) then dead := true) set;
          !dead
  in
  (* Pass 2: seed the closure from the dead constraints, each narrowed
     by its alternate-derivation check. *)
  List.iter (fun (c, w) -> if not (fact_ok c w) then mark c) !dead_edges;
  List.iter
    (fun (cs, cd) -> if copy_death_kills cs cd then mark cd)
    !dead_copy_seeds;
  (* surviving copy constraints, as adjacency over install-time ids *)
  let copy_adj = Itbl.create 256 in
  Idtbl.Pair.iter
    (fun ((cs, cd) as key) r ->
      let d = try Idtbl.Pair.find spent_copy key with Not_found -> 0 in
      if !r - d > 0 then
        Itbl.replace copy_adj cs
          (cd :: (try Itbl.find copy_adj cs with Not_found -> [])))
    t.Solver.copy_support;
  (* surviving cursor readers: cell id → statement ids consuming it *)
  let readers = Itbl.create 256 in
  Itbl.iter
    (fun sid tbl ->
      if not (Itbl.mem removed_ids sid) then
        Itbl.iter
          (fun cid _ ->
            Itbl.replace readers cid
              (sid :: (try Itbl.find readers cid with Not_found -> [])))
          tbl)
    t.Solver.cursors;
  let woken = Itbl.create 256 in
  let wake (sid : int) =
    if not (Itbl.mem removed_ids sid) && not (Itbl.mem woken sid) then begin
      Itbl.replace woken sid ();
      (* The statement read an affected cell, so it is invalidated and
         will be replayed from scratch — its past derivations only
         survive through OTHER statements. Spend its support like a
         removed statement's: each fact whose last supporter this was
         gets marked, each fact another surviving statement still
         derives is kept (that statement in turn gets woken — and
         spent — if its own reads died, so chains of stale support
         unravel to exactly the facts with no valid derivation left).
         Spending can flip a cached all-facts-supported verdict, so the
         touched class's cache entry is dropped; the class itself is
         re-examined through the dead-fact path right here. *)
      (match Itbl.find_opt t.Solver.stmt_edges sid with
      | Some l ->
          List.iter
            (fun ((c, w) as e) ->
              if spend t.Solver.edge_support spent_edge e then begin
                Itbl.remove direct_ok
                  (Cell.id (Graph.canon t.Solver.graph (Cell.of_id c)));
                if not (fact_ok c w) then mark c
              end)
            !l
      | None -> ());
      match Itbl.find_opt t.Solver.stmt_copies sid with
      | Some l ->
          List.iter
            (fun ((cs, cd) as e) ->
              if spend t.Solver.copy_support spent_copy e then
                if copy_death_kills cs cd then mark cd)
            !l
      | None -> ()
    end
  in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    (match Itbl.find_opt copy_adj cid with
    | Some dsts ->
        List.iter
          (fun cd ->
            if copy_death_kills cid cd then mark cd)
          dsts
    | None -> ());
    (match Itbl.find_opt readers cid with
    | Some sids -> List.iter wake sids
    | None -> ());
    (* cursor subscribers of the class, including statements that
       subscribed while the set was still empty and so hold no cursor:
       retraction drops the class's [pointer_subs] entry (its key dies
       with the dissolution), so every subscriber must be replayed to
       re-subscribe under the new representative *)
    (match Itbl.find_opt t.Solver.pointer_subs cid with
    | Some lst -> List.iter (fun (s : Nast.stmt) -> wake s.Nast.id) !lst
    | None -> ());
    (* object-level subscriptions (graph-dependent resolves) *)
    match Cvar.Tbl.find_opt t.Solver.subscribers (Cell.of_id cid).Cell.base with
    | Some l -> List.iter (fun (s : Nast.stmt) -> wake s.Nast.id) !l
    | None -> ()
  done;
  (removed_ids, affected, woken)

(** Targeted delete-and-rederive: compute the replay set, surgically
    clear the affected classes ({!Solver.retract_cells} — cursors, copy
    edges, attribution and externs survive for everything unaffected),
    swap in the aligned program, and resume over only the statements
    whose derivations the retraction could have touched. Returns
    (facts retracted, affected cells, warm visits, statements
    replayed). *)
let execute (t : Solver.t) (aligned : Nast.program) (d : Progdiff.t)
    (removed_ids : unit Itbl.t) (affected : unit Itbl.t) (woken : unit Itbl.t)
    : int * int * int * int =
  (* The replay set, computed against the pre-retraction attribution
     tables (retract_cells purges some of them): added statements,
     woken readers, direct writers into an affected cell (their
     surviving derivations into the cleared cells must re-land), and
     installers of copy constraints touching an affected class (those
     physical edges are dropped with the class and must be re-installed
     over the dissolved cells). *)
  let replay = Itbl.create 64 in
  let add sid =
    if not (Itbl.mem removed_ids sid) then Itbl.replace replay sid ()
  in
  Itbl.iter (fun sid () -> add sid) woken;
  Itbl.iter
    (fun sid l ->
      if
        (not (Itbl.mem removed_ids sid))
        && List.exists (fun (c, _) -> Itbl.mem affected c) !l
      then add sid)
    t.Solver.stmt_edges;
  Itbl.iter
    (fun sid l ->
      if
        (not (Itbl.mem removed_ids sid))
        && List.exists
             (fun (cs, cd) ->
               Itbl.mem affected cs || Itbl.mem affected cd)
             !l
      then add sid)
    t.Solver.stmt_copies;
  List.iter (fun (s : Nast.stmt) -> add s.Nast.id) d.Progdiff.added;
  let retracted =
    Solver.retract_cells t ~affected ~removed:removed_ids ~invalidated:woken
  in
  Solver.set_program t aligned;
  let r0 = t.Solver.rounds in
  let nreplay = ref 0 in
  (* enqueue in aligned-program order, never hashtable order, so reruns
     of the same edit visit statements identically *)
  List.iter
    (fun (s : Nast.stmt) ->
      if Itbl.mem replay s.Nast.id then begin
        incr nreplay;
        (* dirty: retraction may have cleared cells whose logs this
           statement's cursors indexed — re-read the full sets *)
        Solver.mark_dirty t s;
        Solver.enqueue t s
      end)
    (Nast.all_stmts aligned);
  Solver.resume t;
  (retracted, Itbl.length affected, t.Solver.rounds - r0, !nreplay)

(** The retraction cost guard's pre-closure estimate: the share of all
    attributed constraints (direct edges + copy installs) the removed
    statements derived. When the removed statements account for a large
    slice, the affected closure will cover most of the graph and the
    replay re-derives nearly everything — a scratch solve does the same
    work without first paying for the closure and the clear. *)
let removed_share (t : Solver.t) (d : Progdiff.t) : float * int =
  let total =
    Idtbl.Triple.length t.Solver.edge_stmt_mem
    + Idtbl.Triple.length t.Solver.copy_stmt_mem
  in
  let removed =
    List.fold_left
      (fun acc (s : Nast.stmt) ->
        let len tbl =
          match Itbl.find_opt tbl s.Nast.id with
          | Some l -> List.length !l
          | None -> 0
        in
        acc + len t.Solver.stmt_edges + len t.Solver.stmt_copies)
      0 d.Progdiff.removed
  in
  ((if total = 0 then 0.0 else float_of_int removed /. float_of_int total),
   total)

(* The alignment index of the program the last [reanalyze] left its
   solver on, keyed by that program value's physical identity: the
   next edit of the same session finds it and keys only the edited
   version. Any other solver (another session, or a base left in place
   by a fallback) misses and is keyed afresh. The ephemeron keeps
   neither the program nor its index alive past the session. *)
let last_index : (Nast.program, Progdiff.index) Ephemeron.K1.t option ref =
  ref None

let base_index (prog : Nast.program) : Progdiff.index =
  match Option.bind !last_index (fun e -> Ephemeron.K1.query e prog) with
  | Some ix -> ix
  | None -> Progdiff.index prog

let reanalyze ?(retract_budget = default_retract_budget) ?diags
    (t : Solver.t) (edited : Nast.program) : Solver.t * stats =
  if t.Solver.engine = `Naive then
    invalid_arg
      "Incr.Engine.reanalyze: the naive engine is a scratch-only oracle";
  let ix, d = Progdiff.align ~base:(base_index t.Solver.prog) edited in
  let aligned = Progdiff.program ix in
  (* every path below leaves the returned solver on [aligned] *)
  last_index := Some (Ephemeron.K1.make aligned ix);
  let n_added = List.length d.Progdiff.added in
  let n_removed = List.length d.Progdiff.removed in
  let finish (t' : Solver.t) ~retracted ~affected ~warm ~replayed ~fallback
      ~fallback_planned =
    t'.Solver.incr_stmts_added <- n_added;
    t'.Solver.incr_stmts_removed <- n_removed;
    t'.Solver.incr_facts_retracted <- retracted;
    t'.Solver.incr_warm_visits <- warm;
    t'.Solver.incr_stmts_replayed <- replayed;
    t'.Solver.incr_fallback_planned <- (if fallback_planned then 1 else 0);
    ( t',
      {
        stmts_added = n_added;
        stmts_removed = n_removed;
        facts_retracted = retracted;
        affected_cells = affected;
        warm_visits = warm;
        stmts_replayed = replayed;
        fallback;
        fallback_planned;
      } )
  in
  let all_stmts = List.length (Nast.all_stmts aligned) in
  let fall why =
    let t' = scratch ?diags ~why t aligned in
    finish t' ~retracted:0 ~affected:0 ~warm:t'.Solver.rounds
      ~replayed:all_stmts ~fallback:true ~fallback_planned:false
  in
  (* The planned variant: same scratch solve, but chosen by the cost
     estimate rather than forced by a limitation — a plan, not a
     degradation, so no [degraded-incremental] warning is emitted and
     the choice surfaces as the [incr_fallback_planned] metric. *)
  let planned () =
    let t' =
      Solver.run ~layout:t.Solver.ctx.Actx.layout ~arith:t.Solver.arith_mode
        ~budget:t.Solver.budget.Budget.limits ~engine:t.Solver.engine
        ~track:t.Solver.track ~strategy:t.Solver.base_strategy aligned
    in
    finish t' ~retracted:0 ~affected:0 ~warm:t'.Solver.rounds
      ~replayed:all_stmts ~fallback:true ~fallback_planned:true
  in
  if Budget.degraded t.Solver.budget then
    fall
      "the base fixpoint is budget-degraded (collapses invalidate support \
       tracking)"
  else if n_removed = 0 then begin
    (* additive warm start *)
    Solver.set_program t aligned;
    let r0 = t.Solver.rounds in
    List.iter (Solver.enqueue t) d.Progdiff.added;
    Solver.resume t;
    finish t ~retracted:0 ~affected:0
      ~warm:(t.Solver.rounds - r0)
      ~replayed:n_added ~fallback:false ~fallback_planned:false
  end
  else if not t.Solver.track then
    fall "the edit removes statements but support tracking is off"
  else
    let share, total_attr = removed_share t d in
    if total_attr >= plan_floor && share >= 0.25 then
      (* the removed statements derived a quarter of everything: the
         closure would cover most of the graph, skip computing it *)
      planned ()
    else
      match closure t d ~retract_budget with
      | exception Too_wide ->
          fall
            (Printf.sprintf
               "the retraction cascade exceeded %d affected cells"
               retract_budget)
      | removed_ids, affected, woken ->
          let sources = Graph.source_cell_count t.Solver.graph in
          if sources >= plan_floor && 2 * Itbl.length affected >= sources
          then
            (* replay would clear and re-derive at least half the
               fact-bearing cells — retraction can't beat the scratch
               solve it would effectively perform anyway *)
            planned ()
          else
            let retracted, ncells, warm, replayed =
              execute t aligned d removed_ids affected woken
            in
            finish t ~retracted ~affected:ncells ~warm ~replayed
              ~fallback:false ~fallback_planned:false
