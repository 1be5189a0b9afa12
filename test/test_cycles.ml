(** Online cycle elimination: the union-find and priority-queue
    primitives, {!Core.Idset.union_into}, {!Core.Graph.unify}'s class
    sharing, and solver-level regressions for the subset-cycle shapes
    that historically break lazy cycle detection — a two-cell loop, a
    cross-cell chain cycle, a cycle that closes only after facts already
    flowed around it, growth landing on an already-unified class, and a
    cycle spanning a degradation collapse. Each also audits the copy
    lists ({!Core.Solver.check_copy_lists}). *)

open Cfront
open Core
open Helpers

let var name ty = Cvar.fresh ~name ~ty ~kind:Cvar.Global

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let u = Uf.create ~cap:4 () in
  Alcotest.(check int) "fresh id is its own root" 7 (Uf.find u 7);
  Uf.union u ~into:3 9;
  Alcotest.(check int) "loser resolves to winner" 3 (Uf.find u 9);
  Alcotest.(check bool) "same class" true (Uf.same u 3 9);
  Alcotest.(check bool) "other ids untouched" false (Uf.same u 3 4);
  (* directed: [~into] wins even when unioned through class members *)
  Uf.union u ~into:9 21;
  Alcotest.(check int) "union through member keeps root" 3 (Uf.find u 21);
  (* growth far past the initial capacity *)
  Uf.union u ~into:21 1000;
  Alcotest.(check int) "grown array, same class" 3 (Uf.find u 1000);
  Uf.reset u;
  Alcotest.(check int) "reset dissolves classes" 9 (Uf.find u 9);
  Alcotest.(check int) "reset dissolves grown ids" 1000 (Uf.find u 1000)

let test_pq_ordering () =
  let q = Pq.create () in
  Pq.push q ~prio:5 50;
  Pq.push q ~prio:1 10;
  Pq.push q ~prio:5 40;
  Pq.push q ~prio:3 30;
  (* explicit sequencing — list literals evaluate right-to-left *)
  let p1 = Pq.pop q in
  let p2 = Pq.pop q in
  let p3 = Pq.pop q in
  let p4 = Pq.pop q in
  let popped = [ p1; p2; p3; p4 ] in
  (* priority order, id tie-break inside equal priorities *)
  Alcotest.(check (list int)) "min-heap order" [ 10; 30; 40; 50 ] popped;
  Alcotest.(check bool) "drained" true (Pq.is_empty q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pq.pop: empty")
    (fun () -> ignore (Pq.pop q))

(* ------------------------------------------------------------------ *)
(* Idset.union_into                                                    *)
(* ------------------------------------------------------------------ *)

let test_union_into_matches_elementwise () =
  (* deterministic pseudo-random sequences; no shared state *)
  let lcg seed =
    let s = ref seed in
    fun bound ->
      s := (!s * 1103515245) + 12345;
      abs !s mod bound
  in
  for case = 1 to 20 do
    let rnd = lcg (case * 7919) in
    let dst = Idset.create () and src = Idset.create () in
    let oracle = Idset.create () in
    for _ = 1 to rnd 30 do
      let x = rnd 50 in
      ignore (Idset.add dst x);
      ignore (Idset.add oracle x)
    done;
    for _ = 1 to rnd 30 do
      ignore (Idset.add src (rnd 50))
    done;
    let before = Idset.cardinal dst in
    let prefix = List.init before (Idset.get_ord dst) in
    let added = Idset.union_into dst src in
    (* element-wise oracle merge *)
    let expect_added = ref 0 in
    Idset.iter
      (fun x -> if Idset.add oracle x then incr expect_added)
      src;
    Alcotest.(check int)
      (Printf.sprintf "case %d: added count" case)
      !expect_added added;
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: same members" case)
      (Idset.elements oracle) (Idset.elements dst);
    (* cursor validity: the pre-merge insertion-order prefix is intact *)
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: ord prefix preserved" case)
      prefix
      (List.init before (Idset.get_ord dst));
    (* appended members arrive in src insertion order *)
    let tail =
      List.init added (fun i -> Idset.get_ord dst (before + i))
    in
    let src_fresh =
      List.filter
        (fun x -> not (List.mem x prefix))
        (List.init (Idset.cardinal src) (Idset.get_ord src))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: tail in src order" case)
      src_fresh tail
  done;
  (* self-union and empty-source are no-ops *)
  let s = Idset.create () in
  ignore (Idset.add s 1);
  Alcotest.(check int) "self union adds nothing" 0 (Idset.union_into s s);
  Alcotest.(check int) "empty src adds nothing" 0
    (Idset.union_into s (Idset.create ()))

(* The same oracle as a property over set shapes the solver produces:
   overlapping, disjoint, equal, empty on either side, and one side a
   subset of the other. [dst] is created with a random capacity so the
   merge runs both in place and into fresh arrays. *)
let union_into_shapes =
  let open QCheck2.Gen in
  let ids = list_size (int_range 0 40) (int_range 0 99) in
  let shape = int_range 0 6 in
  let* d = ids and* s = ids and* k = shape and* cap = int_range 1 64 in
  let d, s =
    match k with
    | 0 -> (d, s) (* overlapping at random *)
    | 1 -> (d, List.map (fun x -> x + 100) s) (* disjoint *)
    | 2 -> (d, List.rev d) (* equal, other insertion order *)
    | 3 -> (d, []) (* empty src *)
    | 4 -> ([], s) (* empty dst *)
    | 5 -> (d, List.filteri (fun i _ -> i mod 2 = 0) d) (* src within dst *)
    | _ -> (d, s @ d) (* dst within src *)
  in
  return (d, s, cap)

let union_into_property =
  QCheck2.Test.make ~name:"Idset.union_into agrees with element-wise add"
    ~count:500
    ~print:(fun (d, s, cap) ->
      Printf.sprintf "dst=[%s] src=[%s] cap=%d"
        (String.concat ";" (List.map string_of_int d))
        (String.concat ";" (List.map string_of_int s))
        cap)
    union_into_shapes
    (fun (d, s, cap) ->
      let dst = Idset.create ~cap () and src = Idset.create () in
      let oracle = Idset.create () in
      List.iter (fun x -> ignore (Idset.add dst x); ignore (Idset.add oracle x)) d;
      List.iter (fun x -> ignore (Idset.add src x)) s;
      let before = Idset.cardinal dst in
      let prefix = List.init before (Idset.get_ord dst) in
      let src_ord = List.init (Idset.cardinal src) (Idset.get_ord src) in
      let added = Idset.union_into dst src in
      let fresh = List.filter (fun x -> not (List.mem x prefix)) src_ord in
      List.iter (fun x -> ignore (Idset.add oracle x)) src_ord;
      let members = Idset.elements dst in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      added = List.length fresh
      && Idset.cardinal dst = before + added
      && strictly_increasing members
      && members = Idset.elements oracle
      && List.init before (Idset.get_ord dst) = prefix
      && List.init added (fun i -> Idset.get_ord dst (before + i)) = fresh
      && List.for_all (Idset.mem dst) (d @ s)
      && not (List.exists (Idset.mem dst) [ -1; 200; 250 ])
      && List.init (Idset.cardinal src) (Idset.get_ord src) = src_ord)

(* ------------------------------------------------------------------ *)
(* Graph.unify class sharing                                           *)
(* ------------------------------------------------------------------ *)

let test_graph_unify_shares_sets () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let x = var "x" Ctype.int_t and y = var "y" Ctype.int_t in
  let ca = Cell.whole a and cb = Cell.whole b in
  ignore (Graph.add_edge g ca (Cell.whole x));
  ignore (Graph.add_edge g ca (Cell.whole y));
  ignore (Graph.add_edge g cb (Cell.whole x));
  let rep, lost, newly = Graph.unify g ca cb in
  Alcotest.(check bool) "larger set wins" true (Cell.equal rep ca);
  Alcotest.(check bool) "the loser's members are b" true
    (List.equal Cell.equal lost [ cb ]);
  Alcotest.(check int) "no cell newly fact-bearing" 0 (List.length newly);
  Alcotest.(check bool) "same class" true
    (Cell.equal (Graph.canon g cb) rep);
  (* member-expanded views: both members hold the union *)
  Alcotest.(check int) "a sees both" 2 (Cell.Set.cardinal (Graph.pts g ca));
  Alcotest.(check int) "b sees both" 2 (Cell.Set.cardinal (Graph.pts g cb));
  Alcotest.(check int) "edge_count is member-expanded" 4 (Graph.edge_count g);
  Alcotest.(check int) "both cells still sources" 2
    (Graph.source_cell_count g);
  Alcotest.(check (option string)) "audit clean" None (Graph.check_counts g);
  (* adding through either member lands in the shared set *)
  let z = var "z" Ctype.int_t in
  Alcotest.(check bool) "add via loser member" true
    (Graph.add_edge g cb (Cell.whole z));
  Alcotest.(check int) "a sees the add" 3 (Cell.Set.cardinal (Graph.pts g ca));
  Alcotest.(check (option string)) "audit clean after add" None
    (Graph.check_counts g);
  (* unshare gives every member its own copy back *)
  Graph.unshare g;
  Alcotest.(check bool) "classes dissolved" true
    (Cell.equal (Graph.canon g cb) cb);
  Alcotest.(check int) "b keeps its facts" 3
    (Cell.Set.cardinal (Graph.pts g cb));
  ignore (Graph.add_edge g ca (Cell.whole ca.Cell.base));
  Alcotest.(check int) "post-unshare adds are private" 3
    (Cell.Set.cardinal (Graph.pts g cb));
  Alcotest.(check (option string)) "audit clean after unshare" None
    (Graph.check_counts g)

let test_graph_unify_fact_free_side () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let x = var "x" Ctype.int_t in
  let ca = Cell.whole a and cb = Cell.whole b in
  ignore (Graph.add_edge g ca (Cell.whole x));
  let rep, _, newly = Graph.unify g ca cb in
  Alcotest.(check bool) "fact-bearing side wins" true (Cell.equal rep ca);
  Alcotest.(check int) "the fact-free cell became a source" 1
    (List.length newly);
  Alcotest.(check bool) "newly is the loser" true
    (Cell.equal (List.hd newly) cb);
  Alcotest.(check int) "b sees a's fact" 1 (Cell.Set.cardinal (Graph.pts g cb));
  Alcotest.(check int) "member-expanded sources" 2 (Graph.source_cell_count g);
  Alcotest.(check (option string)) "audit clean" None (Graph.check_counts g);
  (* unifying two fact-free cells: class exists, no set *)
  let c = var "c" Ctype.int_t and d = var "d" Ctype.int_t in
  let rep2, _, newly2 = Graph.unify g (Cell.whole c) (Cell.whole d) in
  Alcotest.(check int) "no facts, nothing newly bearing" 0
    (List.length newly2);
  Alcotest.(check bool) "still same class" true
    (Cell.equal (Graph.canon g (Cell.whole d)) rep2);
  Alcotest.(check (option string)) "audit clean with fact-free class" None
    (Graph.check_counts g)

(* ------------------------------------------------------------------ *)
(* Solver-level cycle regressions                                      *)
(* ------------------------------------------------------------------ *)

let solver_of (r : Analysis.result) = r.Analysis.solver

let run_engine ?budget ~id ~engine src =
  Analysis.run_source ?budget ~engine ~strategy:(strategy id) ~file:"<cycles>"
    src

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]

let check_audits id (r : Analysis.result) =
  match audit (solver_of r) with
  | Some msg -> Alcotest.failf "%s: %s" id msg
  | None -> ()

(* Every cycle test checks, per instance: the delta fixpoint matches
   naive, the graph and copy-list audits pass, and — where asserted —
   the cycle was actually found (the regression would silently pass
   otherwise).
   Engines must share one compiled program: compiling twice mints fresh
   variables, which no graph comparison can relate. *)
let check_cycle_program ?(min_cycles = 1) ~src ~bases_of ~expect () =
  let prog = compile src in
  List.iter
    (fun id ->
      let d = Analysis.run ~engine:`Delta ~strategy:(strategy id) prog in
      let n = Analysis.run ~engine:`Naive ~strategy:(strategy id) prog in
      if
        not
          (Graph.equal (solver_of d).Solver.graph (solver_of n).Solver.graph)
      then Alcotest.failf "%s: delta fixpoint differs from naive" id;
      check_audits id d;
      if (solver_of d).Solver.cycles_found < min_cycles then
        Alcotest.failf "%s: expected >= %d cycles, found %d" id min_cycles
          (solver_of d).Solver.cycles_found;
      List.iter
        (fun v ->
          Alcotest.(check (slist string compare))
            (Printf.sprintf "%s: %s targets" id v)
            expect (target_bases d v))
        bases_of)
    all_ids

(* The minimal subset cycle: a ⊆ b and b ⊆ a. The second drain moves
   facts but adds none onto an equal set — the LCD trigger. *)
let test_two_cell_cycle () =
  check_cycle_program
    ~src:
      {|
        void *a, *b;
        int x;
        void main(void) {
          a = (void *)&x;
          b = a;
          a = b;
        }
      |}
    ~bases_of:[ "a"; "b" ] ~expect:[ "x" ] ()

(* A three-cell loop: the DFS must walk transitively, not just check the
   direct back edge. *)
let test_chain_cycle () =
  check_cycle_program
    ~src:
      {|
        void *a, *b, *c;
        int x;
        void main(void) {
          a = (void *)&x;
          b = a;
          c = b;
          a = c;
        }
      |}
    ~bases_of:[ "a"; "b"; "c" ] ~expect:[ "x" ] ()

(* The cycle closes only after facts already flowed down the chain: the
   unification must fold non-empty, already-drained sets (and translate
   or reset the cursors into them) without losing or duplicating
   facts. New facts landing after the collapse must reach every member
   through the now-shared set. *)
let test_cycle_after_facts_then_growth () =
  check_cycle_program
    ~src:
      {|
        void *a, *b, *c;
        int x, y;
        void main(void) {
          a = (void *)&x;
          b = a;
          c = b;
          a = c;
          b = (void *)&y;
        }
      |}
    ~bases_of:[ "a"; "b"; "c" ] ~expect:[ "x"; "y" ] ()

(* Two disjoint cycles bridged by a one-way edge: members must unify
   within each loop but the bridge must NOT fold the downstream loop
   into the upstream one (subset, not equality, across the bridge —
   checked by y staying out of the upstream sets). *)
let test_bridged_cycles () =
  let prog =
    compile
      {|
        void *a, *b, *c, *d;
        int x, y;
        void main(void) {
          a = (void *)&x;
          b = a;
          a = b;
          c = b;
          d = c;
          c = d;
          d = (void *)&y;
        }
      |}
  in
  List.iter
    (fun id ->
      let d = Analysis.run ~engine:`Delta ~strategy:(strategy id) prog in
      let n = Analysis.run ~engine:`Naive ~strategy:(strategy id) prog in
      if
        not
          (Graph.equal (solver_of d).Solver.graph (solver_of n).Solver.graph)
      then Alcotest.failf "%s: delta fixpoint differs from naive" id;
      check_audits id d;
      Alcotest.(check (slist string compare))
        (id ^ ": upstream stays precise")
        [ "x" ] (target_bases d "a");
      Alcotest.(check (slist string compare))
        (id ^ ": downstream sees both")
        [ "x"; "y" ] (target_bases d "c"))
    all_ids

(* A cycle collapsed before a budget degradation: the collapse resets
   the union-find ([Graph.unshare]) and rebuilds constraints over the
   coarser cells; the audit and the re-found fixpoint must survive the
   transition. *)
let test_cycle_spanning_degradation () =
  let src =
    {|
      struct S { int *f; int *g; } s;
      int x, y;
      int *p, *q;
      void main(void) {
        s.f = &x;
        s.g = &y;
        p = s.f;
        q = p;
        p = q;
      }
    |}
  in
  let budget =
    { Budget.unlimited with Budget.max_cells_per_object = Some 1 }
  in
  List.iter
    (fun id ->
      let d = run_engine ~budget ~id ~engine:`Delta src in
      check_audits id d;
      (* soundness across the collapse: p's targets keep covering x *)
      let bases = target_bases d "p" in
      if not (List.mem "x" bases) then
        Alcotest.failf "%s: p lost &x across the collapse (got %s)" id
          (String.concat "," bases))
    all_ids;
  (* the offsets instance actually degrades under this budget (struct s
     spreads facts over two cells), so the span is exercised *)
  let d = run_engine ~budget ~id:"offsets" ~engine:`Delta src in
  Alcotest.(check bool) "offsets run degraded" true
    (Solver.degraded (solver_of d))

(* A class grown one cell at a time: each merge appends the newcomer
   to the class's member chain in O(1), so member order is merge order
   and allocation stays linear in the class size (copying the member
   list on every merge allocated quadratically). *)
let test_graph_unify_grows_linearly () =
  let n = 2000 in
  let g = Graph.create () in
  let cells =
    Array.init n (fun i -> Cell.whole (var (Printf.sprintf "u%d" i) Ctype.int_t))
  in
  let x = var "x" Ctype.int_t in
  (* the first cell's facts make it the winner of every merge *)
  ignore (Graph.add_edge g cells.(0) (Cell.whole x));
  let before = Gc.minor_words () in
  for i = 1 to n - 1 do
    let rep, lost, newly = Graph.unify g cells.(0) cells.(i) in
    if not (Cell.equal rep cells.(0)) then
      Alcotest.failf "merge %d: the fact-bearing class lost" i;
    if not (List.equal Cell.equal lost [ cells.(i) ]) then
      Alcotest.failf "merge %d: the loser's members are not [u%d]" i i;
    if not (List.equal Cell.equal newly [ cells.(i) ]) then
      Alcotest.failf "merge %d: u%d did not become fact-bearing" i i
  done;
  let words = Gc.minor_words () -. before in
  (* a few hundred words per merge (chain link, table growth, the
     per-object index); the quadratic copy needed about 6M in all *)
  if words > 400. *. float_of_int n then
    Alcotest.failf "%.0f minor words for %d merges: not linear" words n;
  let rid = Cell.id cells.(0) in
  Alcotest.(check int) "class size" n (Graph.class_size_of_rid g rid);
  Alcotest.(check bool) "members in merge order" true
    (List.equal Cell.equal
       (Graph.class_members g cells.(n - 1))
       (Array.to_list cells));
  Alcotest.(check int) "member-expanded edges" n (Graph.edge_count g);
  Alcotest.(check (option string)) "audit clean" None (Graph.check_counts g);
  (* a second class grown the same way, then merged in whole: its
     members follow the first class's, in their own order *)
  let others =
    Array.init 3 (fun i -> Cell.whole (var (Printf.sprintf "o%d" i) Ctype.int_t))
  in
  ignore (Graph.unify g others.(0) others.(1));
  ignore (Graph.unify g others.(0) others.(2));
  let _, lost, _ = Graph.unify g cells.(0) others.(2) in
  Alcotest.(check bool) "the loser's members, in class order" true
    (List.equal Cell.equal lost (Array.to_list others));
  Alcotest.(check bool) "merged order: winner's, then loser's" true
    (List.equal Cell.equal
       (Graph.class_members g others.(1))
       (Array.to_list cells @ Array.to_list others));
  Alcotest.(check (option string)) "audit clean after a class merge" None
    (Graph.check_counts g);
  (* retraction dissolves the class and leaves no link behind *)
  ignore (Graph.retract_class g cells.(7));
  Alcotest.(check int) "dissolved" 1 (Graph.class_size_of_rid g rid);
  Alcotest.(check (option string)) "audit clean after retraction" None
    (Graph.check_counts g)

let suite =
  [
    tc "union-find: union/find/same/reset" test_uf_basic;
    tc "priority queue: ordering and tie-break" test_pq_ordering;
    tc "Idset.union_into matches element-wise adds"
      test_union_into_matches_elementwise;
    QCheck_alcotest.to_alcotest union_into_property;
    tc "Graph.unify shares one set per class" test_graph_unify_shares_sets;
    tc "Graph.unify with a fact-free side" test_graph_unify_fact_free_side;
    tc "two-cell subset cycle unifies" test_two_cell_cycle;
    tc "three-cell chain cycle unifies" test_chain_cycle;
    tc "cycle closing after facts flowed, then growth"
      test_cycle_after_facts_then_growth;
    tc "bridged cycles stay separate classes" test_bridged_cycles;
    tc "cycle spanning a degradation collapse" test_cycle_spanning_degradation;
    tc "Graph.unify grows a 2000-cell class linearly"
      test_graph_unify_grows_linearly;
  ]
