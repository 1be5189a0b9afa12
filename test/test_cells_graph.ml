(** Unit tests for cells and the points-to graph. *)

open Cfront
open Core

let var name ty = Cvar.fresh ~name ~ty ~kind:Cvar.Global

let test_cell_ordering () =
  let a = var "a" Ctype.int_t in
  let b = var "b" Ctype.int_t in
  let ca0 = Cell.v a (Cell.Off 0) in
  let ca4 = Cell.v a (Cell.Off 4) in
  let cb0 = Cell.v b (Cell.Off 0) in
  Alcotest.(check bool) "same cell equal" true (Cell.equal ca0 ca0);
  Alcotest.(check bool) "different offsets" false (Cell.equal ca0 ca4);
  Alcotest.(check bool) "ordering by var then sel" true (Cell.compare ca0 ca4 < 0);
  Alcotest.(check bool) "ordering across vars" true (Cell.compare ca4 cb0 < 0);
  (* paths and offsets never collide *)
  let cp = Cell.v a (Cell.Path []) in
  Alcotest.(check bool) "path vs off" false (Cell.equal cp ca0)

let test_cell_pp () =
  let s = var "s" Ctype.int_t in
  Alcotest.(check string) "whole" "s" (Cell.to_string (Cell.whole s));
  Alcotest.(check string) "path" "s.f.g"
    (Cell.to_string (Cell.v s (Cell.Path [ "f"; "g" ])));
  Alcotest.(check string) "offset" "s@8"
    (Cell.to_string (Cell.v s (Cell.Off 8)))

let test_graph_add_edges () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let ca = Cell.whole a and cb = Cell.whole b in
  Alcotest.(check bool) "new edge" true (Graph.add_edge g ca cb);
  Alcotest.(check bool) "duplicate edge" false (Graph.add_edge g ca cb);
  Alcotest.(check int) "edge count" 1 (Graph.edge_count g);
  Alcotest.(check int) "pts size" 1 (Cell.Set.cardinal (Graph.pts g ca));
  Alcotest.(check int) "no facts" 0 (Cell.Set.cardinal (Graph.pts g cb))

let test_graph_obj_index () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let c0 = Cell.v a (Cell.Off 0) and c4 = Cell.v a (Cell.Off 4) in
  ignore (Graph.add_edge g c0 (Cell.whole b));
  ignore (Graph.add_edge g c4 (Cell.whole b));
  let cells = Graph.cells_of_obj g a in
  Alcotest.(check int) "both cells indexed" 2 (List.length cells);
  Alcotest.(check int) "b has no sources" 0 (List.length (Graph.cells_of_obj g b))

let test_graph_iteration () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  ignore (Graph.add_edge g (Cell.whole a) (Cell.whole b));
  ignore (Graph.add_edge g (Cell.whole b) (Cell.whole a));
  let n = ref 0 in
  Graph.iter_edges g (fun _ _ -> incr n);
  Alcotest.(check int) "iterated all" 2 !n;
  let folded =
    Graph.fold_sources g (fun _ set acc -> acc + Cell.Set.cardinal set) 0
  in
  Alcotest.(check int) "folded all" 2 folded

(* Regression: removing an object's last fact-bearing cell must drop the
   per-object index entry entirely — a lingering empty entry made
   [fold_objects] visit (and degradation re-collapse) fact-free objects. *)
let test_remove_source_empties_index () =
  let g = Graph.create () in
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let a0 = Cell.v a (Cell.Off 0) and a4 = Cell.v a (Cell.Off 4) in
  ignore (Graph.add_edge g a0 (Cell.whole b));
  ignore (Graph.add_edge g a4 (Cell.whole b));
  Graph.remove_source g a0;
  Alcotest.(check int) "one cell left" 1 (Graph.cell_count_of_obj g a);
  Alcotest.(check (option string)) "consistent after partial removal" None
    (Graph.check_counts g);
  Graph.remove_source g a4;
  Alcotest.(check int) "no cells left" 0 (Graph.cell_count_of_obj g a);
  Alcotest.(check (list string)) "no indexed cells" []
    (List.map Cell.to_string (Graph.cells_of_obj g a));
  let visited = Graph.fold_objects g (fun _ _ acc -> acc + 1) 0 in
  Alcotest.(check int) "fold_objects skips the emptied object" 0 visited;
  Alcotest.(check int) "edge count back to zero" 0 (Graph.edge_count g);
  Alcotest.(check (option string)) "consistent after full removal" None
    (Graph.check_counts g);
  (* removal is idempotent, and the object can gain facts again *)
  Graph.remove_source g a0;
  ignore (Graph.add_edge g a0 (Cell.whole b));
  Alcotest.(check int) "re-added" 1 (Graph.cell_count_of_obj g a);
  Alcotest.(check (option string)) "consistent after re-add" None
    (Graph.check_counts g)

(* The edge-count audit: the counter must track the summed set sizes
   through interleaved adds and removes. *)
let test_edge_count_audit () =
  let g = Graph.create () in
  let vars = List.init 6 (fun i -> var (Printf.sprintf "v%d" i) Ctype.int_t) in
  let cell i off = Cell.v (List.nth vars i) (Cell.Off off) in
  List.iter
    (fun (i, off, j) -> ignore (Graph.add_edge g (cell i off) (cell j 0)))
    [
      (0, 0, 1); (0, 0, 2); (0, 4, 3); (1, 0, 2); (2, 0, 0);
      (2, 8, 4); (3, 0, 5); (0, 0, 1) (* duplicate *);
    ];
  let summed = Graph.fold_sources g (fun _ s acc -> acc + Cell.Set.cardinal s) 0 in
  Alcotest.(check int) "counter equals summed cardinals" summed
    (Graph.edge_count g);
  Alcotest.(check (option string)) "audit clean" None (Graph.check_counts g);
  Graph.remove_source g (cell 0 0);
  Graph.remove_source g (cell 2 8);
  let summed = Graph.fold_sources g (fun _ s acc -> acc + Cell.Set.cardinal s) 0 in
  Alcotest.(check int) "counter tracks removals" summed (Graph.edge_count g);
  Alcotest.(check (option string)) "audit clean after removals" None
    (Graph.check_counts g)

let test_graph_equal () =
  let a = var "a" Ctype.int_t and b = var "b" Ctype.int_t in
  let g1 = Graph.create () and g2 = Graph.create () in
  (* same edge set, different insertion order *)
  ignore (Graph.add_edge g1 (Cell.whole a) (Cell.whole b));
  ignore (Graph.add_edge g1 (Cell.whole b) (Cell.whole a));
  ignore (Graph.add_edge g2 (Cell.whole b) (Cell.whole a));
  ignore (Graph.add_edge g2 (Cell.whole a) (Cell.whole b));
  Alcotest.(check bool) "order-independent equality" true (Graph.equal g1 g2);
  ignore (Graph.add_edge g2 (Cell.whole b) (Cell.whole b));
  Alcotest.(check bool) "extra edge detected" false (Graph.equal g1 g2)

let test_cell_interning () =
  let a = var "a" Ctype.int_t in
  let c1 = Cell.v a (Cell.Off 8) in
  let c2 = Cell.v a (Cell.Off 8) in
  Alcotest.(check bool) "interned: physically equal" true (c1 == c2);
  Alcotest.(check int) "id round-trips" (Cell.id c1)
    (Cell.id (Cell.of_id (Cell.id c1)));
  Alcotest.(check bool) "of_id returns the same cell" true
    (Cell.of_id (Cell.id c1) == c1);
  Alcotest.(check bool) "ids are dense and bounded" true
    (Cell.id c1 < Cell.interned_count ())

let test_cell_type () =
  let c = Ctype.fresh_comp ~tag:"T" ~is_union:false in
  c.Ctype.cfields <-
    Some [ { Ctype.fname = "f"; fty = Ctype.Ptr Ctype.int_t; fbits = None } ];
  let v = var "v" (Ctype.Comp c) in
  Alcotest.(check string) "typed path" "int*"
    (Ctype.to_string (Cell.cell_type (Cell.v v (Cell.Path [ "f" ]))));
  Alcotest.(check string) "bad path is void" "void"
    (Ctype.to_string (Cell.cell_type (Cell.v v (Cell.Path [ "nope" ]))))

(* [Cell.compare_sel] is typed, but cells were always sorted by
   polymorphic [compare] on selectors: pair order, and with it solver
   statistics and report bytes, depends on the two agreeing. *)
let test_compare_sel_golden () =
  let sels =
    [
      Cell.Path [];
      Cell.Path [ "a" ];
      Cell.Path [ "b" ];
      Cell.Path [ "a"; "b" ];
      Cell.Path [ "a"; "a" ];
      Cell.Path [ "a"; "b"; "c" ];
      Cell.Path [ "ab" ];
      Cell.Path [ "B" ];
      Cell.Path [ "f10" ];
      Cell.Path [ "f2" ];
      Cell.Path [ "f2"; "" ];
      Cell.Path [ "" ];
      Cell.Off 0;
      Cell.Off 4;
      Cell.Off (-1);
      Cell.Off max_int;
    ]
  in
  let sign n = compare n 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let want = sign (Stdlib.compare a b) in
          let got = sign (Cell.compare_sel a b) in
          if want <> got then
            Alcotest.failf "compare_sel disagrees: want %d, got %d" want got)
        sels)
    sels;
  (* the golden order itself, so a drift in both would still show *)
  let show = function
    | Cell.Path p ->
        "[" ^ String.concat "," (List.map (Printf.sprintf "%S") p) ^ "]"
    | Cell.Off n -> string_of_int n
  in
  Alcotest.(check (list string))
    "sorted"
    [
      {|[]|}; {|[""]|}; {|["B"]|}; {|["a"]|}; {|["a","a"]|}; {|["a","b"]|};
      {|["a","b","c"]|}; {|["ab"]|}; {|["b"]|}; {|["f10"]|}; {|["f2"]|};
      {|["f2",""]|}; "-1"; "0"; "4"; string_of_int max_int;
    ]
    (List.map show (List.sort Cell.compare_sel sels))

let suite =
  [
    Helpers.tc "cell ordering and equality" test_cell_ordering;
    Helpers.tc "cell printing" test_cell_pp;
    Helpers.tc "graph edge insertion" test_graph_add_edges;
    Helpers.tc "graph per-object index" test_graph_obj_index;
    Helpers.tc "graph iteration" test_graph_iteration;
    Helpers.tc "remove_source drops emptied object index"
      test_remove_source_empties_index;
    Helpers.tc "edge_count audit" test_edge_count_audit;
    Helpers.tc "graph equality" test_graph_equal;
    Helpers.tc "cell interning" test_cell_interning;
    Helpers.tc "cell types" test_cell_type;
    Helpers.tc "selector order matches polymorphic compare"
      test_compare_sel_golden;
  ]
