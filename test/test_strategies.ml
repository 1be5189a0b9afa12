(** Direct unit tests of the strategy functions — [normalize], [lookup],
    [resolve], [all_cells] — called in isolation, without the solver. *)

open Cfront
open Core

let ctx = Actx.create ()

let comp ?(union = false) tag fields =
  let c = Ctype.fresh_comp ~tag ~is_union:union in
  c.Ctype.cfields <-
    Some
      (List.map
         (fun (fname, fty) -> { Ctype.fname; fty; fbits = None })
         fields);
  Ctype.Comp c

(* struct S { int *s1; int s2; char *s3; }  /  struct T { int *t1; int *t2; char *t3; } *)
let s_ty =
  comp "S"
    [ ("s1", Ctype.Ptr Ctype.int_t); ("s2", Ctype.int_t);
      ("s3", Ctype.Ptr Ctype.char_t) ]

let t_ty =
  comp "T"
    [ ("t1", Ctype.Ptr Ctype.int_t); ("t2", Ctype.Ptr Ctype.int_t);
      ("t3", Ctype.Ptr Ctype.char_t) ]

let t_var = Cvar.fresh ~name:"t" ~ty:t_ty ~kind:Cvar.Global

let s_var = Cvar.fresh ~name:"s" ~ty:s_ty ~kind:Cvar.Global

let cells_to_strings = List.map Cell.to_string

let sorted = List.sort compare

(* -------------------- normalize -------------------- *)

let test_normalize () =
  (* path strategies descend into the innermost first field *)
  let n_cis = Common_init_seq.normalize ctx t_var [] in
  Alcotest.(check string) "cis whole object" "t.t1" (Cell.to_string n_cis);
  let n_coc = Collapse_on_cast.normalize ctx t_var [ "t2" ] in
  Alcotest.(check string) "coc field" "t.t2" (Cell.to_string n_coc);
  (* collapse-always ignores the path *)
  let n_ca = Collapse_always.normalize ctx t_var [ "t2" ] in
  Alcotest.(check string) "ca collapses" "t" (Cell.to_string n_ca);
  (* offsets maps to byte offsets *)
  let n_off = Offsets.normalize ctx t_var [ "t2" ] in
  Alcotest.(check string) "offset" "t@4" (Cell.to_string n_off)

let test_normalize_nested_first () =
  let inner = comp "I" [ ("a", Ctype.int_t) ] in
  let outer = comp "O" [ ("i", inner); ("z", Ctype.int_t) ] in
  let v = Cvar.fresh ~name:"o" ~ty:outer ~kind:Cvar.Global in
  Alcotest.(check string) "recursive descent" "o.i.a"
    (Cell.to_string (Common_init_seq.normalize ctx v []))

(* -------------------- lookup -------------------- *)

let test_lookup_matched_type () =
  (* dereferencing at the correct type is exact in every instance *)
  let target = Common_init_seq.normalize ctx t_var [] in
  let got = Common_init_seq.lookup ctx t_ty [ "t2" ] target in
  Alcotest.(check (list string)) "cis exact" [ "t.t2" ] (cells_to_strings got);
  let got = Collapse_on_cast.lookup ctx t_ty [ "t2" ] target in
  Alcotest.(check (list string)) "coc exact" [ "t.t2" ] (cells_to_strings got)

let test_lookup_mismatch () =
  let target = Common_init_seq.normalize ctx t_var [] in
  (* S's s1/t1 and s2/t2… CIS(S,T) = {(s1,t1)} since int vs int* breaks;
     looking up s3 therefore collapses to everything after t1 *)
  let got = Common_init_seq.lookup ctx s_ty [ "s3" ] target in
  Alcotest.(check (list string)) "cis conservative" [ "t.t2"; "t.t3" ]
    (sorted (cells_to_strings got));
  (* collapse-on-cast has no CIS refinement: everything from t1 on *)
  let got = Collapse_on_cast.lookup ctx s_ty [ "s3" ] target in
  Alcotest.(check (list string)) "coc conservative"
    [ "t.t1"; "t.t2"; "t.t3" ]
    (sorted (cells_to_strings got));
  (* offsets: exact byte computation, offsetof(S,s3)=8 = t3's offset *)
  let got = Offsets.lookup ctx s_ty [ "s3" ] (Offsets.normalize ctx t_var []) in
  Alcotest.(check (list string)) "offsets exact" [ "t@8" ]
    (cells_to_strings got)

let test_lookup_cis_pair () =
  (* s1 is inside the common initial sequence: exact correspondence *)
  let target = Common_init_seq.normalize ctx t_var [] in
  let got = Common_init_seq.lookup ctx s_ty [ "s1" ] target in
  Alcotest.(check (list string)) "cis pair" [ "t.t1" ] (cells_to_strings got)

(* -------------------- resolve -------------------- *)

let test_resolve_same_type () =
  let g = Graph.create () in
  let dst = Common_init_seq.normalize ctx s_var [] in
  let src =
    let s2 = Cvar.fresh ~name:"s2" ~ty:s_ty ~kind:Cvar.Global in
    Common_init_seq.normalize ctx s2 []
  in
  let pairs = Common_init_seq.resolve ctx g dst src s_ty in
  (* field-for-field: three pairs *)
  Alcotest.(check int) "three pairs" 3 (List.length pairs);
  List.iter
    (fun ((d : Cell.t), (s : Cell.t)) ->
      match (d.Cell.sel, s.Cell.sel) with
      | Cell.Path pd, Cell.Path ps ->
          Alcotest.(check (list string)) "same field" pd ps
      | _ -> Alcotest.fail "unexpected selector")
    pairs

let test_resolve_mismatch_cross_product () =
  let g = Graph.create () in
  let dst = Collapse_on_cast.normalize ctx s_var [] in
  let src = Collapse_on_cast.normalize ctx t_var [] in
  (* copying T bytes over S at type S: on-cast collapses both sides *)
  let pairs = Collapse_on_cast.resolve ctx g dst src s_ty in
  Alcotest.(check bool) "cross product is large" true (List.length pairs >= 9)

let test_resolve_offsets_uses_graph () =
  let g = Graph.create () in
  let x = Cvar.fresh ~name:"x" ~ty:Ctype.int_t ~kind:Cvar.Global in
  (* only source offsets carrying facts are paired *)
  ignore (Graph.add_edge g (Cell.v t_var (Cell.Off 4)) (Cell.v x (Cell.Off 0)));
  let dst = Offsets.normalize ctx s_var [] in
  let src = Offsets.normalize ctx t_var [] in
  let pairs = Offsets.resolve ctx g dst src s_ty in
  match pairs with
  | [ (d, s) ] ->
      Alcotest.(check string) "dst offset follows" "s@4" (Cell.to_string d);
      Alcotest.(check string) "src cell" "t@4" (Cell.to_string s)
  | _ -> Alcotest.failf "expected one pair, got %d" (List.length pairs)

let test_resolve_respects_copy_size () =
  let g = Graph.create () in
  let x = Cvar.fresh ~name:"x" ~ty:Ctype.int_t ~kind:Cvar.Global in
  (* a fact beyond sizeof(small) must not transfer *)
  ignore (Graph.add_edge g (Cell.v t_var (Cell.Off 8)) (Cell.v x (Cell.Off 0)));
  let small = comp "Small" [ ("only", Ctype.Ptr Ctype.int_t) ] in
  let pairs =
    Offsets.resolve ctx g (Offsets.normalize ctx s_var [])
      (Offsets.normalize ctx t_var [])
      small
  in
  Alcotest.(check int) "nothing in range" 0 (List.length pairs)

(* -------------------- all_cells -------------------- *)

let test_all_cells () =
  Alcotest.(check (list string)) "cis cells" [ "t.t1"; "t.t2"; "t.t3" ]
    (sorted (cells_to_strings (Common_init_seq.all_cells ctx t_var)));
  Alcotest.(check (list string)) "ca cells" [ "t" ]
    (cells_to_strings (Collapse_always.all_cells ctx t_var));
  Alcotest.(check (list string)) "offset cells" [ "t@0"; "t@4"; "t@8" ]
    (sorted (cells_to_strings (Offsets.all_cells ctx t_var)))

(* -------------------- instrumentation -------------------- *)

let test_counters () =
  let c = Actx.create () in
  let target = Common_init_seq.normalize c t_var [] in
  ignore (Common_init_seq.lookup c t_ty [ "t2" ] target);
  ignore (Common_init_seq.lookup c s_ty [ "s3" ] target);
  Alcotest.(check int) "lookup calls" 2 c.Actx.lookup_calls;
  Alcotest.(check int) "struct involving" 2 c.Actx.lookup_struct;
  Alcotest.(check int) "one mismatch" 1 c.Actx.lookup_mismatch;
  (* lookups made inside resolve are not counted (footnote 7) *)
  let g = Graph.create () in
  ignore (Common_init_seq.resolve c g target target t_ty);
  Alcotest.(check int) "lookup count unchanged" 2 c.Actx.lookup_calls;
  Alcotest.(check int) "resolve counted" 1 c.Actx.resolve_calls

(* -------------------- the strategy memo -------------------- *)

(* Collapse-on-Cast and CIS answer the same (τ, α, target) differently;
   one context shared by both, with the calls interleaved, must give each
   instance its own answer. *)
let test_memo_per_instance () =
  let shared = Actx.create () in
  let target = Common_init_seq.normalize shared t_var [] in
  let fresh_cis = Common_init_seq.lookup (Actx.create ()) s_ty [ "s1" ] target in
  let fresh_coc = Collapse_on_cast.lookup (Actx.create ()) s_ty [ "s1" ] target in
  Alcotest.(check bool) "the instances differ here" false
    (cells_to_strings fresh_cis = cells_to_strings fresh_coc);
  for _ = 1 to 3 do
    Alcotest.(check (list string)) "cis" (cells_to_strings fresh_cis)
      (cells_to_strings (Common_init_seq.lookup shared s_ty [ "s1" ] target));
    Alcotest.(check (list string)) "coc" (cells_to_strings fresh_coc)
      (cells_to_strings (Collapse_on_cast.lookup shared s_ty [ "s1" ] target))
  done;
  let g = Graph.create () in
  let dst = Common_init_seq.normalize shared s_var [] in
  let pairs r =
    List.map (fun (d, s) -> Cell.to_string d ^ "<-" ^ Cell.to_string s) r
  in
  let cis_r = pairs (Common_init_seq.resolve (Actx.create ()) g dst target s_ty) in
  let coc_r = pairs (Collapse_on_cast.resolve (Actx.create ()) g dst target s_ty) in
  for _ = 1 to 2 do
    Alcotest.(check (list string)) "cis resolve" cis_r
      (pairs (Common_init_seq.resolve shared g dst target s_ty));
    Alcotest.(check (list string)) "coc resolve" coc_r
      (pairs (Collapse_on_cast.resolve shared g dst target s_ty))
  done

let counters (c : Actx.t) =
  [
    c.Actx.lookup_calls; c.Actx.lookup_struct; c.Actx.lookup_mismatch;
    c.Actx.resolve_calls; c.Actx.resolve_struct; c.Actx.resolve_mismatch;
  ]

(* Answers served from the memo bump the Figure-3 counters exactly as
   recomputed answers do: the same calls against a context whose memo is
   cleared before each call give the same counts. *)
let test_memo_counters () =
  let calls (c : Actx.t) ~clear =
    let g = Graph.create () in
    let target = Common_init_seq.normalize c t_var [] in
    let dst = Common_init_seq.normalize c s_var [] in
    for _ = 1 to 4 do
      List.iter
        (fun f ->
          if clear then Actx.clear_memo c;
          f ())
        [
          (fun () -> ignore (Common_init_seq.lookup c t_ty [ "t2" ] target));
          (fun () -> ignore (Common_init_seq.lookup c s_ty [ "s3" ] target));
          (fun () -> ignore (Collapse_on_cast.lookup c s_ty [ "s3" ] target));
          (fun () -> ignore (Common_init_seq.resolve c g dst target s_ty));
          (fun () -> ignore (Collapse_on_cast.resolve c g dst target s_ty));
          (fun () -> ignore (Common_init_seq.resolve c g dst dst s_ty));
        ]
    done;
    counters c
  in
  let memoized = calls (Actx.create ()) ~clear:false in
  let recomputed = calls (Actx.create ()) ~clear:true in
  Alcotest.(check (list int)) "same counts" recomputed memoized;
  (* 12 lookups (all struct-involving; CIS on t2 is exact, the 8 s3
     lookups mismatch), 12 resolves (8 across S/T mismatch) *)
  Alcotest.(check (list int)) "expected counts" [ 12; 12; 8; 12; 12; 8 ] memoized

(* A self-referential struct as τ: its hash terminates and agrees with
   itself, it gets one type id, and lookup and resolve at it finish. *)
let test_memo_recursive_type () =
  let c = Ctype.fresh_comp ~tag:"node" ~is_union:false in
  let node = Ctype.Comp c in
  c.Ctype.cfields <-
    Some [ { Ctype.fname = "next"; fty = Ctype.Ptr node; fbits = None } ];
  Alcotest.(check bool) "equal to itself" true (Ctype.equal node node);
  Alcotest.(check int) "hash agrees" (Ctype.hash node) (Ctype.hash node);
  Alcotest.(check int) "pointer hash agrees"
    (Ctype.hash (Ctype.Ptr node))
    (Ctype.hash (Ctype.Ptr (Ctype.Comp c)));
  let x = Actx.create () in
  Alcotest.(check int) "one type id" (Actx.type_id x node)
    (Actx.type_id x (Ctype.Comp c));
  let v = Cvar.fresh ~name:"n" ~ty:node ~kind:Cvar.Global in
  let target = Common_init_seq.normalize x v [] in
  for _ = 1 to 2 do
    Alcotest.(check (list string)) "cis lookup" [ "n.next" ]
      (cells_to_strings (Common_init_seq.lookup x node [ "next" ] target));
    Alcotest.(check (list string)) "coc lookup" [ "n.next" ]
      (cells_to_strings (Collapse_on_cast.lookup x node [ "next" ] target));
    Alcotest.(check int) "resolve" 1
      (List.length (Common_init_seq.resolve x (Graph.create ()) target target node))
  done

(* The memo holds base answers; the solver's degradation wrapper applies
   its redirect on top. An answer memoized before an object collapses
   must come back redirected afterwards. *)
let test_memo_collapsed_redirect () =
  let t =
    Solver.create ~strategy:(module Common_init_seq)
      (Helpers.compile "void main(void) { }")
  in
  let module S = (val t.Solver.strategy : Strategy.S) in
  let target = S.normalize t.Solver.ctx t_var [] in
  let dst = S.normalize t.Solver.ctx s_var [] in
  let g = Graph.create () in
  Alcotest.(check (list string)) "fine-grained before" [ "t.t2"; "t.t3" ]
    (cells_to_strings (S.lookup t.Solver.ctx s_ty [ "s3" ] target));
  Alcotest.(check bool) "several pairs before" true
    (List.length (S.resolve t.Solver.ctx g dst target s_ty) > 1);
  Solver.collapse_object t ~reason:(Budget.Object_cells 1) t_var;
  Alcotest.(check (list string)) "redirected after" [ "t" ]
    (cells_to_strings (S.lookup t.Solver.ctx s_ty [ "s3" ] target));
  let srcs =
    List.sort_uniq compare
      (List.map
         (fun (_, s) -> Cell.to_string s)
         (S.resolve t.Solver.ctx g dst target s_ty))
  in
  Alcotest.(check (list string)) "resolve sources redirected" [ "t" ] srcs

let suite =
  [
    Helpers.tc "normalize" test_normalize;
    Helpers.tc "normalize: nested first fields" test_normalize_nested_first;
    Helpers.tc "lookup at the declared type" test_lookup_matched_type;
    Helpers.tc "lookup at a mismatched type" test_lookup_mismatch;
    Helpers.tc "lookup through a CIS pair" test_lookup_cis_pair;
    Helpers.tc "resolve same types" test_resolve_same_type;
    Helpers.tc "resolve mismatch cross-product" test_resolve_mismatch_cross_product;
    Helpers.tc "resolve (offsets) reads the graph" test_resolve_offsets_uses_graph;
    Helpers.tc "resolve honours the copy size" test_resolve_respects_copy_size;
    Helpers.tc "all_cells" test_all_cells;
    Helpers.tc "instrumentation counters" test_counters;
    Helpers.tc "memo: one answer per instance" test_memo_per_instance;
    Helpers.tc "memo: counters as if recomputed" test_memo_counters;
    Helpers.tc "memo: self-referential struct" test_memo_recursive_type;
    Helpers.tc "memo: collapsed objects still redirect"
      test_memo_collapsed_redirect;
  ]
