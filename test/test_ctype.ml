(** Unit tests for the type algebra: compatibility, common initial
    sequences, and the field-path utilities the strategies build on. *)

open Cfront

let comp ?(union = false) tag fields =
  let c = Ctype.fresh_comp ~tag ~is_union:union in
  c.Ctype.cfields <-
    Some
      (List.map
         (fun (fname, fty) -> { Ctype.fname; fty; fbits = None })
         fields);
  Ctype.Comp c

let test_equal () =
  Alcotest.(check bool) "int = int" true Ctype.(equal int_t int_t);
  Alcotest.(check bool) "int <> uint" false Ctype.(equal int_t uint_t);
  Alcotest.(check bool) "ptr chains" true
    Ctype.(equal (Ptr (Ptr char_t)) (Ptr (Ptr char_t)));
  let s1 = comp "A" [ ("x", Ctype.int_t) ] in
  let s2 = comp "A" [ ("x", Ctype.int_t) ] in
  (* same shape, distinct declarations: not equal *)
  Alcotest.(check bool) "distinct comps" false (Ctype.equal s1 s2);
  Alcotest.(check bool) "same comp" true (Ctype.equal s1 s1)

let test_compatible_scalars () =
  Alcotest.(check bool) "int ~ int" true Ctype.(compatible int_t int_t);
  Alcotest.(check bool) "int !~ long" false Ctype.(compatible int_t long_t);
  Alcotest.(check bool) "int !~ unsigned" false Ctype.(compatible int_t uint_t);
  Alcotest.(check bool) "int* ~ int*" true
    Ctype.(compatible (Ptr int_t) (Ptr int_t));
  Alcotest.(check bool) "int* !~ char*" false
    Ctype.(compatible (Ptr int_t) (Ptr char_t))

let test_compatible_arrays () =
  let a10 = Ctype.Array (Ctype.int_t, Some 10) in
  let a10' = Ctype.Array (Ctype.int_t, Some 10) in
  let a20 = Ctype.Array (Ctype.int_t, Some 20) in
  let a_none = Ctype.Array (Ctype.int_t, None) in
  Alcotest.(check bool) "same size" true (Ctype.compatible a10 a10');
  Alcotest.(check bool) "different size" false (Ctype.compatible a10 a20);
  Alcotest.(check bool) "unknown size" true (Ctype.compatible a10 a_none)

let test_compatible_structs () =
  (* member-wise: same names, compatible types *)
  let s1 = comp "S1" [ ("a", Ctype.int_t); ("b", Ctype.Ptr Ctype.char_t) ] in
  let s2 = comp "S2" [ ("a", Ctype.int_t); ("b", Ctype.Ptr Ctype.char_t) ] in
  let s3 = comp "S3" [ ("a", Ctype.int_t); ("c", Ctype.Ptr Ctype.char_t) ] in
  let s4 = comp "S4" [ ("a", Ctype.int_t) ] in
  Alcotest.(check bool) "structural match" true (Ctype.compatible s1 s2);
  Alcotest.(check bool) "field name differs" false (Ctype.compatible s1 s3);
  Alcotest.(check bool) "field count differs" false (Ctype.compatible s1 s4);
  (* struct vs union never compatible *)
  let u = comp ~union:true "U" [ ("a", Ctype.int_t); ("b", Ctype.Ptr Ctype.char_t) ] in
  Alcotest.(check bool) "struct vs union" false (Ctype.compatible s1 u)

let test_compatible_recursive () =
  (* struct L1 { struct L1 *next; } vs an identically-shaped L2: the
     cycle-safe check must terminate and accept *)
  let c1 = Ctype.fresh_comp ~tag:"L1" ~is_union:false in
  c1.Ctype.cfields <-
    Some [ { Ctype.fname = "next"; fty = Ctype.Ptr (Ctype.Comp c1); fbits = None } ];
  let c2 = Ctype.fresh_comp ~tag:"L2" ~is_union:false in
  c2.Ctype.cfields <-
    Some [ { Ctype.fname = "next"; fty = Ctype.Ptr (Ctype.Comp c2); fbits = None } ];
  Alcotest.(check bool) "recursive structs" true
    (Ctype.compatible (Ctype.Comp c1) (Ctype.Comp c2))

let test_common_initial_seq () =
  let s = comp "S" [ ("s1", Ctype.Ptr Ctype.int_t); ("s2", Ctype.int_t);
                     ("s3", Ctype.Ptr Ctype.char_t) ] in
  let t = comp "T" [ ("t1", Ctype.Ptr Ctype.int_t); ("t2", Ctype.Ptr Ctype.int_t);
                     ("t3", Ctype.Ptr Ctype.char_t) ] in
  let cis = Ctype.common_initial_seq s t in
  Alcotest.(check int) "one pair" 1 (List.length cis);
  (match cis with
  | [ (f1, f2) ] ->
      Alcotest.(check string) "left" "s1" f1.Ctype.fname;
      Alcotest.(check string) "right" "t1" f2.Ctype.fname
  | _ -> Alcotest.fail "unexpected CIS");
  (* identical structs: full CIS *)
  Alcotest.(check int) "self CIS" 3 (List.length (Ctype.common_initial_seq s s));
  (* scalars: no CIS *)
  Alcotest.(check int) "scalar CIS" 0
    (List.length (Ctype.common_initial_seq Ctype.int_t Ctype.int_t))

let test_innermost_first_path () =
  let inner = comp "Inner" [ ("a", Ctype.int_t); ("b", Ctype.int_t) ] in
  let outer = comp "Outer" [ ("i", inner); ("z", Ctype.int_t) ] in
  Alcotest.(check (list string)) "nested descent" [ "i"; "a" ]
    (Ctype.innermost_first_path outer);
  Alcotest.(check (list string)) "scalar" [] (Ctype.innermost_first_path Ctype.int_t);
  (* arrays are transparent *)
  let arr = Ctype.Array (outer, Some 4) in
  Alcotest.(check (list string)) "array of struct" [ "i"; "a" ]
    (Ctype.innermost_first_path arr);
  (* unions cut normalization *)
  let u = comp ~union:true "U" [ ("m", Ctype.int_t) ] in
  let holder = comp "H" [ ("u", u); ("x", Ctype.int_t) ] in
  Alcotest.(check (list string)) "union cut" [ "u" ]
    (Ctype.innermost_first_path holder)

let test_leaf_paths () =
  let inner = comp "In2" [ ("a", Ctype.int_t); ("b", Ctype.char_t) ] in
  let outer = comp "Out2" [ ("i", inner); ("z", Ctype.Ptr Ctype.int_t) ] in
  Alcotest.(check (list (list string))) "flattened"
    [ [ "i"; "a" ]; [ "i"; "b" ]; [ "z" ] ]
    (Ctype.leaf_paths outer);
  Alcotest.(check (list (list string))) "scalar leaf" [ [] ]
    (Ctype.leaf_paths Ctype.int_t);
  (* unions are leaves for path strategies, transparent for layout *)
  let u = comp ~union:true "U2" [ ("m", inner); ("n", Ctype.int_t) ] in
  Alcotest.(check (list (list string))) "union kept whole" [ [] ]
    (Ctype.leaf_paths u);
  Alcotest.(check (list (list string))) "union through"
    [ [ "m"; "a" ]; [ "m"; "b" ]; [ "n" ] ]
    (Ctype.leaf_paths_through_unions u)

let test_following_leaves () =
  let s = comp "F" [ ("a", Ctype.int_t); ("b", Ctype.int_t); ("c", Ctype.int_t) ] in
  Alcotest.(check (list (list string))) "after first" [ [ "b" ]; [ "c" ] ]
    (Ctype.following_leaves s [ "a" ]);
  Alcotest.(check (list (list string))) "after last" []
    (Ctype.following_leaves s [ "c" ]);
  (* fields within an array include their array-mates (footnote 6) *)
  let elem = comp "E" [ ("x", Ctype.int_t); ("y", Ctype.int_t) ] in
  let holder =
    comp "H2" [ ("arr", Ctype.Array (elem, Some 3)); ("tail", Ctype.int_t) ]
  in
  Alcotest.(check (list (list string)))
    "array wrap-around"
    [ [ "arr"; "x" ]; [ "arr"; "y" ]; [ "tail" ] ]
    (Ctype.following_leaves holder [ "arr"; "y" ])

let test_enclosing_candidates () =
  let inner = comp "In3" [ ("a", Ctype.int_t); ("b", Ctype.int_t) ] in
  let outer = comp "Out3" [ ("i", inner); ("z", Ctype.int_t) ] in
  (* the normalized first leaf [i;a] is reachable as: the whole object,
     the i sub-struct, and the leaf itself *)
  Alcotest.(check (list (list string)))
    "first leaf" [ []; [ "i" ]; [ "i"; "a" ] ]
    (Ctype.enclosing_candidates outer [ "i"; "a" ]);
  (* a non-first leaf encloses only itself *)
  Alcotest.(check (list (list string))) "other leaf" [ [ "z" ] ]
    (Ctype.enclosing_candidates outer [ "z" ])

let test_type_at_path () =
  let inner = comp "In4" [ ("a", Ctype.Ptr Ctype.int_t) ] in
  let outer = comp "Out4" [ ("i", Ctype.Array (inner, Some 2)) ] in
  (* arrays unwrap transparently on the way down *)
  Alcotest.(check bool) "through array" true
    (Ctype.equal (Ctype.type_at_path outer [ "i"; "a" ]) (Ctype.Ptr Ctype.int_t));
  match Ctype.type_at_path outer [ "nope" ] with
  | exception Diag.Error _ -> ()
  | _ -> Alcotest.fail "expected error for bad field"

(* The printer's bytes are on-disk identities (variable keys inside
   store keys, erased shapes inside canonical temp names), so every
   constructor's rendering is pinned literally. *)
let test_golden_strings () =
  let s = Ctype.fresh_comp ~tag:"S" ~is_union:false in
  let u = Ctype.fresh_comp ~tag:"U" ~is_union:true in
  let cases =
    Ctype.
      [
        (Int (IInt, Unsigned), "unsigned int");
        (Int (IChar, Unsigned), "unsigned char");
        (Int (ILongLong, Signed), "long long");
        (Int (ILongLong, Unsigned), "unsigned long long");
        (Float FLongDouble, "long double");
        (Array (int_t, Some 4), "int[4]");
        (Array (char_t, None), "char[]");
        ( Ptr
            (Func
               {
                 ret = int_t;
                 params = [ ("a", Ptr char_t); ("", double_t) ];
                 varargs = true;
               }),
          "int(char*, double, ...)*" );
        (Func { ret = Void; params = []; varargs = true }, "void(, ...)");
        (Comp s, "struct S");
        (Comp u, "union U");
        (Ptr (Array (Ptr (Comp s), Some 3)), "struct S*[3]*");
      ]
  in
  List.iter
    (fun (ty, want) ->
      Alcotest.(check string) want want (Ctype.to_string ty);
      Alcotest.(check string) ("pp " ^ want) want (Fmt.str "%a" Ctype.pp ty))
    cases;
  Alcotest.(check string) "empty path" "ε" (Ctype.path_to_string []);
  Alcotest.(check string) "two fields" "a.b" (Ctype.path_to_string [ "a"; "b" ]);
  Alcotest.(check string) "pp path" "a.b" (Fmt.str "%a" Ctype.pp_path [ "a"; "b" ])

let suite =
  [
    Helpers.tc "type equality" test_equal;
    Helpers.tc "compatibility: scalars" test_compatible_scalars;
    Helpers.tc "compatibility: arrays" test_compatible_arrays;
    Helpers.tc "compatibility: structs" test_compatible_structs;
    Helpers.tc "compatibility: recursive structs" test_compatible_recursive;
    Helpers.tc "common initial sequence" test_common_initial_seq;
    Helpers.tc "innermost first path" test_innermost_first_path;
    Helpers.tc "leaf paths" test_leaf_paths;
    Helpers.tc "following leaves" test_following_leaves;
    Helpers.tc "enclosing candidates" test_enclosing_candidates;
    Helpers.tc "type at path" test_type_at_path;
    Helpers.tc "golden type and path strings" test_golden_strings;
  ]
