(** Unit tests for the normalizer: shapes of the five paper forms, deref
    flagging, cast temporaries, heap typing, and initializer lowering. *)

open Cfront
open Norm

let lower src : Nast.program = Lower.compile ~file:"<lower>" src

let main_stmts src : Nast.stmt list =
  let prog = lower src in
  match Nast.func_by_name prog "main" with
  | Some f -> f.Nast.fstmts
  | None -> Alcotest.fail "no main"

let kinds stmts =
  List.map
    (fun (s : Nast.stmt) ->
      match s.Nast.kind with
      | Nast.Addr _ -> "addr"
      | Nast.Addr_deref _ -> "addr-deref"
      | Nast.Copy _ -> "copy"
      | Nast.Load _ -> "load"
      | Nast.Store _ -> "store"
      | Nast.Arith _ -> "arith"
      | Nast.Call _ -> "call")
    stmts

let check_kinds name src expected =
  Alcotest.(check (list string)) name expected (kinds (main_stmts src))

let test_basic_forms () =
  check_kinds "address-of" "int x, *p; void main(void){ p = &x; }" [ "addr" ];
  check_kinds "copy" "int a, b; void main(void){ a = b; }" [ "copy" ];
  check_kinds "load" "int *p, x; void main(void){ x = *p; }" [ "load" ];
  check_kinds "store" "int *p, x; void main(void){ *p = x; }" [ "store" ];
  check_kinds "field read stays a copy"
    "struct S { int f; } s; int x; void main(void){ x = s.f; }"
    [ "copy" ]

let test_field_write_via_addr () =
  (* s.f = x lowers to tmp = &s.f; *tmp = x (form 1 + form 5) *)
  check_kinds "field write"
    "struct S { int f; } s; int x; void main(void){ s.f = x; }"
    [ "addr"; "store" ]

let test_arrow_chain () =
  (* p->next->prev = p:
       t1 = &( *p).next ; t2 = *t1 ; t3 = &( *t2).prev ; *t3 = p *)
  check_kinds "arrow chain"
    "struct N { struct N *next; struct N *prev; } *p;\n\
     void main(void){ p->next->prev = p; }"
    [ "addr-deref"; "load"; "addr-deref"; "store" ]

let test_deref_flags () =
  let stmts =
    main_stmts
      "struct N { struct N *next; } *p; int x, *q;\n\
       void main(void){ q = &x; p = p->next; }"
  in
  let flags = List.map (fun (s : Nast.stmt) -> s.Nast.is_source_deref) stmts in
  (* q = &x (addr, not deref); then addr-deref (deref!) + load (the load
     reads through the already-resolved temp: not counted again) *)
  Alcotest.(check (list bool)) "deref flags" [ false; true; false ] flags

let test_cast_temp_types () =
  (* storing q through a char-pointer-pointer cast of p must go through a temp declared at the cast type *)
  let stmts =
    main_stmts "int *p; char *q; void main(void){ *(char **)p = q; }"
  in
  let store_ptr_ty =
    List.find_map
      (fun (s : Nast.stmt) ->
        match s.Nast.kind with
        | Nast.Store (ptr, _) -> Some (Ctype.to_string ptr.Cvar.vty)
        | _ -> None)
      stmts
  in
  Alcotest.(check (option string)) "declared pointee" (Some "char**")
    store_ptr_ty

let test_no_temp_for_same_type_cast () =
  check_kinds "identity cast" "int *p, *q; void main(void){ p = (int *)q; }"
    [ "copy" ]

let test_malloc_heap_typing () =
  let prog =
    lower
      "void *malloc(unsigned long);\n\
       struct S { int f; } *p;\n\
       char *c;\n\
       void main(void){ p = (struct S *)malloc(4); c = malloc(1); }"
  in
  let heaps =
    List.filter_map
      (fun (v : Cvar.t) ->
        match v.Cvar.vkind with
        | Cvar.Heap _ -> Some (Ctype.to_string v.Cvar.vty)
        | _ -> None)
      prog.Nast.pall_vars
  in
  Alcotest.(check (list string)) "heap object types" [ "char"; "struct S" ]
    (List.sort compare heaps)

let test_string_literal_dedup () =
  let prog =
    lower
      "char *a, *b, *c;\n\
       void main(void){ a = \"same\"; b = \"same\"; c = \"other\"; }"
  in
  let strs =
    List.filter
      (fun (v : Cvar.t) ->
        match v.Cvar.vkind with Cvar.Strlit _ -> true | _ -> false)
      prog.Nast.pall_vars
  in
  Alcotest.(check int) "two distinct literals" 2 (List.length strs)

let test_compound_assign_is_arith () =
  check_kinds "p += n" "int *p, n; void main(void){ p += n; }"
    [ "arith"; "arith"; "copy" ]

let test_incdec () =
  (* p++ reads p, makes an arith result, writes it back *)
  check_kinds "p++" "int *p; void main(void){ p++; }" [ "arith"; "copy" ]

let test_conditional_merges () =
  check_kinds "ternary" "int x, y, *p; void main(void){ p = x ? &x : &y; }"
    [ "addr"; "addr"; "copy"; "copy"; "copy" ]

let test_call_lowering () =
  let stmts =
    main_stmts
      "int *id(int *p) { return p; } int x, *r;\n\
       void main(void){ r = id(&x); }"
  in
  (* &x into an arg temp, the call, then the result copy *)
  Alcotest.(check (list string)) "call shape" [ "addr"; "call"; "copy" ]
    (kinds stmts)

let test_global_initializers () =
  let prog =
    lower "int x; int *gp = &x; struct S { int *f; } s = { &x };"
  in
  Alcotest.(check bool) "init statements exist" true
    (List.length prog.Nast.pinit >= 2)

let test_struct_return () =
  let prog =
    lower
      "struct P { int *a; } mk(void) { struct P p; return p; }\n\
       struct P g;\n\
       void main(void){ g = mk(); }"
  in
  let mk = Option.get (Nast.func_by_name prog "mk") in
  Alcotest.(check bool) "has return slot" true (mk.Nast.fret <> None)

let test_stmt_ids_unique () =
  let prog = lower (match Suite.find "bc" with Some p -> p.Suite.source | None -> "") in
  let ids = List.map (fun (s : Nast.stmt) -> s.Nast.id) (Nast.all_stmts prog) in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* ------------------------------------------------------------------ *)
(* Temporary names are durable identities                              *)
(* ------------------------------------------------------------------ *)

let print_norm prog = Fmt.str "%a" Nast.pp_program prog

let cgen_cfg n =
  { Cgen.n_stmts = n; n_structs = 4; cast_rate = 0.3; with_calls = true }

(* Store keys and alignment keys are built from temporary names, so the
   normalized program's bytes are pinned: [--print norm] of every corpus
   program and of one generated program, taken before the naming pass
   was rewritten. *)
let golden_norm =
  [
    ("wc", "1bf313fce9ad7f23ef03d47244779aea");
    ("ul", "dea60f733c685aef4621ca8831b8139d");
    ("anagram", "dfb5356d640b600bc0905a99f9092571");
    ("ks", "948689942578895ce98cff1086ec8ff8");
    ("ft", "1921141463cf60f579d3e21323080d4c");
    ("allroots", "bc5c820bfafed41405291542242fbd3a");
    ("compress", "db23bf18ed3f92c504a8621452ba706e");
    ("stanford", "5b8d7a5b41df346ecede5b42025a3036");
    ("yacr", "03b207aa88c653e28a948636607873f0");
    ("bc", "4ecfc24c0182d2da82698cb0c26efa79");
    ("li", "7c7e839ade920c9e3f014014fe5c95ef");
    ("less", "2dc80f7132fd5cc00c949f192aa4b616");
    ("flex", "5c2b96f7f7ddb4228fa1b06cd8209158");
    ("twig", "9a6406b33bed9390b9421381f0748044");
    ("sim", "c7230ec832181a897b9a529f1ed2fd40");
    ("sc", "2ab1a17f32f00fa623d2dfd2ea82cebb");
    ("espresso", "43fae689141777d4846f5c6dafa8800d");
    ("gzip", "47ae6631f945777f6c07c3d1689ec7b1");
    ("patch", "74e29826f0a8879e770be5ff48b77a73");
    ("tbl", "f5f63f702449f066ed07baecb1e0f366");
    ("cgen-300-2027", "8d20287b3932825089277c5ac2d6b571");
  ]

let test_norm_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let got =
    List.map
      (fun (p : Suite.program) ->
        ( p.Suite.name,
          md5 (print_norm (Lower.compile ~file:p.Suite.name p.Suite.source)) ))
      Suite.programs
    @ [
        ( "cgen-300-2027",
          md5
            (print_norm
               (Lower.compile ~file:"cgen"
                  (Cgen.generate ~cfg:(cgen_cfg 300) ~seed:2027 ()))) );
      ]
  in
  Alcotest.(check (list (pair string string))) "norm digests" golden_norm got

let stmt_vars (k : Nast.kind) : Cvar.t list =
  match k with
  | Nast.Addr (s, t, _)
  | Nast.Addr_deref (s, t, _)
  | Nast.Copy (s, t, _)
  | Nast.Load (s, t)
  | Nast.Store (s, t)
  | Nast.Arith (s, t) ->
      [ s; t ]
  | Nast.Call { Nast.cret; cfn; cargs } ->
      Option.to_list cret
      @ (match cfn with Nast.Direct _ -> [] | Nast.Indirect v -> [ v ])
      @ cargs

let is_temp (v : Cvar.t) =
  match v.Cvar.vkind with Cvar.Temp _ -> true | _ -> false

let has_temp (s : Nast.stmt) = List.exists is_temp (stmt_vars s.Nast.kind)

(* "$t<shape digest>_<ordinal>_<position>" *)
let temp_name_parts name =
  match String.split_on_char '_' name with
  | [ h; o; p ] when String.length h = 10 && String.sub h 0 2 = "$t" ->
      (String.sub h 2 8, int_of_string o, int_of_string p)
  | _ -> Alcotest.failf "not a canonical temporary name: %s" name

(* A statement printed with [rename] applied to its temporaries' names. *)
let render ?(rename = fun n -> n) (s : Nast.stmt) =
  let names =
    List.map
      (fun (v : Cvar.t) ->
        if is_temp v then rename v.Cvar.vname else Cvar.qualified_name v)
      (stmt_vars s.Nast.kind)
  in
  let tag =
    match s.Nast.kind with
    | Nast.Addr (_, _, b) -> "addr " ^ Ctype.path_to_string b
    | Nast.Addr_deref (_, _, a) -> "addr-deref " ^ Ctype.path_to_string a
    | Nast.Copy (_, _, b) -> "copy " ^ Ctype.path_to_string b
    | Nast.Load _ -> "load"
    | Nast.Store _ -> "store"
    | Nast.Arith _ -> "arith"
    | Nast.Call { Nast.cfn = Nast.Direct n; _ } -> "call " ^ n
    | Nast.Call _ -> "call indirect"
  in
  String.concat " " (tag :: names)

(* Insert [text] as line [k] (0-based) of [src]; returns main's
   statements split into (lowered from the inserted line, the rest), and
   every other function's statements. *)
let insert_line src k text =
  let lines = String.split_on_char '\n' src in
  let edited =
    String.concat "\n"
      (List.concat
         (List.mapi (fun i l -> if i = k then [ text; l ] else [ l ]) lines))
  in
  let prog = Lower.compile ~file:"ins" edited in
  let main = (Option.get (Nast.func_by_name prog "main")).Nast.fstmts in
  ( List.partition (fun (s : Nast.stmt) -> s.Nast.loc.Srcloc.line = k + 1) main,
    prog )

let others (p : Nast.program) =
  List.map render p.Nast.pinit
  @ List.concat_map
      (fun (f : Nast.func) ->
        if f.Nast.fname = "main" then []
        else f.Nast.fname :: List.map render f.Nast.fstmts)
      p.Nast.pfuncs

let test_temp_names_durable () =
  let src = Cgen.generate ~cfg:(cgen_cfg 80) ~seed:2027 () in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let first_body =
    let rec find i =
      if lines.(i) = "void main(void) {" then i + 1 else find (i + 1)
    in
    find 0
  in
  let close =
    let rec find i = if lines.(i) = "}" then i else find (i - 1) in
    find (Array.length lines - 1)
  in
  let last_body = close - 1 in
  let base = Lower.compile ~file:"base" src in
  let base_main = (Option.get (Nast.func_by_name base "main")).Nast.fstmts in
  Alcotest.(check bool) "the program has temporaries" true
    (List.exists has_temp base_main);
  let positions = List.init 11 (fun i -> first_body + (i * 7)) @ [ close ] in
  (* a temp-free statement renames nothing, wherever it lands *)
  List.iter
    (fun k ->
      let (ins, rest), prog = insert_line src k "pi0 = pi1;" in
      Alcotest.(check (list string)) "inserted statement" [ "copy ε pi0 pi1" ]
        (List.map render ins);
      Alcotest.(check bool) "inserted statement has no temporary" false
        (List.exists has_temp ins);
      Alcotest.(check (list string))
        (Printf.sprintf "temp-free insert at line %d: main unchanged" (k + 1))
        (List.map render base_main) (List.map render rest);
      Alcotest.(check (list string))
        "other scopes unchanged" (others base) (others prog))
    positions;
  (* a duplicated line shifts only the later ordinals of its own shapes *)
  let shifted = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun j ->
          let (ins, rest), prog = insert_line src k lines.(j) in
          let shift = Hashtbl.create 8 in
          List.iter
            (fun (s : Nast.stmt) ->
              List.iter
                (fun v ->
                  if is_temp v then
                    let h, o, _ = temp_name_parts v.Cvar.vname in
                    let os =
                      Option.value (Hashtbl.find_opt shift h) ~default:[]
                    in
                    if not (List.mem o os) then
                      Hashtbl.replace shift h (o :: os))
                (stmt_vars s.Nast.kind))
            ins;
          let rename n =
            let h, o, p = temp_name_parts n in
            match Hashtbl.find_opt shift h with
            | Some os -> Printf.sprintf "$t%s_%d_%d" h (o + List.length os) p
            | None -> n
          in
          let expect =
            List.map
              (fun (s : Nast.stmt) ->
                if s.Nast.loc.Srcloc.line < k + 1 then render s
                else render ~rename s)
              base_main
          in
          if expect <> List.map render base_main then incr shifted;
          Alcotest.(check (list string))
            (Printf.sprintf "line %d duplicated at line %d" (j + 1) (k + 1))
            expect (List.map render rest);
          Alcotest.(check (list string))
            "other scopes unchanged" (others base) (others prog))
        [ first_body; first_body + 10; first_body + 33; last_body ])
    positions;
  Alcotest.(check bool) "some duplication shifted later ordinals" true
    (!shifted > 0)

let suite =
  [
    Helpers.tc "five basic forms" test_basic_forms;
    Helpers.tc "field writes go through &" test_field_write_via_addr;
    Helpers.tc "arrow chains" test_arrow_chain;
    Helpers.tc "source-deref flags" test_deref_flags;
    Helpers.tc "casts materialize typed temps" test_cast_temp_types;
    Helpers.tc "identity casts add no temp" test_no_temp_for_same_type_cast;
    Helpers.tc "malloc heap objects take receiver type" test_malloc_heap_typing;
    Helpers.tc "string literals deduplicate" test_string_literal_dedup;
    Helpers.tc "compound assignment is arithmetic" test_compound_assign_is_arith;
    Helpers.tc "increment/decrement" test_incdec;
    Helpers.tc "conditional expressions merge" test_conditional_merges;
    Helpers.tc "call lowering" test_call_lowering;
    Helpers.tc "global initializers lower" test_global_initializers;
    Helpers.tc "struct-valued returns" test_struct_return;
    Helpers.tc "statement ids unique" test_stmt_ids_unique;
      Helpers.tc "--print norm pinned (corpus, cgen)" test_norm_pinned;
    Helpers.tc "temporary names survive insertions" test_temp_names_durable;
  ]
