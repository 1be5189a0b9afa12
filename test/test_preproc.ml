(** Unit tests for the token-level preprocessor. *)

open Cfront

let pp ?defines ?resolve src : string =
  Preproc.run ?defines ?resolve ~file:"<pp>" src
  |> List.filter (fun t -> t.Token.tok <> Token.Eof)
  |> List.map (fun t -> Token.to_source t.Token.tok)
  |> String.concat " "

let check name ?defines ?resolve src expected =
  Alcotest.(check string) name expected (pp ?defines ?resolve src)

let test_object_macro () =
  check "simple" "#define N 42\nint a[N];" "int a [ 42 ] ;";
  check "multi-token" "#define PAIR 1, 2\nf(PAIR);" "f ( 1 , 2 ) ;";
  check "nested" "#define A B\n#define B 7\nA" "7";
  check "empty body" "#define NOTHING\nx NOTHING y" "x y"

let test_function_macro () =
  check "one arg" "#define SQ(x) ((x)*(x))\nSQ(3)" "( ( 3 ) * ( 3 ) )";
  check "two args" "#define ADD(a,b) a + b\nADD(1, 2)" "1 + 2";
  check "nested call" "#define ID(x) x\nID(ID(5))" "5";
  check "args with parens" "#define F(x) x\nF((1,2))" "( 1 , 2 )";
  check "zero args" "#define Z() 9\nZ()" "9";
  (* a function-like macro name not followed by '(' is left alone *)
  check "name alone" "#define G(x) x\nint G;" "int G ;";
  (* #define F (x) — space means object-like with body "(x)" *)
  check "space before paren" "#define H (y)\nH" "( y )"

let test_recursion_guard () =
  check "self-reference" "#define X X + 1\nX" "X + 1";
  check "mutual" "#define A B\n#define B A\nA" "A"

let test_stringize_and_paste () =
  check "stringize" "#define STR(x) #x\nSTR(hello world)" "\"hello world\"";
  check "paste" "#define CAT(a,b) a##b\nCAT(foo, bar)" "foobar";
  check "paste numbers" "#define MK(n) x##n\nMK(1) = 3;" "x1 = 3 ;"

let test_conditionals () =
  check "ifdef taken" "#define YES 1\n#ifdef YES\na\n#endif\nb" "a b";
  check "ifdef not taken" "#ifdef NO\na\n#endif\nb" "b";
  check "ifndef" "#ifndef NO\na\n#endif" "a";
  check "else" "#ifdef NO\na\n#else\nc\n#endif" "c";
  check "elif"
    "#define V 2\n#if V == 1\na\n#elif V == 2\nb\n#elif V == 3\nc\n#endif" "b";
  check "nested" "#ifdef NO\n#ifdef ALSO_NO\nx\n#endif\ny\n#else\nz\n#endif" "z";
  check "if arithmetic" "#if 2 * 3 > 5 && 1\nyes\n#endif" "yes";
  check "if defined" "#define D\n#if defined(D) && !defined(E)\nok\n#endif" "ok";
  check "if ternary" "#if 1 ? 0 : 1\na\n#else\nb\n#endif" "b";
  check "undef" "#define N 1\n#undef N\n#ifdef N\na\n#else\nb\n#endif" "b"

let test_initial_defines () =
  check "from the API" ~defines:[ ("MODE", "3") ] "int m = MODE;" "int m = 3 ;"

let test_include () =
  let resolve = function
    | "defs.h" -> Some "#define FROM_HEADER 99\nint header_var;"
    | "nested.h" -> Some "#include \"defs.h\"\nint nested_var;"
    | _ -> None
  in
  check "include" ~resolve "#include \"defs.h\"\nint x = FROM_HEADER;"
    "int header_var ; int x = 99 ;";
  check "nested include" ~resolve "#include \"nested.h\""
    "int header_var ; int nested_var ;";
  check "angle include" ~resolve "#include <defs.h>\nFROM_HEADER" "int header_var ; 99"

let test_pragma_ignored () = check "pragma" "#pragma once\nx" "x"

let expect_error name ?resolve src =
  match Preproc.run ?resolve ~file:"<pp>" src with
  | exception Diag.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a preprocessor error" name

let test_errors () =
  expect_error "missing include" "#include \"nope.h\"";
  expect_error "error directive" "#error broken";
  expect_error "unterminated if" "#ifdef X\nint a;";
  expect_error "else without if" "#else";
  expect_error "endif without if" "#endif";
  expect_error "wrong arity" "#define F(a,b) a\nF(1)";
  expect_error "unknown directive" "#frobnicate";
  (* a call's arguments end at a directive, as at the end of input *)
  expect_error "call arguments reach a directive"
    "#define F(a) a\nint x = F(1\n#define G 2\n);"

let test_macro_call_across_lines () =
  check "multiline args" "#define ADD(a,b) a + b\nADD(1,\n2)" "1 + 2"

(* ------------------------------------------------------------------ *)
(* The token stream, pinned                                            *)
(* ------------------------------------------------------------------ *)

(* One line per token: the token with its full payload (value and
   spelling of literals), its location and its [bol] flag. *)
let stream_text (toks : Token.spanned list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t : Token.spanned) ->
      let tok =
        match t.Token.tok with
        | Token.Int_lit (v, s) -> Printf.sprintf "int %Ld %S" v s
        | Token.Float_lit (f, s) -> Printf.sprintf "float %h %S" f s
        | tok -> Token.describe tok
      in
      Printf.bprintf b "%s @ %s:%d:%d %b\n" tok t.Token.loc.Srcloc.file
        t.Token.loc.Srcloc.line t.Token.loc.Srcloc.col t.Token.bol)
    toks;
  Buffer.contents b

let stream_md5 toks = Digest.to_hex (Digest.string (stream_text toks))

(* A source heavy in macros and conditional blocks: nested and
   function-like expansion, calls spanning lines and ending a run just
   before a directive, stringize and paste, a function-like name used
   bare, #undef/#define churn, #if/#elif/#else nesting with inactive
   regions full of would-be directives, and an include of a virtual
   header that defines macros of its own. *)
let macro_heavy_header =
  "#ifndef HDR_H\n#define HDR_H\n#define HDR_PTR(t) t *\n\
   #define HDR_N 4\nint hdr_var;\n#endif\n"

let macro_heavy =
  "#include \"hdr.h\"\n\
   #include \"hdr.h\"\n\
   #define N 8\n\
   #define TWICE(x) ((x) + (x))\n\
   #define CAT(a, b) a##b\n\
   #define STR(x) #x\n\
   #define ID(x) x\n\
   #define CALL(f, a) f(a)\n\
   #define DEEP ID(ID(TWICE(N)))\n\
   struct S { HDR_PTR(int) p; int a[HDR_N]; };\n\
   struct S s; int CAT(v, 1); int CAT(v, 2);\n\
   char *msg = STR(hello   world);\n\
   int ID;\n\
   #if defined(N) && N > 4\n\
   int big = DEEP;\n\
   #  if N == 8\n\
   int eight = TWICE(\n\
     N);\n\
   #  elif N == 16\n\
   int sixteen;\n\
   #  else\n\
   #    error not reached\n\
   #  endif\n\
   #elif defined(M)\n\
   #  define UNUSED 1\n\
   #else\n\
   #  bogus directive in an inactive branch\n\
   #endif\n\
   #undef N\n\
   #define N 3\n\
   int after = N * TWICE(N) ID\n\
   #ifdef N\n\
   ;\n\
   #endif\n\
   #pragma once\n\
   void main(void) {\n\
     s.p = &CAT(v, 1);\n\
     *s.p = CALL(ID, v2) + HDR_N;\n\
   #ifndef NOPE\n\
     v1 = ID(N);\n\
   #endif\n\
   }\n"

let macro_heavy_resolve = function
  | "hdr.h" -> Some macro_heavy_header
  | _ -> None

let cgen_src () =
  Cgen.generate
    ~cfg:
      { Cgen.n_stmts = 300; n_structs = 4; cast_rate = 0.3; with_calls = true }
    ~seed:2027 ()

(* Taken on the token-list preprocessor this one replaced: the stream is
   the parser's whole input, so any change here is a frontend change. *)
let golden_streams =
  [
    ("wc", "4020805e87c49b93ddb8aefd11ae55d4");
    ("ul", "2f01f1d672d82b2a667032be26907867");
    ("anagram", "dcbf7bdefa0353a80de441216cf6339e");
    ("ks", "54d04857b251a39536714c00819aab8a");
    ("ft", "a0a8c111f5236645b34c1c04da3384f8");
    ("allroots", "a191532aca9215fc06d38f586c24c766");
    ("compress", "bac283930df92c0251852ccb2362fab6");
    ("stanford", "72752fd65c37ce16331352f9e8481de6");
    ("yacr", "e4f48f1d990254f82c43831fcec22991");
    ("bc", "a27714114cff8eb393d968ddd827e410");
    ("li", "30ea06b60d7e37eab0d72d7f789959ac");
    ("less", "126dd414003d043b89b5a3a74720130f");
    ("flex", "0b99475c2e8766d1c43bd1f847506b37");
    ("twig", "0489527b61644120bb2bba45b89aa180");
    ("sim", "26b731a44dd931fcd46eb38df1670561");
    ("sc", "7bdd1d481b16d6d8da10a9111fd3397f");
    ("espresso", "de51a34deee67537cdf6359e1c06bd3b");
    ("gzip", "784ccb6a291284c54577539f9ccec85c");
    ("patch", "f49630923d807d5bb1af1cbb292dbfcf");
    ("tbl", "8cacb449ed75318ce832e4b51f2ba91a");
    ("cgen-300-2027", "70868a65e89c81cb99bad39c22d58575");
    ("macro-heavy", "0efbe4d4ea0b74ede48bd63235225dcc");
  ]

let test_stream_pinned () =
  let got =
    List.map
      (fun (p : Suite.program) ->
        ( p.Suite.name,
          stream_md5 (Preproc.run ~file:p.Suite.name p.Suite.source) ))
      Suite.programs
    @ [
        ("cgen-300-2027", stream_md5 (Preproc.run ~file:"cgen" (cgen_src ())));
        ( "macro-heavy",
          stream_md5
            (Preproc.run ~resolve:macro_heavy_resolve ~file:"heavy.c"
               macro_heavy) );
      ]
  in
  Alcotest.(check (list (pair string string)))
    "stream digests" golden_streams got

let test_stream_shape () =
  let dummy_eof (t : Token.spanned) =
    t.Token.tok = Token.Eof && Srcloc.is_dummy t.Token.loc && t.Token.bol
  in
  let ends_once name toks =
    match List.rev toks with
    | last :: rest ->
        Alcotest.(check bool) (name ^ ": ends in a dummy Eof") true
          (dummy_eof last);
        Alcotest.(check bool) (name ^ ": one Eof") false
          (List.exists
             (fun (t : Token.spanned) -> t.Token.tok = Token.Eof)
             rest)
    | [] -> Alcotest.failf "%s: empty stream" name
  in
  ends_once "macro-heavy"
    (Preproc.run ~resolve:macro_heavy_resolve ~file:"heavy.c" macro_heavy);
  ends_once "empty" (Preproc.run ~file:"e.c" "");
  ends_once "directives only"
    (Preproc.run ~file:"d.c" "#define A 1\n#if A\n#endif\n");
  List.iter
    (fun (p : Suite.program) ->
      ends_once p.Suite.name (Preproc.run ~file:p.Suite.name p.Suite.source))
    Suite.programs;
  (* without directives or macros the preprocessor is the identity on
     the lexer's tokens, apart from the Eof *)
  let src = cgen_src () in
  let lexed =
    List.filter
      (fun (t : Token.spanned) -> t.Token.tok <> Token.Eof)
      (Lexer.tokenize ~file:"cgen" src)
  in
  let pre = Preproc.run ~file:"cgen" src in
  ends_once "cgen" pre;
  Alcotest.(check string) "directive-free source: the lexer's tokens"
    (stream_text lexed)
    (stream_text
       (List.filter (fun (t : Token.spanned) -> t.Token.tok <> Token.Eof) pre))

let suite =
  [
    Helpers.tc "object-like macros" test_object_macro;
    Helpers.tc "function-like macros" test_function_macro;
    Helpers.tc "recursion guard" test_recursion_guard;
    Helpers.tc "stringize and paste" test_stringize_and_paste;
    Helpers.tc "conditionals" test_conditionals;
    Helpers.tc "initial defines" test_initial_defines;
    Helpers.tc "includes (virtual resolver)" test_include;
    Helpers.tc "pragma ignored" test_pragma_ignored;
    Helpers.tc "errors" test_errors;
    Helpers.tc "macro calls across lines" test_macro_call_across_lines;
    Helpers.tc "token stream pinned (corpus, cgen, macro-heavy)"
      test_stream_pinned;
    Helpers.tc "token stream ends in one dummy Eof" test_stream_shape;
  ]
