(** Unit tests for the recursive-descent C parser: declarators, types,
    expressions (via the AST pretty-printer as a golden form), statements,
    and error reporting. *)

open Cfront

let parse src : Ast.tunit = Parser.parse_string ~file:"<parse>" src

let first_global src : Ast.global =
  match (parse src).Ast.globals with
  | g :: _ -> g
  | [] -> Alcotest.fail "no globals parsed"

let decl_type src : Ctype.t =
  match first_global src with
  | Ast.Gvar d -> d.Ast.dty
  | Ast.Gproto (_, t, _) -> t
  | Ast.Gfun f -> Ctype.Func f.Ast.fty

let check_type name src expected_str =
  Alcotest.(check string) name expected_str (Ctype.to_string (decl_type src))

let test_declarators () =
  check_type "plain" "int x;" "int";
  check_type "pointer" "int *p;" "int*";
  check_type "ptr-to-ptr" "char **pp;" "char**";
  check_type "array" "int a[10];" "int[10]";
  check_type "array of pointers" "int *a[3];" "int*[3]";
  check_type "pointer to array" "int (*pa)[3];" "int[3]*";
  check_type "2d array" "int m[2][3];" "int[3][2]";
  check_type "function" "int f(int a, char *b);" "int(int, char*)";
  check_type "function pointer" "int (*fp)(int);" "int(int)*";
  check_type "fn returning ptr" "char *g(void);" "char*()";
  check_type "ptr to fn returning ptr" "char *(*h)(int);" "char*(int)*";
  check_type "varargs" "int printf(char *fmt, ...);" "int(char*, ...)";
  check_type "K&R empty parens" "int old();" "int(, ...)"

let test_type_specifiers () =
  check_type "unsigned" "unsigned x;" "unsigned int";
  check_type "unsigned char" "unsigned char c;" "unsigned char";
  check_type "long" "long l;" "long";
  check_type "long int" "long int l;" "long";
  check_type "unsigned long" "unsigned long ul;" "unsigned long";
  check_type "long long" "long long ll;" "long long";
  check_type "long double" "long double ld;" "long double";
  check_type "signedness order" "int unsigned x;" "unsigned int"

let test_typedef () =
  check_type "simple typedef" "typedef int word; word w;" "int";
  check_type "typedef pointer" "typedef char *str; str s;" "char*";
  check_type "typedef of struct" "typedef struct T { int a; } tt; tt v;"
    "struct T";
  check_type "typedef in declarator" "typedef int num; num *p[2];" "int*[2]"

let test_typedef_shadowing () =
  (* an ordinary declaration shadows a typedef name in inner scopes *)
  let tu =
    parse
      {|
        typedef int T;
        void f(void) {
          int T;
          T = 3;
        }
      |}
  in
  match tu.Ast.globals with
  | [ Ast.Gfun _ ] -> ()
  | _ -> Alcotest.fail "shadowed typedef failed to parse"

let test_struct_parsing () =
  let tu =
    parse "struct S { int a; struct S *next; }; struct S head;"
  in
  match tu.Ast.globals with
  | [ Ast.Gvar d ] -> (
      match d.Ast.dty with
      | Ctype.Comp c ->
          Alcotest.(check string) "tag" "S" c.Ctype.ctag;
          Alcotest.(check int) "fields" 2
            (List.length (Option.get c.Ctype.cfields))
      | _ -> Alcotest.fail "not a struct")
  | _ -> Alcotest.fail "unexpected globals"

let test_anonymous_struct () =
  match decl_type "struct { int x; } v;" with
  | Ctype.Comp c -> Alcotest.(check bool) "anon tag" true
      (String.length c.Ctype.ctag > 0)
  | _ -> Alcotest.fail "not a struct"

let test_enum () =
  let tu = parse "enum color { RED, GREEN = 5, BLUE }; int x[BLUE];" in
  match tu.Ast.globals with
  | [ Ast.Gvar d ] -> (
      (* BLUE = 6 folded into the array size *)
      match d.Ast.dty with
      | Ctype.Array (_, Some 6) -> ()
      | t -> Alcotest.failf "array size not folded: %s" (Ctype.to_string t))
  | _ -> Alcotest.fail "unexpected globals"

let test_bitfields () =
  match decl_type "struct B { int flags : 3; int rest : 5; } b;" with
  | Ctype.Comp c ->
      let fs = Option.get c.Ctype.cfields in
      Alcotest.(check (list (option int)))
        "widths" [ Some 3; Some 5 ]
        (List.map (fun f -> f.Ctype.fbits) fs)
  | _ -> Alcotest.fail "not a struct"

(* expression golden tests via the AST printer *)
let expr_of src : string =
  let tu = parse (Printf.sprintf "void f(int a, int b, int c) { %s; }" src) in
  match tu.Ast.globals with
  | [ Ast.Gfun { Ast.fbody = [ { Ast.s = Ast.Sexpr e; _ } ]; _ } ] ->
      Ast.expr_to_string e
  | _ -> Alcotest.fail "expected one expression statement"

let check_expr name src expected =
  Alcotest.(check string) name expected (expr_of src)

let test_precedence () =
  check_expr "mul before add" "a + b * c" "(a + (b * c))";
  check_expr "left assoc" "a - b - c" "((a - b) - c)";
  check_expr "shift vs compare" "a << b < c" "((a << b) < c)";
  check_expr "and before or" "a || b && c" "(a || (b && c))";
  check_expr "bitand between" "a == b & c" "((a == b) & c)";
  check_expr "assign right assoc" "a = b = c" "(a = (b = c))";
  check_expr "ternary" "a ? b : c ? a : b" "(a ? b : (c ? a : b))";
  check_expr "unary binds tight" "-a * b" "((-a) * b)";
  check_expr "postfix tighter than unary" "-a[b]" "(-a[b])";
  check_expr "comma" "a = b, c" "((a = b), c)"

let test_cast_vs_paren () =
  (* '(' typedef-name ')' is a cast; '(' expr ')' is grouping *)
  let tu =
    parse
      {|
        typedef int T;
        void f(int a) {
          a = (T)a;
          a = (a) + 1;
        }
      |}
  in
  match tu.Ast.globals with
  | [ Ast.Gfun { Ast.fbody = [ s1; s2 ]; _ } ] -> (
      (match s1.Ast.s with
      | Ast.Sexpr { Ast.e = Ast.Eassign (None, _, { Ast.e = Ast.Ecast _; _ }); _ } ->
          ()
      | _ -> Alcotest.fail "expected a cast");
      match s2.Ast.s with
      | Ast.Sexpr { Ast.e = Ast.Eassign (None, _, { Ast.e = Ast.Ebinary _; _ }); _ }
        ->
          ()
      | _ -> Alcotest.fail "expected grouped addition")
  | _ -> Alcotest.fail "unexpected shape"

let test_sizeof () =
  check_expr "sizeof expr" "a = sizeof a" "(a = sizeof(a))";
  let tu = parse "void f(void) { int n; n = sizeof(struct S { int a; int b; }); }" in
  ignore tu;
  (* sizeof(type) with a known type folds in constant contexts *)
  match decl_type "char buf[sizeof(int)];" with
  | Ctype.Array (_, Some 4) -> ()
  | t -> Alcotest.failf "sizeof not folded: %s" (Ctype.to_string t)

let test_statements_parse () =
  let src =
    {|
      int g;
      void f(int n) {
        int i;
        for (i = 0; i < n; i++) g = g + i;
        while (n > 0) { n = n - 1; continue; }
        do { n++; } while (n < 3);
        switch (n) {
        case 1: g = 1; break;
        case 2:
        default: g = 0;
        }
        if (n) g = 2; else g = 3;
        goto done;
        done: ;
        return;
      }
    |}
  in
  match (parse src).Ast.globals with
  | [ Ast.Gvar _; Ast.Gfun f ] ->
      Alcotest.(check bool) "body nonempty" true (List.length f.Ast.fbody > 5)
  | _ -> Alcotest.fail "unexpected parse"

let test_initializers () =
  let tu =
    parse
      {|
        int x = 5;
        int a[3] = { 1, 2, 3 };
        struct P { int u; int v; } p = { 7, 8 };
        struct Q { struct P inner; int w; } q = { { 1, 2 }, 3 };
        char msg[] = "hi";
      |}
  in
  Alcotest.(check int) "globals" 5 (List.length tu.Ast.globals)

let test_multi_declarators () =
  let tu = parse "int a, *b, c[2];" in
  let tys =
    List.filter_map
      (function Ast.Gvar d -> Some (Ctype.to_string d.Ast.dty) | _ -> None)
      tu.Ast.globals
  in
  Alcotest.(check (list string)) "each declarator" [ "int"; "int*"; "int[2]" ] tys

let expect_error name src =
  match parse src with
  | exception Diag.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a parse error" name

let test_errors () =
  expect_error "missing semicolon" "int x int y;";
  expect_error "unclosed brace" "void f(void) { int x;";
  expect_error "bad field access" "void f(void) { 1 .; }";
  expect_error "struct redefinition" "struct S { int a; }; struct S { int b; };";
  expect_error "array of functions" "int f[3](void);";
  expect_error "keyword as name" "int while;"

(* Every keyword is refused where only an identifier may stand (a
   member name after [.]); names that merely resemble one parse as plain
   identifiers, in declarators and after [.] alike. *)
let keywords =
  [
    "void"; "char"; "short"; "int"; "long"; "float"; "double"; "signed";
    "unsigned"; "struct"; "union"; "enum"; "typedef"; "static"; "extern";
    "register"; "auto"; "const"; "volatile"; "if"; "else"; "while"; "do";
    "for"; "return"; "break"; "continue"; "switch"; "case"; "default";
    "goto"; "sizeof";
  ]

let test_keywords_refused () =
  Alcotest.(check int) "keyword count" 32 (List.length keywords);
  List.iter
    (fun kw ->
      expect_error ("member named " ^ kw)
        (Printf.sprintf "struct S { int a; } s; void f(void) { s.%s = 0; }" kw))
    keywords;
  let near = [ "integer"; "If"; "do_it"; "sizeof_t" ] in
  List.iter
    (fun n ->
      match first_global (Printf.sprintf "int %s;" n) with
      | Ast.Gvar d -> Alcotest.(check string) ("declares " ^ n) n d.Ast.dname
      | _ -> Alcotest.failf "%s: not parsed as a variable" n)
    near;
  let fields = String.concat " " (List.map (Printf.sprintf "int %s;") near) in
  let uses = String.concat " " (List.map (Printf.sprintf "s.%s = 0;") near) in
  ignore
    (parse
       (Printf.sprintf "struct S { %s } s; void f(void) { %s }" fields uses))

let suite =
  [
    Helpers.tc "declarators" test_declarators;
    Helpers.tc "type specifiers" test_type_specifiers;
    Helpers.tc "typedefs" test_typedef;
    Helpers.tc "typedef shadowing" test_typedef_shadowing;
    Helpers.tc "struct declarations" test_struct_parsing;
    Helpers.tc "anonymous structs" test_anonymous_struct;
    Helpers.tc "enums fold to constants" test_enum;
    Helpers.tc "bit-fields" test_bitfields;
    Helpers.tc "operator precedence" test_precedence;
    Helpers.tc "cast vs parenthesis" test_cast_vs_paren;
    Helpers.tc "sizeof" test_sizeof;
    Helpers.tc "statements" test_statements_parse;
    Helpers.tc "initializers" test_initializers;
    Helpers.tc "multiple declarators" test_multi_declarators;
    Helpers.tc "parse errors" test_errors;
    Helpers.tc "keywords refused as identifiers" test_keywords_refused;
  ]
