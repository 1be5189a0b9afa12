(** Unit tests for the type checker: expression typing, implicit
    conversions, identifier resolution, and error reporting. *)

open Cfront

let check_program src : Tast.program =
  Typecheck.check ~file:"<tc>" (Parser.parse_string ~file:"<tc>" src)

(* type of the expression in "probe = <expr>;" inside main *)
let type_of_probe src : Ctype.t =
  let prog = check_program src in
  let f =
    match Tast.defined_fun prog "main" with
    | Some f -> f
    | None -> Alcotest.fail "no main"
  in
  let rec find_stmt (stmts : Tast.tstmt list) : Ctype.t option =
    List.find_map
      (fun (s : Tast.tstmt) ->
        match s.Tast.ts with
        | Tast.TSexpr { Tast.te = Tast.Tassign (None, _, rhs); _ } ->
            Some rhs.Tast.tty
        | Tast.TSblock ss -> find_stmt ss
        | _ -> None)
      stmts
  in
  match find_stmt f.Tast.fbody with
  | Some t -> t
  | None -> Alcotest.fail "no probe assignment found"

let check_ty name src expected =
  Alcotest.(check string) name expected (Ctype.to_string (type_of_probe src))

let test_arith_types () =
  check_ty "int addition" "int a, b, probe; void main(void){ probe = a + b; }"
    "int";
  check_ty "usual conversions"
    "int a; double d, probe; void main(void){ probe = a + d; }" "double";
  check_ty "promotion" "char c; int probe; void main(void){ probe = c + c; }"
    "int";
  check_ty "comparison is int"
    "double d; int probe; void main(void){ probe = d < 2.0; }" "int";
  check_ty "long wins"
    "long l; int i, probe; void main(void){ probe = l + i; }" "long"

let test_pointer_types () =
  check_ty "addr-of" "int x, *probe; void main(void){ probe = &x; }" "int*";
  check_ty "deref" "int *p, probe; void main(void){ probe = *p; }" "int";
  check_ty "ptr plus int"
    "int *p, *probe; void main(void){ probe = p + 3; }" "int*";
  check_ty "ptr minus ptr"
    "int *p, *q; long probe; void main(void){ probe = p - q; }" "long";
  check_ty "array decays in value position"
    "int a[5], *probe; void main(void){ probe = a + 1; }" "int*";
  check_ty "subscript" "int a[5], probe; void main(void){ probe = a[2]; }" "int"

let test_member_access () =
  check_ty "dot"
    "struct S { int f; } s; int probe; void main(void){ probe = s.f; }" "int";
  check_ty "arrow"
    "struct S { char *g; } *p; char *probe; void main(void){ probe = p->g; }"
    "char*";
  check_ty "nested"
    "struct In { int v; }; struct Out { struct In i; } o; int probe;\n\
     void main(void){ probe = o.i.v; }"
    "int"

let test_calls () =
  check_ty "direct call"
    "char *f(int x); char *probe; void main(void){ probe = f(3); }" "char*";
  check_ty "through pointer"
    "int (*fp)(void); int probe; void main(void){ probe = fp(); }" "int";
  check_ty "explicit deref call"
    "int (*fp)(void); int probe; void main(void){ probe = (*fp)(); }" "int"

let test_sizeof_folded () =
  let prog =
    check_program "void main(void){ int n; n = sizeof(int); }"
  in
  let f = Option.get (Tast.defined_fun prog "main") in
  let found =
    List.exists
      (fun (s : Tast.tstmt) ->
        match s.Tast.ts with
        | Tast.TSexpr
            { Tast.te = Tast.Tassign (None, _, { Tast.te = Tast.Tconst_int 4L; _ }); _ }
          ->
            true
        | _ -> false)
      f.Tast.fbody
  in
  Alcotest.(check bool) "sizeof(int) = 4 under ilp32" true found

let test_implicit_function_warns () =
  let diags = Diag.create () in
  let src = "void main(void){ mystery(1); }" in
  let prog =
    Typecheck.check ~diags ~file:"<tc>"
      (Parser.parse_string ~diags ~file:"<tc>" src)
  in
  let warned =
    List.exists
      (fun (w : Diag.payload) ->
        String.length w.Diag.message > 0
        && String.sub w.Diag.message 0 8 = "implicit")
      (Diag.warnings diags)
  in
  Alcotest.(check bool) "warning emitted" true warned;
  Alcotest.(check bool) "recorded as extern" true
    (Tast.extern_fun prog "mystery" <> None)

let test_string_type () =
  check_ty "string literal" "char *probe; void main(void){ probe = \"abc\"; }"
    "char*"
  [@@warning "-32"]

let test_scopes () =
  (* inner declarations shadow outer ones; both must resolve *)
  let prog =
    check_program
      {|
        int x;
        void main(void) {
          int x;
          x = 1;
          {
            char x;
            x = 'a';
          }
        }
      |}
  in
  ignore prog

let expect_error name src =
  match check_program src with
  | exception Diag.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a type error" name

let test_errors () =
  expect_error "undeclared variable" "void main(void){ x = 1; }";
  expect_error "no such member"
    "struct S { int a; } s; void main(void){ s.b = 1; }";
  expect_error "member of non-struct" "int x; void main(void){ x.f = 1; }";
  expect_error "deref of non-pointer" "int x; void main(void){ *x = 1; }";
  expect_error "arrow on non-pointer"
    "struct S { int a; } s; void main(void){ s->a = 1; }";
  expect_error "call of non-function" "int x; void main(void){ x(); }";
  expect_error "conflicting globals" "int x; char *x;"

(* C11 6.7p3: an identifier without linkage is declared once per scope,
   and a function's parameters share the scope of its body's outermost
   block. Two locals under one name and scope would otherwise lower to
   two distinct variables that only differ by identity. *)
let test_redeclaration () =
  expect_error "local redeclared in one block"
    "int x; void main(void){ int *a = &x; int *a = &x; }";
  expect_error "local redeclares a parameter" "void f(int *p){ int *p; }";
  expect_error "redeclared in a nested block"
    "void main(void){ { int a; char a; } }";
  (* nested, sibling and loop-body blocks each open a scope *)
  ignore
    (check_program
       "void main(void){ int a; { int a; } { int a; }\n\
       \ for (int i = 0; i < 1; i++) { int i; } }");
  (* with a context the error is a diagnostic on the declaration's line,
     and the rest of the function still checks *)
  let diags = Diag.create () in
  ignore
    (Typecheck.check ~diags ~file:"<tc>"
       (Parser.parse_string ~file:"<tc>"
          "int x; int *q;\n\
           void main(void) {\n\
          \  int *a = &x;\n\
          \  int *a = &x;\n\
          \  q = a;\n\
           }\n"));
  match Diag.errors diags with
  | [ p ] ->
      Alcotest.(check string) "message"
        "redeclaration of 'a' in the same scope" p.Diag.message;
      Alcotest.(check int) "line" 4 p.Diag.loc.Srcloc.line
  | ps -> Alcotest.failf "%d errors, expected 1" (List.length ps)

let suite =
  [
    Helpers.tc "arithmetic types" test_arith_types;
    Helpers.tc "pointer types" test_pointer_types;
    Helpers.tc "member access" test_member_access;
    Helpers.tc "calls" test_calls;
    Helpers.tc "sizeof folds" test_sizeof_folded;
    Helpers.tc "implicit function declarations warn" test_implicit_function_warns;
    Helpers.tc "scoping" test_scopes;
    Helpers.tc "type errors" test_errors;
    Helpers.tc "same-scope redeclarations are errors" test_redeclaration;
  ]
