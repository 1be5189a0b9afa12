(** Hand-written recursive-descent parser for the C subset.

    The parser owns the typedef, struct/union-tag, and enum-constant tables
    because typedef names must be distinguished from ordinary identifiers
    during parsing (the classic C ambiguity). Ordinary declarations shadow
    typedef names through a scope stack.

    Output is an untyped {!Ast.tunit}; all type syntax is resolved to
    {!Ctype.t} on the way. Enum constants are folded to integer literals.
    Array sizes and other constant expressions are folded with a layout
    configuration (needed for [sizeof] in constant contexts).

    Error recovery: a syntax error does not abort the parse. The error is
    recorded in the run's {!Diag.ctx} and the parser resynchronizes — at
    the next [;] or block boundary inside a function body, at the next
    plausible top-level declaration otherwise — and continues, yielding a
    partial AST covering everything that did parse. *)

type state = {
  mutable toks : Token.spanned list;
      (** the unread tokens: the parser walks the preprocessor's list
          and never copies it *)
  layout : Layout.config;
  diags : Diag.ctx;
  typedefs : (string, Ctype.t) Hashtbl.t;
  tags : (string, Ctype.comp) Hashtbl.t;
  enum_consts : (string, int64) Hashtbl.t;
  mutable scopes : (string, unit) Hashtbl.t list;
      (** ordinary-identifier scopes, innermost first; shadow typedefs *)
  mutable anon_count : int;
}

(* a compiled string match: the parser asks this of every identifier
   token *)
let is_keyword = function
  | "void" | "char" | "short" | "int" | "long" | "float" | "double"
  | "signed" | "unsigned" | "struct" | "union" | "enum" | "typedef"
  | "static" | "extern" | "register" | "auto" | "const" | "volatile" | "if"
  | "else" | "while" | "do" | "for" | "return" | "break" | "continue"
  | "switch" | "case" | "default" | "goto" | "sizeof" ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Cursor utilities                                                    *)
(* ------------------------------------------------------------------ *)

let eof = { Token.tok = Token.Eof; loc = Srcloc.dummy; bol = true }

let cur st : Token.spanned = match st.toks with t :: _ -> t | [] -> eof

let peek st = (cur st).Token.tok

let peek_at st n =
  let rec nth l n =
    match l with
    | [] -> Token.Eof
    | t :: rest -> if n = 0 then t.Token.tok else nth rest (n - 1)
  in
  nth st.toks n

let here st = (cur st).Token.loc

let bump st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok =
  if peek st = tok then bump st
  else
    Diag.error ~loc:(here st) "expected %s but found %s" (Token.describe tok)
      (Token.describe (peek st))

let eat st tok = if peek st = tok then (bump st; true) else false

let expect_ident st : string =
  match peek st with
  | Token.Ident s when not (is_keyword s) ->
      bump st;
      s
  | t -> Diag.error ~loc:(here st) "expected identifier, found %s" (Token.describe t)

(* ------------------------------------------------------------------ *)
(* Error recovery                                                      *)
(* ------------------------------------------------------------------ *)

(** Skip to the token after the next [;] at brace depth 0, or stop just
    before the [}] that closes the enclosing block. Used to resume
    statement parsing after a syntax error. *)
let resync_stmt st =
  let rec go depth =
    match peek st with
    | Token.Eof -> ()
    | Token.Semi when depth = 0 -> bump st
    | Token.Rbrace when depth = 0 -> ()
    | Token.Lbrace ->
        bump st;
        go (depth + 1)
    | Token.Rbrace ->
        bump st;
        go (depth - 1)
    | _ ->
        bump st;
        go depth
  in
  go 0

(** Skip to a plausible top-level boundary: past the next [;] at depth 0,
    or past the [}] that closes the construct the error occurred in. *)
let resync_global st =
  let rec go depth =
    match peek st with
    | Token.Eof -> ()
    | Token.Semi when depth = 0 -> bump st
    | Token.Lbrace ->
        bump st;
        go (depth + 1)
    | Token.Rbrace ->
        bump st;
        if depth > 1 then go (depth - 1)
    | _ ->
        bump st;
        go depth
  in
  go 0

(** Run [f]; on a syntax error, record it, make progress past the error
    token, and resynchronize with [resync]. Returns [None] on error. *)
let recovering st ~resync (f : unit -> 'a) : 'a option =
  let before = st.toks in
  match f () with
  | x -> Some x
  | exception Diag.Error p ->
      Diag.add st.diags p;
      if st.toks == before && peek st <> Token.Eof then bump st;
      resync st;
      None

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let push_scope st = st.scopes <- Hashtbl.create 16 :: st.scopes

let pop_scope st =
  match st.scopes with
  | _ :: rest -> st.scopes <- rest
  | [] -> Diag.error "internal: scope underflow"

let declare_ordinary st name =
  match st.scopes with
  | tbl :: _ -> Hashtbl.replace tbl name ()
  | [] -> Diag.error "internal: no scope"

let is_shadowed st name =
  List.exists (fun tbl -> Hashtbl.mem tbl name) st.scopes

let is_typedef_name st name =
  Hashtbl.mem st.typedefs name && not (is_shadowed st name)

let enum_const st name =
  if is_shadowed st name then None
  else Hashtbl.find_opt st.enum_consts name

(* ------------------------------------------------------------------ *)
(* Type specifier parsing                                              *)
(* ------------------------------------------------------------------ *)

type storage = Snone | Stypedef | Sstatic | Sextern

let starts_type st : bool =
  match peek st with
  | Token.Ident s ->
      (match s with
      | "void" | "char" | "short" | "int" | "long" | "float" | "double"
      | "signed" | "unsigned" | "struct" | "union" | "enum" | "const"
      | "volatile" ->
          true
      | _ -> is_typedef_name st s)
  | _ -> false

let starts_decl st : bool =
  match peek st with
  | Token.Ident ("typedef" | "static" | "extern" | "register" | "auto") ->
      true
  | _ -> starts_type st

let fresh_anon st prefix =
  st.anon_count <- st.anon_count + 1;
  Printf.sprintf "<%s#%d>" prefix st.anon_count

(* forward declarations tied via references (parser is mutually recursive
   across expression / declaration syntax because of sizeof and casts) *)
let parse_assignment_ref :
    (state -> Ast.expr) ref =
  ref (fun _ -> assert false)

let parse_expr_ref : (state -> Ast.expr) ref = ref (fun _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Constant expressions                                                *)
(* ------------------------------------------------------------------ *)

let rec eval_const st (e : Ast.expr) : int64 =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eint v -> v
  | Ast.Echar c -> Int64.of_int c
  | Ast.Eunary (Ast.Neg, a) -> Int64.neg (eval_const st a)
  | Ast.Eunary (Ast.Pos, a) -> eval_const st a
  | Ast.Eunary (Ast.Bitnot, a) -> Int64.lognot (eval_const st a)
  | Ast.Eunary (Ast.Lognot, a) ->
      if eval_const st a = 0L then 1L else 0L
  | Ast.Ebinary (op, a, b) -> (
      let x = eval_const st a and y = eval_const st b in
      let bool_ v = if v then 1L else 0L in
      match op with
      | Ast.Add -> Int64.add x y
      | Ast.Sub -> Int64.sub x y
      | Ast.Mul -> Int64.mul x y
      | Ast.Div ->
          if y = 0L then Diag.error ~loc "division by zero in constant"
          else Int64.div x y
      | Ast.Mod ->
          if y = 0L then Diag.error ~loc "modulo by zero in constant"
          else Int64.rem x y
      | Ast.Shl -> Int64.shift_left x (Int64.to_int y)
      | Ast.Shr -> Int64.shift_right x (Int64.to_int y)
      | Ast.Lt -> bool_ (x < y)
      | Ast.Gt -> bool_ (x > y)
      | Ast.Le -> bool_ (x <= y)
      | Ast.Ge -> bool_ (x >= y)
      | Ast.Eq -> bool_ (x = y)
      | Ast.Ne -> bool_ (x <> y)
      | Ast.Bitand -> Int64.logand x y
      | Ast.Bitor -> Int64.logor x y
      | Ast.Bitxor -> Int64.logxor x y
      | Ast.Logand -> bool_ (x <> 0L && y <> 0L)
      | Ast.Logor -> bool_ (x <> 0L || y <> 0L))
  | Ast.Econd (c, a, b) ->
      if eval_const st c <> 0L then eval_const st a else eval_const st b
  | Ast.Ecast (_, a) -> eval_const st a
  | Ast.Esizeof_type t -> Int64.of_int (Layout.size_of st.layout t)
  | Ast.Esizeof_expr _ ->
      Diag.error ~loc "sizeof(expression) is not supported in constants; use sizeof(type)"
  | _ -> Diag.error ~loc "expression is not constant: %s" (Ast.expr_to_string e)

(* Declarator syntax tree; interpreted against a base type. *)
type dtor =
  | Dname of string option
  | Dptr of dtor
  | Darr of dtor * int option
  | Dfun of dtor * (string * Ctype.t) list * bool

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_struct_spec st ~is_union : Ctype.t =
  (* 'struct'/'union' already consumed *)
  let tag =
    match peek st with
    | Token.Ident s when not (is_keyword s) ->
        bump st;
        Some s
    | _ -> None
  in
  let lookup_or_create tag =
    match Hashtbl.find_opt st.tags tag with
    | Some c when c.Ctype.cunion = is_union -> c
    | Some c ->
        Diag.error ~loc:(here st) "'%s' declared as both struct and union"
          c.Ctype.ctag
    | None ->
        let c = Ctype.fresh_comp ~tag ~is_union in
        Hashtbl.replace st.tags tag c;
        c
  in
  let comp =
    match tag with
    | Some tag -> lookup_or_create tag
    | None ->
        let tag = fresh_anon st (if is_union then "union" else "struct") in
        let c = Ctype.fresh_comp ~tag ~is_union in
        Hashtbl.replace st.tags tag c;
        c
  in
  if peek st = Token.Lbrace then begin
    bump st;
    if comp.Ctype.cfields <> None then
      Diag.error ~loc:(here st) "redefinition of '%s'" comp.Ctype.ctag;
    let fields = ref [] in
    while peek st <> Token.Rbrace do
      let _, base = parse_decl_specs st ~allow_storage:false in
      (* unnamed bit-field padding: "int : 3;" *)
      if peek st = Token.Colon then begin
        bump st;
        let w = eval_const st (!parse_assignment_ref st) in
        fields :=
          { Ctype.fname = fresh_anon st "pad"; fty = base;
            fbits = Some (Int64.to_int w) }
          :: !fields
      end
      else begin
        let rec one () =
          let name, ty = parse_declarator st base in
          let name =
            match name with
            | Some n -> n
            | None -> Diag.error ~loc:(here st) "field name expected"
          in
          let fbits =
            if eat st Token.Colon then
              Some (Int64.to_int (eval_const st (!parse_assignment_ref st)))
            else None
          in
          fields := { Ctype.fname = name; fty = ty; fbits } :: !fields;
          if eat st Token.Comma then one ()
        in
        one ()
      end;
      expect st Token.Semi
    done;
    expect st Token.Rbrace;
    comp.Ctype.cfields <- Some (List.rev !fields)
  end;
  Ctype.Comp comp

and parse_enum_spec st : Ctype.t =
  (* 'enum' already consumed *)
  (match peek st with
  | Token.Ident s when not (is_keyword s) -> bump st
  | _ -> ());
  if peek st = Token.Lbrace then begin
    bump st;
    let next = ref 0L in
    let rec enumerator () =
      match peek st with
      | Token.Rbrace -> ()
      | _ ->
          let name = expect_ident st in
          if eat st Token.Assign then
            next := eval_const st (!parse_assignment_ref st);
          Hashtbl.replace st.enum_consts name !next;
          next := Int64.add !next 1L;
          if eat st Token.Comma then enumerator ()
    in
    enumerator ();
    expect st Token.Rbrace
  end;
  (* enums are represented as int (compatible with int, per the paper's
     compatibility footnote) *)
  Ctype.int_t

(** Parse declaration specifiers. Returns storage class and base type.
    Qualifiers are parsed and dropped. *)
and parse_decl_specs st ~allow_storage : storage * Ctype.t =
  let storage = ref Snone in
  let set_storage s =
    if not allow_storage then
      Diag.error ~loc:(here st) "storage class not allowed here";
    if !storage <> Snone then
      Diag.error ~loc:(here st) "multiple storage classes";
    storage := s
  in
  (* accumulate base-type words *)
  let signedness = ref None in
  let base = ref None in
  let long_count = ref 0 in
  let set_base b =
    match !base with
    | None -> base := Some b
    | Some _ -> Diag.error ~loc:(here st) "multiple type specifiers"
  in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.Ident "typedef" -> bump st; set_storage Stypedef
    | Token.Ident "static" -> bump st; set_storage Sstatic
    | Token.Ident "extern" -> bump st; set_storage Sextern
    | Token.Ident ("register" | "auto" | "const" | "volatile") -> bump st
    | Token.Ident "void" -> bump st; set_base Ctype.Void
    | Token.Ident "char" -> bump st; set_base (Ctype.Int (Ctype.IChar, Ctype.Signed))
    | Token.Ident "short" -> bump st; set_base (Ctype.Int (Ctype.IShort, Ctype.Signed))
    | Token.Ident "int" ->
        bump st;
        if !base = None && !long_count = 0 then
          set_base (Ctype.Int (Ctype.IInt, Ctype.Signed))
        (* 'long int', 'short int', 'unsigned int': int is absorbed *)
    | Token.Ident "long" -> bump st; incr long_count
    | Token.Ident "float" -> bump st; set_base (Ctype.Float Ctype.FFloat)
    | Token.Ident "double" -> bump st; set_base (Ctype.Float Ctype.FDouble)
    | Token.Ident "signed" -> bump st; signedness := Some Ctype.Signed
    | Token.Ident "unsigned" -> bump st; signedness := Some Ctype.Unsigned
    | Token.Ident "struct" ->
        bump st;
        set_base (parse_struct_spec st ~is_union:false)
    | Token.Ident "union" ->
        bump st;
        set_base (parse_struct_spec st ~is_union:true)
    | Token.Ident "enum" ->
        bump st;
        set_base (parse_enum_spec st)
    | Token.Ident n
      when is_typedef_name st n && !base = None && !long_count = 0
           && !signedness = None ->
        bump st;
        set_base (Hashtbl.find st.typedefs n)
    | _ -> continue_ := false
  done;
  let ty =
    match (!base, !long_count, !signedness) with
    | Some (Ctype.Int (k, _)), lc, s ->
        let k =
          match (k, lc) with
          | k, 0 -> k
          | Ctype.IInt, 1 -> Ctype.ILong
          | Ctype.IInt, n when n >= 2 -> Ctype.ILongLong
          | k, _ ->
              ignore k;
              Diag.error ~loc:(here st) "invalid 'long' combination"
        in
        Ctype.Int (k, Option.value s ~default:Ctype.Signed)
    | Some (Ctype.Float Ctype.FDouble), lc, None when lc >= 1 ->
        Ctype.Float Ctype.FLongDouble
    | Some t, 0, None -> t
    | Some _, _, _ ->
        Diag.error ~loc:(here st) "invalid type specifier combination"
    | None, lc, s when lc > 0 || s <> None ->
        (* 'long'/'unsigned' alone imply int *)
        let k = if lc >= 2 then Ctype.ILongLong else if lc = 1 then Ctype.ILong else Ctype.IInt in
        Ctype.Int (k, Option.value s ~default:Ctype.Signed)
    | None, _, _ ->
        Diag.error ~loc:(here st) "expected type specifier, found %s"
          (Token.describe (peek st))
  in
  (!storage, ty)

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* Declarator syntax tree; interpreted against a base type. *)
and parse_declarator st (base : Ctype.t) : string option * Ctype.t =
  let dtor = parse_dtor st in
  interp_dtor st base dtor

and parse_dtor st : dtor =
  if eat st Token.Star then begin
    (* skip qualifiers after '*' *)
    let rec skip_quals () =
      match peek st with
      | Token.Ident ("const" | "volatile") -> bump st; skip_quals ()
      | _ -> ()
    in
    skip_quals ();
    Dptr (parse_dtor st)
  end
  else parse_direct_dtor st

and parse_direct_dtor st : dtor =
  let core =
    match peek st with
    | Token.Ident n when not (is_keyword n) ->
        (* a typedef name in declarator position is a redeclaration that
           shadows the typedef (e.g. "typedef int T; ... int T;") *)
        bump st;
        Dname (Some n)
    | Token.Lparen
      when (match peek_at st 1 with
           | Token.Star -> true
           | Token.Lparen -> true
           | Token.Ident n ->
               (not (is_keyword n)) && not (is_typedef_name st n)
           | Token.Rparen -> false (* "()" is a parameter list *)
           | Token.Lbracket -> true
           | _ -> false) ->
        bump st;
        let inner = parse_dtor st in
        expect st Token.Rparen;
        inner
    | _ -> Dname None (* abstract declarator *)
  in
  parse_dtor_suffixes st core

and parse_dtor_suffixes st core : dtor =
  match peek st with
  | Token.Lbracket ->
      bump st;
      let n =
        if peek st = Token.Rbracket then None
        else Some (Int64.to_int (eval_const st (!parse_assignment_ref st)))
      in
      expect st Token.Rbracket;
      parse_dtor_suffixes st (Darr (core, n))
  | Token.Lparen ->
      bump st;
      let params, varargs = parse_param_list st in
      expect st Token.Rparen;
      parse_dtor_suffixes st (Dfun (core, params, varargs))
  | _ -> core

and parse_param_list st : (string * Ctype.t) list * bool =
  if peek st = Token.Rparen then ([], true) (* K&R empty parens: unknown args *)
  else if peek st = Token.Ident "void" && peek_at st 1 = Token.Rparen then begin
    bump st;
    ([], false)
  end
  else begin
    let params = ref [] in
    let varargs = ref false in
    let rec one () =
      if peek st = Token.Ellipsis then begin
        bump st;
        varargs := true
      end
      else begin
        let _, base = parse_decl_specs st ~allow_storage:false in
        let name, ty = parse_declarator st base in
        (* parameter adjustments: arrays and functions decay *)
        let ty =
          match ty with
          | Ctype.Array (t, _) -> Ctype.Ptr t
          | Ctype.Func _ -> Ctype.Ptr ty
          | t -> t
        in
        let name = Option.value name ~default:(fresh_anon st "param") in
        params := (name, ty) :: !params;
        if eat st Token.Comma then one ()
      end
    in
    one ();
    (List.rev !params, !varargs)
  end

and interp_dtor st (base : Ctype.t) (d : dtor) : string option * Ctype.t =
  match d with
  | Dname n -> (n, base)
  | Dptr d -> interp_dtor st (Ctype.Ptr base) d
  | Darr (d, n) ->
      if Ctype.is_func base then
        Diag.error ~loc:(here st) "array of functions is not a valid type";
      interp_dtor st (Ctype.Array (base, n)) d
  | Dfun (d, params, varargs) ->
      interp_dtor st (Ctype.Func { Ctype.ret = base; params; varargs }) d

and parse_type_name st : Ctype.t =
  let _, base = parse_decl_specs st ~allow_storage:false in
  let name, ty = parse_declarator st base in
  (match name with
  | Some n -> Diag.error ~loc:(here st) "unexpected identifier '%s' in type name" n
  | None -> ());
  ty

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk loc e : Ast.expr = { Ast.e; eloc = loc }

let rec parse_primary st : Ast.expr =
  let loc = here st in
  match peek st with
  | Token.Int_lit (v, _) ->
      bump st;
      mk loc (Ast.Eint v)
  | Token.Float_lit (f, _) ->
      bump st;
      mk loc (Ast.Efloat f)
  | Token.Char_lit c ->
      bump st;
      mk loc (Ast.Echar c)
  | Token.String_lit s ->
      bump st;
      (* adjacent string literals concatenate *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match peek st with
        | Token.String_lit s2 ->
            bump st;
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      mk loc (Ast.Estr (Buffer.contents buf))
  | Token.Ident n when not (is_keyword n) -> (
      bump st;
      match enum_const st n with
      | Some v -> mk loc (Ast.Eint v)
      | None -> mk loc (Ast.Eident n))
  | Token.Lparen ->
      bump st;
      let e = !parse_expr_ref st in
      expect st Token.Rparen;
      e
  | t -> Diag.error ~loc "expected expression, found %s" (Token.describe t)

and parse_postfix st : Ast.expr =
  let e = ref (parse_primary st) in
  let rec go () =
    let loc = here st in
    match peek st with
    | Token.Lbracket ->
        bump st;
        let i = !parse_expr_ref st in
        expect st Token.Rbracket;
        e := mk loc (Ast.Eindex (!e, i));
        go ()
    | Token.Lparen ->
        bump st;
        let args = ref [] in
        if peek st <> Token.Rparen then begin
          let rec arg () =
            args := !parse_assignment_ref st :: !args;
            if eat st Token.Comma then arg ()
          in
          arg ()
        end;
        expect st Token.Rparen;
        e := mk loc (Ast.Ecall (!e, List.rev !args));
        go ()
    | Token.Dot ->
        bump st;
        let f = expect_ident st in
        e := mk loc (Ast.Efield (!e, f));
        go ()
    | Token.Arrow ->
        bump st;
        let f = expect_ident st in
        e := mk loc (Ast.Earrow (!e, f));
        go ()
    | Token.Plus_plus ->
        bump st;
        e := mk loc (Ast.Eunary (Ast.Postinc, !e));
        go ()
    | Token.Minus_minus ->
        bump st;
        e := mk loc (Ast.Eunary (Ast.Postdec, !e));
        go ()
    | _ -> ()
  in
  go ();
  !e

and parse_unary st : Ast.expr =
  let loc = here st in
  match peek st with
  | Token.Plus_plus ->
      bump st;
      mk loc (Ast.Eunary (Ast.Preinc, parse_unary st))
  | Token.Minus_minus ->
      bump st;
      mk loc (Ast.Eunary (Ast.Predec, parse_unary st))
  | Token.Amp ->
      bump st;
      mk loc (Ast.Eaddrof (parse_cast_expr st))
  | Token.Star ->
      bump st;
      mk loc (Ast.Ederef (parse_cast_expr st))
  | Token.Plus ->
      bump st;
      mk loc (Ast.Eunary (Ast.Pos, parse_cast_expr st))
  | Token.Minus ->
      bump st;
      mk loc (Ast.Eunary (Ast.Neg, parse_cast_expr st))
  | Token.Tilde ->
      bump st;
      mk loc (Ast.Eunary (Ast.Bitnot, parse_cast_expr st))
  | Token.Bang ->
      bump st;
      mk loc (Ast.Eunary (Ast.Lognot, parse_cast_expr st))
  | Token.Ident "sizeof" ->
      bump st;
      if
        peek st = Token.Lparen
        && (match peek_at st 1 with
           | Token.Ident n -> (
               match n with
               | "void" | "char" | "short" | "int" | "long" | "float"
               | "double" | "signed" | "unsigned" | "struct" | "union"
               | "enum" | "const" | "volatile" ->
                   true
               | _ -> is_typedef_name st n)
           | _ -> false)
      then begin
        bump st;
        let t = parse_type_name st in
        expect st Token.Rparen;
        mk loc (Ast.Esizeof_type t)
      end
      else mk loc (Ast.Esizeof_expr (parse_unary st))
  | _ -> parse_postfix st

and parse_cast_expr st : Ast.expr =
  let loc = here st in
  if
    peek st = Token.Lparen
    && (match peek_at st 1 with
       | Token.Ident n -> (
           match n with
           | "void" | "char" | "short" | "int" | "long" | "float" | "double"
           | "signed" | "unsigned" | "struct" | "union" | "enum" | "const"
           | "volatile" ->
               true
           | _ -> is_typedef_name st n)
       | _ -> false)
  then begin
    bump st;
    let t = parse_type_name st in
    expect st Token.Rparen;
    mk loc (Ast.Ecast (t, parse_cast_expr st))
  end
  else parse_unary st

and binop_prec (t : Token.t) : (int * Ast.binop) option =
  match t with
  | Token.Star -> Some (10, Ast.Mul)
  | Token.Slash -> Some (10, Ast.Div)
  | Token.Percent -> Some (10, Ast.Mod)
  | Token.Plus -> Some (9, Ast.Add)
  | Token.Minus -> Some (9, Ast.Sub)
  | Token.Shl -> Some (8, Ast.Shl)
  | Token.Shr -> Some (8, Ast.Shr)
  | Token.Lt -> Some (7, Ast.Lt)
  | Token.Gt -> Some (7, Ast.Gt)
  | Token.Le -> Some (7, Ast.Le)
  | Token.Ge -> Some (7, Ast.Ge)
  | Token.Eq_eq -> Some (6, Ast.Eq)
  | Token.Bang_eq -> Some (6, Ast.Ne)
  | Token.Amp -> Some (5, Ast.Bitand)
  | Token.Caret -> Some (4, Ast.Bitxor)
  | Token.Pipe -> Some (3, Ast.Bitor)
  | Token.Amp_amp -> Some (2, Ast.Logand)
  | Token.Pipe_pipe -> Some (1, Ast.Logor)
  | _ -> None

and parse_binary st min_prec : Ast.expr =
  let lhs = ref (parse_cast_expr st) in
  let rec loop () =
    match binop_prec (peek st) with
    | Some (p, op) when p >= min_prec ->
        let loc = here st in
        bump st;
        let rhs = parse_binary st (p + 1) in
        lhs := mk loc (Ast.Ebinary (op, !lhs, rhs));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_conditional st : Ast.expr =
  let c = parse_binary st 1 in
  if peek st = Token.Question then begin
    let loc = here st in
    bump st;
    let a = !parse_expr_ref st in
    expect st Token.Colon;
    let b = parse_conditional st in
    mk loc (Ast.Econd (c, a, b))
  end
  else c

and parse_assignment st : Ast.expr =
  let lhs = parse_conditional st in
  let assign_op : Ast.binop option option =
    match peek st with
    | Token.Assign -> Some None
    | Token.Plus_assign -> Some (Some Ast.Add)
    | Token.Minus_assign -> Some (Some Ast.Sub)
    | Token.Star_assign -> Some (Some Ast.Mul)
    | Token.Slash_assign -> Some (Some Ast.Div)
    | Token.Percent_assign -> Some (Some Ast.Mod)
    | Token.Amp_assign -> Some (Some Ast.Bitand)
    | Token.Pipe_assign -> Some (Some Ast.Bitor)
    | Token.Caret_assign -> Some (Some Ast.Bitxor)
    | Token.Shl_assign -> Some (Some Ast.Shl)
    | Token.Shr_assign -> Some (Some Ast.Shr)
    | _ -> None
  in
  match assign_op with
  | Some op ->
      let loc = here st in
      bump st;
      let rhs = parse_assignment st in
      mk loc (Ast.Eassign (op, lhs, rhs))
  | None -> lhs

and parse_expr st : Ast.expr =
  let e = parse_assignment st in
  if peek st = Token.Comma then begin
    let loc = here st in
    bump st;
    let rest = parse_expr st in
    mk loc (Ast.Ecomma (e, rest))
  end
  else e

let () = parse_assignment_ref := parse_assignment
let () = parse_expr_ref := parse_expr

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_init st : Ast.init =
  if peek st = Token.Lbrace then begin
    bump st;
    let items = ref [] in
    if peek st <> Token.Rbrace then begin
      let rec one () =
        items := parse_init st :: !items;
        if eat st Token.Comma && peek st <> Token.Rbrace then one ()
      in
      one ()
    end;
    expect st Token.Rbrace;
    Ast.Ilist (List.rev !items)
  end
  else Ast.Iexpr (parse_assignment st)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt =
  let loc = here st in
  let mk s : Ast.stmt = { Ast.s; sloc = loc } in
  match peek st with
  | Token.Semi ->
      bump st;
      mk Ast.Snull
  | Token.Lbrace -> mk (Ast.Sblock (parse_block st))
  | Token.Ident "if" ->
      bump st;
      expect st Token.Lparen;
      let c = parse_expr st in
      expect st Token.Rparen;
      let then_ = parse_stmt st in
      let else_ =
        if peek st = Token.Ident "else" then begin
          bump st;
          Some (parse_stmt st)
        end
        else None
      in
      mk (Ast.Sif (c, then_, else_))
  | Token.Ident "while" ->
      bump st;
      expect st Token.Lparen;
      let c = parse_expr st in
      expect st Token.Rparen;
      mk (Ast.Swhile (c, parse_stmt st))
  | Token.Ident "do" ->
      bump st;
      let body = parse_stmt st in
      (match peek st with
      | Token.Ident "while" -> bump st
      | t -> Diag.error ~loc:(here st) "expected 'while', found %s" (Token.describe t));
      expect st Token.Lparen;
      let c = parse_expr st in
      expect st Token.Rparen;
      expect st Token.Semi;
      mk (Ast.Sdo (body, c))
  | Token.Ident "for" ->
      bump st;
      expect st Token.Lparen;
      push_scope st;
      let init =
        if peek st = Token.Semi then (bump st; None)
        else if starts_decl st then Some (parse_local_decl st)
        else begin
          let e = parse_expr st in
          expect st Token.Semi;
          Some { Ast.s = Ast.Sexpr e; sloc = loc }
        end
      in
      let cond = if peek st = Token.Semi then None else Some (parse_expr st) in
      expect st Token.Semi;
      let step = if peek st = Token.Rparen then None else Some (parse_expr st) in
      expect st Token.Rparen;
      let body = parse_stmt st in
      pop_scope st;
      mk (Ast.Sfor (init, cond, step, body))
  | Token.Ident "return" ->
      bump st;
      let e = if peek st = Token.Semi then None else Some (parse_expr st) in
      expect st Token.Semi;
      mk (Ast.Sreturn e)
  | Token.Ident "break" ->
      bump st;
      expect st Token.Semi;
      mk Ast.Sbreak
  | Token.Ident "continue" ->
      bump st;
      expect st Token.Semi;
      mk Ast.Scontinue
  | Token.Ident "switch" ->
      bump st;
      expect st Token.Lparen;
      let e = parse_expr st in
      expect st Token.Rparen;
      mk (Ast.Sswitch (e, parse_stmt st))
  | Token.Ident "case" ->
      bump st;
      let e = parse_conditional st in
      expect st Token.Colon;
      mk (Ast.Slabel (Ast.Lcase e, parse_stmt st))
  | Token.Ident "default" ->
      bump st;
      expect st Token.Colon;
      mk (Ast.Slabel (Ast.Ldefault, parse_stmt st))
  | Token.Ident "goto" ->
      bump st;
      let l = expect_ident st in
      expect st Token.Semi;
      mk (Ast.Sgoto l)
  | Token.Ident n
    when (not (is_keyword n))
         && (not (is_typedef_name st n))
         && peek_at st 1 = Token.Colon ->
      bump st;
      bump st;
      mk (Ast.Slabel (Ast.Lname n, parse_stmt st))
  | _ when starts_decl st -> parse_local_decl st
  | _ ->
      let e = parse_expr st in
      expect st Token.Semi;
      mk (Ast.Sexpr e)

and parse_block st : Ast.stmt list =
  expect st Token.Lbrace;
  push_scope st;
  let stmts = ref [] in
  while peek st <> Token.Rbrace && peek st <> Token.Eof do
    match recovering st ~resync:resync_stmt (fun () -> parse_stmt st) with
    | Some s -> stmts := s :: !stmts
    | None -> ()
  done;
  pop_scope st;
  expect st Token.Rbrace;
  List.rev !stmts

(** A local declaration statement (including the trailing ';'). *)
and parse_local_decl st : Ast.stmt =
  let loc = here st in
  let storage, base = parse_decl_specs st ~allow_storage:true in
  if storage = Stypedef then begin
    let rec one () =
      let name, ty = parse_declarator st base in
      (match name with
      | Some n -> Hashtbl.replace st.typedefs n ty
      | None -> Diag.error ~loc "typedef requires a name");
      if eat st Token.Comma then one ()
    in
    one ();
    expect st Token.Semi;
    { Ast.s = Ast.Snull; sloc = loc }
  end
  else begin
    let decls = ref [] in
    (* a bare "struct S;" or "struct S { ... };" declares only the tag *)
    if peek st = Token.Semi then begin
      bump st;
      { Ast.s = Ast.Snull; sloc = loc }
    end
    else begin
      let rec one () =
        let name, ty = parse_declarator st base in
        let name =
          match name with
          | Some n -> n
          | None -> Diag.error ~loc "declaration requires a name"
        in
        declare_ordinary st name;
        let dinit = if eat st Token.Assign then Some (parse_init st) else None in
        decls :=
          {
            Ast.dname = name;
            dty = ty;
            dinit;
            dloc = loc;
            dstatic = storage = Sstatic;
            dextern = storage = Sextern;
          }
          :: !decls;
        if eat st Token.Comma then one ()
      in
      one ();
      expect st Token.Semi;
      { Ast.s = Ast.Sdecl (List.rev !decls); sloc = loc }
    end
  end

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_global st (acc : Ast.global list ref) : unit =
  let loc = here st in
  let storage, base = parse_decl_specs st ~allow_storage:true in
  if storage = Stypedef then begin
    let rec one () =
      let name, ty = parse_declarator st base in
      (match name with
      | Some n -> Hashtbl.replace st.typedefs n ty
      | None -> Diag.error ~loc "typedef requires a name");
      if eat st Token.Comma then one ()
    in
    one ();
    expect st Token.Semi
  end
  else if peek st = Token.Semi then
    (* pure type declaration: "struct S { ... };" *)
    bump st
  else begin
    let name, ty = parse_declarator st base in
    let name =
      match name with
      | Some n -> n
      | None -> Diag.error ~loc "declaration requires a name"
    in
    match ty with
    | Ctype.Func fty when peek st = Token.Lbrace ->
        (* function definition *)
        declare_ordinary st name;
        push_scope st;
        List.iter (fun (p, _) -> declare_ordinary st p) fty.Ctype.params;
        let body = parse_block st in
        pop_scope st;
        acc :=
          Ast.Gfun
            {
              Ast.fname = name;
              fty;
              fbody = body;
              floc = loc;
              fstatic = storage = Sstatic;
            }
          :: !acc
    | _ ->
        let rec one name ty =
          declare_ordinary st name;
          (match ty with
          | Ctype.Func _ -> acc := Ast.Gproto (name, ty, loc) :: !acc
          | _ ->
              let dinit =
                if eat st Token.Assign then Some (parse_init st) else None
              in
              acc :=
                Ast.Gvar
                  {
                    Ast.dname = name;
                    dty = ty;
                    dinit;
                    dloc = loc;
                    dstatic = storage = Sstatic;
                    dextern = storage = Sextern;
                  }
                :: !acc);
          if eat st Token.Comma then begin
            let name2, ty2 = parse_declarator st base in
            match name2 with
            | Some n -> one n ty2
            | None -> Diag.error ~loc "declaration requires a name"
          end
        in
        one name ty;
        expect st Token.Semi
  end

let create ?(layout = Layout.default) ~diags toks : state =
  {
    toks;
    layout;
    diags;
    typedefs = Hashtbl.create 32;
    tags = Hashtbl.create 32;
    enum_consts = Hashtbl.create 32;
    scopes = [ Hashtbl.create 64 ];
    anon_count = 0;
  }

(** Parse a complete translation unit from preprocessed tokens.

    With [~diags], syntax errors are recorded there and the parser
    recovers, returning a partial AST. Without it, the first recorded
    error is re-raised after the parse — the historical fail-fast
    contract. *)
let parse_tokens ?layout ?diags (toks : Token.spanned list) : Ast.tunit =
  let d = match diags with Some d -> d | None -> Diag.create () in
  let st = create ?layout ~diags:d toks in
  let acc = ref [] in
  while peek st <> Token.Eof do
    match recovering st ~resync:resync_global (fun () -> parse_global st acc) with
    | Some () | None -> ()
  done;
  let tu = { Ast.globals = List.rev !acc } in
  (match (diags, Diag.first_error d) with
  | None, Some p -> raise (Diag.Error p)
  | _ -> ());
  tu

(** Convenience: preprocess and parse a source string. *)
let parse_string ?layout ?defines ?resolve ?diags ~file src : Ast.tunit =
  let toks = Preproc.run ?defines ?resolve ~file src in
  parse_tokens ?layout ?diags toks
