(** Type checker: resolves identifiers to {!Cvar.t}, computes the C type of
    every expression, folds [sizeof], and rewrites [e->f] into [( *e).f].

    The checker is deliberately permissive where the analysis does not need
    strictness (e.g. integer conversion ranks are approximate): its job is
    to assign the {e declared} types the pointer analysis framework depends
    on, not to validate conformance. *)

type env = {
  layout : Layout.config;
  diags : Diag.ctx;
  globals : (string, Cvar.t) Hashtbl.t;  (** objects and functions *)
  mutable scopes : (string, Cvar.t) Hashtbl.t list;
  mutable current_fun : string;
  mutable implicit_externs : Cvar.t list;
}

let create_env layout diags =
  {
    layout;
    diags;
    globals = Hashtbl.create 64;
    scopes = [];
    current_fun = "";
    implicit_externs = [];
  }

let push_scope env = env.scopes <- Hashtbl.create 16 :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> Diag.error "internal: typecheck scope underflow"

(* C11 6.7p3: an identifier with no linkage is declared once per scope
   (a function's parameters share the scope of its outermost block) *)
let bind_local ?loc env (v : Cvar.t) =
  match env.scopes with
  | tbl :: _ ->
      if Hashtbl.mem tbl v.Cvar.vname then
        Diag.error ?loc "redeclaration of '%s' in the same scope" v.Cvar.vname;
      Hashtbl.replace tbl v.Cvar.vname v
  | [] -> Diag.error "internal: no local scope"

let lookup env name : Cvar.t option =
  let rec in_scopes = function
    | [] -> Hashtbl.find_opt env.globals name
    | tbl :: rest -> (
        match Hashtbl.find_opt tbl name with
        | Some v -> Some v
        | None -> in_scopes rest)
  in
  in_scopes env.scopes

(* ------------------------------------------------------------------ *)
(* Type algebra                                                        *)
(* ------------------------------------------------------------------ *)

let integer_rank = function
  | Ctype.IChar -> 1
  | Ctype.IShort -> 2
  | Ctype.IInt -> 3
  | Ctype.ILong -> 4
  | Ctype.ILongLong -> 5

(** Integer promotion: everything below int promotes to int. *)
let promote = function
  | Ctype.Int (k, _) when integer_rank k < integer_rank Ctype.IInt ->
      Ctype.int_t
  | t -> t

(** Usual arithmetic conversions (approximate, sufficient for analysis). *)
let usual_arith t1 t2 =
  match (t1, t2) with
  | Ctype.Float Ctype.FLongDouble, _ | _, Ctype.Float Ctype.FLongDouble ->
      Ctype.Float Ctype.FLongDouble
  | Ctype.Float Ctype.FDouble, _ | _, Ctype.Float Ctype.FDouble ->
      Ctype.double_t
  | Ctype.Float Ctype.FFloat, _ | _, Ctype.Float Ctype.FFloat -> Ctype.float_t
  | t1, t2 -> (
      match (promote t1, promote t2) with
      | Ctype.Int (k1, s1), Ctype.Int (k2, s2) ->
          let k = if integer_rank k1 >= integer_rank k2 then k1 else k2 in
          let s =
            if s1 = Ctype.Unsigned || s2 = Ctype.Unsigned then Ctype.Unsigned
            else Ctype.Signed
          in
          Ctype.Int (k, s)
      | a, _ -> a)

(** The type an expression takes when used as a value: arrays decay to
    pointers to their element, functions to function pointers. *)
let decay = function
  | Ctype.Array (t, _) -> Ctype.Ptr t
  | Ctype.Func _ as f -> Ctype.Ptr f
  | t -> t

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk ~loc ty node : Tast.texpr = { Tast.te = node; tty = ty; tloc = loc }

let rec check_expr env (e : Ast.expr) : Tast.texpr =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Eint v -> mk ~loc Ctype.int_t (Tast.Tconst_int v)
  | Ast.Efloat f -> mk ~loc Ctype.double_t (Tast.Tconst_float f)
  | Ast.Echar c -> mk ~loc Ctype.int_t (Tast.Tconst_int (Int64.of_int c))
  | Ast.Estr s ->
      mk ~loc
        (Ctype.Array (Ctype.char_t, Some (String.length s + 1)))
        (Tast.Tconst_str s)
  | Ast.Eident n -> (
      match lookup env n with
      | Some v -> mk ~loc v.Cvar.vty (Tast.Tvar v)
      | None -> Diag.error ~loc "undeclared identifier '%s'" n)
  | Ast.Eunary (((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec) as op), a)
    ->
      let a' = check_expr env a in
      mk ~loc (decay a'.Tast.tty) (Tast.Tunary (op, a'))
  | Ast.Eunary (Ast.Lognot, a) ->
      let a' = check_expr env a in
      mk ~loc Ctype.int_t (Tast.Tunary (Ast.Lognot, a'))
  | Ast.Eunary (((Ast.Neg | Ast.Pos | Ast.Bitnot) as op), a) ->
      let a' = check_expr env a in
      mk ~loc (promote (decay a'.Tast.tty)) (Tast.Tunary (op, a'))
  | Ast.Ebinary (op, a, b) -> check_binary env ~loc op a b
  | Ast.Eassign (op, l, r) ->
      let l' = check_expr env l in
      let r' = check_expr env r in
      mk ~loc (decay l'.Tast.tty) (Tast.Tassign (op, l', r'))
  | Ast.Econd (c, a, b) ->
      let c' = check_expr env c in
      let a' = check_expr env a in
      let b' = check_expr env b in
      let ta = decay a'.Tast.tty and tb = decay b'.Tast.tty in
      let ty =
        if Ctype.is_arith ta && Ctype.is_arith tb then usual_arith ta tb
        else if Ctype.is_ptr ta && not (Ctype.is_ptr tb) then ta
        else if Ctype.is_ptr tb && not (Ctype.is_ptr ta) then tb
        else if Ctype.is_void ta then tb
        else ta
      in
      mk ~loc ty (Tast.Tcond (c', a', b'))
  | Ast.Ecomma (a, b) ->
      let a' = check_expr env a in
      let b' = check_expr env b in
      mk ~loc (decay b'.Tast.tty) (Tast.Tcomma (a', b'))
  | Ast.Ecast (t, a) ->
      let a' = check_expr env a in
      mk ~loc t (Tast.Tcast (t, a'))
  | Ast.Esizeof_expr a ->
      let a' = check_expr env a in
      mk ~loc Ctype.ulong_t
        (Tast.Tconst_int (Int64.of_int (Layout.size_of env.layout a'.Tast.tty)))
  | Ast.Esizeof_type t ->
      mk ~loc Ctype.ulong_t
        (Tast.Tconst_int (Int64.of_int (Layout.size_of env.layout t)))
  | Ast.Ecall (f, args) -> check_call env ~loc f args
  | Ast.Eindex (a, i) ->
      let a' = check_expr env a in
      let i' = check_expr env i in
      (* support both a[i] and i[a] *)
      let arr, idx =
        if
          Ctype.is_array a'.Tast.tty
          || Ctype.is_ptr (decay a'.Tast.tty)
        then (a', i')
        else (i', a')
      in
      let elem =
        match arr.Tast.tty with
        | Ctype.Array (t, _) -> t
        | Ctype.Ptr t -> t
        | t ->
            Diag.error ~loc "subscript of non-pointer type %s"
              (Ctype.to_string t)
      in
      mk ~loc elem (Tast.Tindex (arr, idx))
  | Ast.Efield (a, f) ->
      let a' = check_expr env a in
      let fty = field_type ~loc a'.Tast.tty f in
      mk ~loc fty (Tast.Tfield (a', f))
  | Ast.Earrow (a, f) ->
      let a' = check_expr env a in
      let pointee =
        match decay a'.Tast.tty with
        | Ctype.Ptr t -> t
        | t ->
            Diag.error ~loc "'->' on non-pointer type %s" (Ctype.to_string t)
      in
      let fty = field_type ~loc pointee f in
      let deref = mk ~loc:a'.Tast.tloc pointee (Tast.Tderef a') in
      mk ~loc fty (Tast.Tfield (deref, f))
  | Ast.Ederef a -> (
      let a' = check_expr env a in
      match decay a'.Tast.tty with
      | Ctype.Ptr (Ctype.Func _ as ft) ->
          (* *fnptr is the function again *)
          mk ~loc ft (Tast.Tderef a')
      | Ctype.Ptr t -> mk ~loc t (Tast.Tderef a')
      | t -> Diag.error ~loc "dereference of non-pointer type %s" (Ctype.to_string t))
  | Ast.Eaddrof a ->
      let a' = check_expr env a in
      mk ~loc (Ctype.Ptr a'.Tast.tty) (Tast.Taddrof a')

and field_type ~loc ty f : Ctype.t =
  let base = Ctype.strip_arrays ty in
  if not (Ctype.is_comp base) then
    Diag.error ~loc "member access '.%s' on non-struct type %s" f
      (Ctype.to_string ty);
  match Ctype.find_field base f with
  | Some fld -> fld.Ctype.fty
  | None -> Diag.error ~loc "no member '%s' in %s" f (Ctype.to_string base)

and check_binary env ~loc op a b : Tast.texpr =
  let a' = check_expr env a in
  let b' = check_expr env b in
  let ta = decay a'.Tast.tty and tb = decay b'.Tast.tty in
  let ty =
    match op with
    | Ast.Add ->
        if Ctype.is_ptr ta then ta
        else if Ctype.is_ptr tb then tb
        else usual_arith ta tb
    | Ast.Sub ->
        if Ctype.is_ptr ta && Ctype.is_ptr tb then Ctype.long_t
        else if Ctype.is_ptr ta then ta
        else usual_arith ta tb
    | Ast.Mul | Ast.Div | Ast.Mod | Ast.Bitand | Ast.Bitor | Ast.Bitxor ->
        usual_arith ta tb
    | Ast.Shl | Ast.Shr -> promote ta
    | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Logand
    | Ast.Logor ->
        Ctype.int_t
  in
  mk ~loc ty (Tast.Tbinary (op, a', b'))

and check_call env ~loc f args : Tast.texpr =
  let f' =
    match f.Ast.e with
    | Ast.Eident n -> (
        match lookup env n with
        | Some v -> mk ~loc:f.Ast.eloc v.Cvar.vty (Tast.Tvar v)
        | None ->
            (* implicit declaration: int n(...) *)
            Diag.warn env.diags ~loc "implicit declaration of function '%s'" n;
            let fty =
              Ctype.Func { Ctype.ret = Ctype.int_t; params = []; varargs = true }
            in
            let v = Cvar.fresh ~name:n ~ty:fty ~kind:(Cvar.Funval n) in
            Hashtbl.replace env.globals n v;
            env.implicit_externs <- v :: env.implicit_externs;
            mk ~loc:f.Ast.eloc fty (Tast.Tvar v))
    | _ -> check_expr env f
  in
  let ret =
    match decay f'.Tast.tty with
    | Ctype.Ptr (Ctype.Func { Ctype.ret; _ }) -> ret
    | Ctype.Func { Ctype.ret; _ } -> ret
    | t -> Diag.error ~loc "call of non-function type %s" (Ctype.to_string t)
  in
  let args' = List.map (check_expr env) args in
  mk ~loc ret (Tast.Tcall (f', args'))

(* ------------------------------------------------------------------ *)
(* Initializers, statements, declarations                              *)
(* ------------------------------------------------------------------ *)

let rec check_init env (i : Ast.init) : Tast.tinit =
  match i with
  | Ast.Iexpr e -> Tast.Tiexpr (check_expr env e)
  | Ast.Ilist is -> Tast.Tilist (List.map (check_init env) is)

let check_decl env ~local (d : Ast.decl) : Tast.tdecl =
  let kind =
    if local then Cvar.Local env.current_fun else Cvar.Global
  in
  let v =
    if local then Cvar.fresh ~name:d.Ast.dname ~ty:d.Ast.dty ~kind
    else
      (* reuse tentative global definitions / extern declarations *)
      match Hashtbl.find_opt env.globals d.Ast.dname with
      | Some v when Ctype.equal v.Cvar.vty d.Ast.dty -> v
      | Some v
        when Ctype.compatible v.Cvar.vty d.Ast.dty
             || Ctype.is_array v.Cvar.vty || Ctype.is_array d.Ast.dty ->
          v (* e.g. extern char a[]; then char a[10]; *)
      | Some v ->
          Diag.error ~loc:d.Ast.dloc
            "conflicting types for '%s' (%s vs %s)" d.Ast.dname
            (Ctype.to_string v.Cvar.vty)
            (Ctype.to_string d.Ast.dty)
      | None -> Cvar.fresh ~name:d.Ast.dname ~ty:d.Ast.dty ~kind
  in
  if local then bind_local ~loc:d.Ast.dloc env v
  else Hashtbl.replace env.globals d.Ast.dname v;
  let dinit = Option.map (check_init env) d.Ast.dinit in
  { Tast.dvar = v; dinit; dloc = d.Ast.dloc }

let rec check_stmt env (s : Ast.stmt) : Tast.tstmt =
  let loc = s.Ast.sloc in
  let mk ts : Tast.tstmt = { Tast.ts; tsloc = loc } in
  match s.Ast.s with
  | Ast.Sexpr e -> mk (Tast.TSexpr (check_expr env e))
  | Ast.Sdecl ds -> mk (Tast.TSdecl (List.map (check_decl env ~local:true) ds))
  | Ast.Sblock ss ->
      push_scope env;
      let ss' = List.map (check_stmt env) ss in
      pop_scope env;
      mk (Tast.TSblock ss')
  | Ast.Sif (c, t, e) ->
      mk
        (Tast.TSif
           ( check_expr env c,
             check_stmt env t,
             Option.map (check_stmt env) e ))
  | Ast.Swhile (c, b) -> mk (Tast.TSwhile (check_expr env c, check_stmt env b))
  | Ast.Sdo (b, c) -> mk (Tast.TSdo (check_stmt env b, check_expr env c))
  | Ast.Sfor (i, c, st, b) ->
      push_scope env;
      let i' = Option.map (check_stmt env) i in
      let c' = Option.map (check_expr env) c in
      let st' = Option.map (check_expr env) st in
      let b' = check_stmt env b in
      pop_scope env;
      mk (Tast.TSfor (i', c', st', b'))
  | Ast.Sreturn e -> mk (Tast.TSreturn (Option.map (check_expr env) e))
  | Ast.Sbreak -> mk Tast.TSbreak
  | Ast.Scontinue -> mk Tast.TScontinue
  | Ast.Sswitch (e, b) -> mk (Tast.TSswitch (check_expr env e, check_stmt env b))
  | Ast.Slabel (l, b) ->
      let l' =
        match l with
        | Ast.Lcase e -> (
            let e' = check_expr env e in
            match e'.Tast.te with
            | Tast.Tconst_int v -> Tast.TLcase v
            | _ ->
                (* non-constant case values are tolerated: the analysis is
                   flow-insensitive, so the value is irrelevant *)
                Tast.TLcase 0L)
        | Ast.Ldefault -> Tast.TLdefault
        | Ast.Lname n -> Tast.TLname n
      in
      mk (Tast.TSlabel (l', check_stmt env b))
  | Ast.Sgoto l -> mk (Tast.TSgoto l)
  | Ast.Snull -> mk Tast.TSnull

(* ------------------------------------------------------------------ *)
(* Translation unit                                                    *)
(* ------------------------------------------------------------------ *)

let declare_function env name ty : Cvar.t =
  match Hashtbl.find_opt env.globals name with
  | Some v -> v
  | None ->
      let v = Cvar.fresh ~name ~ty ~kind:(Cvar.Funval name) in
      Hashtbl.replace env.globals name v;
      v

let check_fun env (f : Ast.fundef) : Tast.tfun =
  let fty = f.Ast.fty in
  let fvar = declare_function env f.Ast.fname (Ctype.Func fty) in
  env.current_fun <- f.Ast.fname;
  push_scope env;
  let fparams =
    List.map
      (fun (pn, pt) ->
        let v = Cvar.fresh ~name:pn ~ty:pt ~kind:(Cvar.Param f.Ast.fname) in
        bind_local env v;
        v)
      fty.Ctype.params
  in
  let fret =
    if Ctype.is_void fty.Ctype.ret then None
    else
      Some
        (Cvar.fresh ~name:"$ret" ~ty:fty.Ctype.ret ~kind:(Cvar.Ret f.Ast.fname))
  in
  let fvararg =
    if fty.Ctype.varargs then
      Some
        (Cvar.fresh ~name:"$varargs" ~ty:(Ctype.Ptr Ctype.Void)
           ~kind:(Cvar.Vararg f.Ast.fname))
    else None
  in
  (* per-statement recovery: a statement that fails to check is recorded
     and dropped; the rest of the function (and program) still checks, so
     analysis proceeds on every valid function *)
  let scope_depth = List.length env.scopes in
  let fbody =
    List.filter_map
      (fun s ->
        match check_stmt env s with
        | s' -> Some s'
        | exception Diag.Error p ->
            Diag.add env.diags p;
            (* unwind scopes the failed statement left open *)
            while List.length env.scopes > scope_depth do
              pop_scope env
            done;
            None)
      f.Ast.fbody
  in
  pop_scope env;
  env.current_fun <- "";
  { Tast.ffvar = fvar; fparams; fret; fvararg; fbody; ffloc = f.Ast.floc }

(** Type-check a parsed translation unit.

    With [~diags], check errors are recorded there and the offending
    statement/declaration is dropped (recovery); without it, the first
    recorded error is re-raised at the end — the historical fail-fast
    contract. *)
let check ?(layout = Layout.default) ?diags ?(file = "<input>")
    (tu : Ast.tunit) : Tast.program =
  let d = match diags with Some d -> d | None -> Diag.create () in
  let env = create_env layout d in
  (* pass 1: declare all functions and globals so bodies can refer to
     later definitions *)
  List.iter
    (fun g ->
      match g with
      | Ast.Gfun f -> ignore (declare_function env f.Ast.fname (Ctype.Func f.Ast.fty))
      | Ast.Gproto (n, t, _) -> ignore (declare_function env n t)
      | Ast.Gvar d ->
          if not (Hashtbl.mem env.globals d.Ast.dname) then
            Hashtbl.replace env.globals d.Ast.dname
              (Cvar.fresh ~name:d.Ast.dname ~ty:d.Ast.dty ~kind:Cvar.Global))
    tu.Ast.globals;
  (* pass 2: check bodies and initializers in order; a global that fails
     is recorded and dropped so the rest of the unit still checks *)
  let globals = ref [] in
  let funcs = ref [] in
  List.iter
    (fun g ->
      try
        match g with
        | Ast.Gvar d -> globals := check_decl env ~local:false d :: !globals
        | Ast.Gfun f -> funcs := check_fun env f :: !funcs
        | Ast.Gproto _ -> ()
      with Diag.Error p -> Diag.add env.diags p)
    tu.Ast.globals;
  let funcs = List.rev !funcs in
  let defined = List.map (fun f -> f.Tast.ffvar.Cvar.vname) funcs in
  let pexterns =
    Hashtbl.fold
      (fun _ v acc ->
        match v.Cvar.vkind with
        | Cvar.Funval n when not (List.mem n defined) -> v :: acc
        | _ -> acc)
      env.globals []
  in
  let prog =
    {
      Tast.pglobals = List.rev !globals;
      pfuncs = funcs;
      pexterns;
      pfile = file;
    }
  in
  (match (diags, Diag.first_error d) with
  | None, Some p -> raise (Diag.Error p)
  | _ -> ());
  prog
