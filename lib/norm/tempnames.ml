(** Positional canonicalization of lowering temporaries.

    {!Lower.fresh_temp} names temporaries from a single program-wide
    counter ([$t1], [$t2], …), so inserting one statement mid-function
    renumbers every later temporary in the program. Identity-free keys
    built from variable names ([Incr.Progdiff.var_key] and statement
    keys) then see every downstream statement as changed, which turns a
    one-line edit into a program-wide diff for [Incr.Progdiff.align].

    This pass renames each temporary from its first occurrence: the
    containing statement's {e erased shape} (temporaries print as a
    placeholder, everything else as qualified name + type), the
    statement's ordinal among same-shaped statements of its scope, and
    the temporary's position within the statement. The name
    [$t<shape-hash>_<ordinal>_<position>] is unique within the scope
    (one slot of one statement holds one variable) and — the point —
    stable under insertion: a new statement elsewhere in the function
    changes no existing statement's shape, and ordinals only shift for
    later statements of the {e same} shape, a bounded perturbation
    instead of a program-wide one.

    Scopes are processed independently (global initializers under
    ["<init>"], then each function), matching the [Temp of scope]
    variable kind, so renames never leak across functions. *)

open Cfront

module Itbl = Idtbl.Int

(* Erased token: temporaries become a placeholder carrying only their
   type (their names are what this pass is erasing); everything else
   contributes its qualified name and type. *)
let token (v : Cvar.t) : string =
  match v.Cvar.vkind with
  | Cvar.Temp _ -> "$T:" ^ Ctype.to_string v.Cvar.vty
  | _ -> Cvar.qualified_name v ^ ":" ^ Ctype.to_string v.Cvar.vty

let path_str (p : Ctype.path) = Ctype.path_to_string p

let shape (k : Nast.kind) : string =
  match k with
  | Nast.Addr (s, t, b) ->
      Printf.sprintf "A|%s|%s|%s" (token s) (token t) (path_str b)
  | Nast.Addr_deref (s, p, a) ->
      Printf.sprintf "D|%s|%s|%s" (token s) (token p) (path_str a)
  | Nast.Copy (s, t, b) ->
      Printf.sprintf "C|%s|%s|%s" (token s) (token t) (path_str b)
  | Nast.Load (s, q) -> Printf.sprintf "L|%s|%s" (token s) (token q)
  | Nast.Store (p, v) -> Printf.sprintf "S|%s|%s" (token p) (token v)
  | Nast.Arith (s, v) -> Printf.sprintf "R|%s|%s" (token s) (token v)
  | Nast.Call { Nast.cret; cfn; cargs } ->
      Printf.sprintf "K|%s|%s|%s"
        (match cret with Some r -> token r | None -> "")
        (match cfn with
        | Nast.Direct n -> "d:" ^ n
        | Nast.Indirect v -> "i:" ^ token v)
        (String.concat "," (List.map token cargs))

(* Variables of a statement in positional order, the order the name's
   [<position>] component indexes. *)
let vars_of_kind (k : Nast.kind) : Cvar.t list =
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

let map_kind (f : Cvar.t -> Cvar.t) (k : Nast.kind) : Nast.kind =
  match k with
  | Nast.Addr (s, t, b) -> Nast.Addr (f s, f t, b)
  | Nast.Addr_deref (s, p, a) -> Nast.Addr_deref (f s, f p, a)
  | Nast.Copy (s, t, b) -> Nast.Copy (f s, f t, b)
  | Nast.Load (s, q) -> Nast.Load (f s, f q)
  | Nast.Store (p, v) -> Nast.Store (f p, f v)
  | Nast.Arith (s, v) -> Nast.Arith (f s, f v)
  | Nast.Call { Nast.cret; cfn; cargs } ->
      Nast.Call
        {
          Nast.cret = Option.map f cret;
          cfn =
            (match cfn with
            | Nast.Direct n -> Nast.Direct n
            | Nast.Indirect v -> Nast.Indirect (f v));
          cargs = List.map f cargs;
        }

(* Extend [rename] (vid → replacement) with canonical names for every
   temporary of one scope's statement list. *)
let rename_scope (rename : Cvar.t Itbl.t) (stmts : Nast.stmt list) : unit =
  let shapes = List.map (fun (s : Nast.stmt) -> shape s.Nast.kind) stmts in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter2
    (fun (s : Nast.stmt) sh ->
      let ord = Option.value (Hashtbl.find_opt seen sh) ~default:0 in
      Hashtbl.replace seen sh (ord + 1);
      let h = String.sub (Digest.to_hex (Digest.string sh)) 0 8 in
      List.iteri
        (fun pos (v : Cvar.t) ->
          match v.Cvar.vkind with
          | Cvar.Temp _ when not (Itbl.mem rename v.Cvar.vid) ->
              Itbl.replace rename v.Cvar.vid
                (Cvar.fresh
                   ~name:(Printf.sprintf "$t%s_%d_%d" h ord pos)
                   ~ty:v.Cvar.vty ~kind:v.Cvar.vkind)
          | _ -> ())
        (vars_of_kind s.Nast.kind))
    stmts shapes

(** Rename every temporary of [prog] to its positional canonical name.
    Statements, function records, and [pall_vars] are rebuilt; all other
    variables keep their identity. *)
let canonicalize (prog : Nast.program) : Nast.program =
  let rename : Cvar.t Itbl.t = Itbl.create 128 in
  rename_scope rename prog.Nast.pinit;
  List.iter (fun (f : Nast.func) -> rename_scope rename f.Nast.fstmts) prog.Nast.pfuncs;
  if Itbl.length rename = 0 then prog
  else begin
    let subst (v : Cvar.t) =
      match Itbl.find_opt rename v.Cvar.vid with Some v' -> v' | None -> v
    in
    let map_stmt (s : Nast.stmt) =
      { s with Nast.kind = map_kind subst s.Nast.kind }
    in
    {
      prog with
      Nast.pinit = List.map map_stmt prog.Nast.pinit;
      pfuncs =
        List.map
          (fun (f : Nast.func) ->
            { f with Nast.fstmts = List.map map_stmt f.Nast.fstmts })
          prog.Nast.pfuncs;
      pall_vars = List.map subst prog.Nast.pall_vars;
    }
  end
