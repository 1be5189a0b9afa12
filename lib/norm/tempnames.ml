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
module Stbl = Hashtbl.Make (String)

(* Erased token: temporaries become a placeholder carrying only their
   type (their names are what this pass is erasing); everything else
   contributes its qualified name and type. Rendered once per variable
   per call ([tokens] memoizes by [vid]). *)
let token (v : Cvar.t) : string =
  match v.Cvar.vkind with
  | Cvar.Temp _ -> "$T:" ^ Ctype.to_string v.Cvar.vty
  | _ -> String.concat ":" [ Cvar.qualified_name v; Ctype.to_string v.Cvar.vty ]

let tokens size : Cvar.t -> string =
  let memo = Itbl.create size in
  fun v ->
    match Itbl.find_opt memo v.Cvar.vid with
    | Some t -> t
    | None ->
        let t = token v in
        Itbl.add memo v.Cvar.vid t;
        t

(* The shape of a statement, rendered into [b]: its tag, then its
   tokens and access path, '|'-separated (call arguments
   ','-separated). *)
let add_shape b (tok : Cvar.t -> string) (k : Nast.kind) : unit =
  let add = Buffer.add_string b in
  let sep () = Buffer.add_char b '|' in
  let two tag s t =
    add tag;
    add (tok s);
    sep ();
    add (tok t)
  in
  let three tag s t p =
    two tag s t;
    sep ();
    add (Ctype.path_to_string p)
  in
  match k with
  | Nast.Addr (s, t, b) -> three "A|" s t b
  | Nast.Addr_deref (s, p, a) -> three "D|" s p a
  | Nast.Copy (s, t, b) -> three "C|" s t b
  | Nast.Load (s, q) -> two "L|" s q
  | Nast.Store (p, v) -> two "S|" p v
  | Nast.Arith (s, v) -> two "R|" s v
  | Nast.Call { Nast.cret; cfn; cargs } ->
      add "K|";
      Option.iter (fun r -> add (tok r)) cret;
      sep ();
      (match cfn with
      | Nast.Direct n ->
          add "d:";
          add n
      | Nast.Indirect v ->
          add "i:";
          add (tok v));
      sep ();
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char b ',';
          add (tok a))
        cargs

let is_temp (v : Cvar.t) =
  match v.Cvar.vkind with Cvar.Temp _ -> true | _ -> false

(* The first 8 hex digits of [d]'s MD5, the part a name keeps. *)
let hex8 (d : string) : string =
  let h = Digest.string d in
  let digits = "0123456789abcdef" in
  String.init 8 (fun i ->
      let c = Char.code h.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])

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

(* A shape's count of statements so far, and its name digits once a
   temporary needed them. *)
type shape_seen = { mutable count : int; mutable hex : string }

(* Extend [rename] (vid → replacement) with canonical names for every
   temporary of one scope's statement list. Only statements holding a
   temporary are shaped: a temporary's token is the only one that
   starts with "$T:" (no source name, type or path has a '$' followed
   by 'T'), so no temp-free statement shares a shape with one that
   holds a temporary, and the ordinals count exactly as if every
   statement were shaped. *)
let rename_scope tok (b : Buffer.t) (rename : Cvar.t Itbl.t)
    (stmts : Nast.stmt list) : unit =
  let seen : shape_seen Stbl.t = Stbl.create (List.length stmts) in
  List.iter
    (fun (s : Nast.stmt) ->
      let vs = vars_of_kind s.Nast.kind in
      if List.exists is_temp vs then begin
        Buffer.clear b;
        add_shape b tok s.Nast.kind;
        let sh = Buffer.contents b in
        let e =
          match Stbl.find_opt seen sh with
          | Some e -> e
          | None ->
              let e = { count = 0; hex = "" } in
              Stbl.add seen sh e;
              e
        in
        let ord = e.count in
        e.count <- ord + 1;
        List.iteri
          (fun pos (v : Cvar.t) ->
            match v.Cvar.vkind with
            | Cvar.Temp _ when not (Itbl.mem rename v.Cvar.vid) ->
                if e.hex = "" then e.hex <- hex8 sh;
                Itbl.replace rename v.Cvar.vid
                  (Cvar.fresh
                     ~name:
                       (String.concat ""
                          [
                            "$t";
                            e.hex;
                            "_";
                            string_of_int ord;
                            "_";
                            string_of_int pos;
                          ])
                     ~ty:v.Cvar.vty ~kind:v.Cvar.vkind)
            | _ -> ())
          vs
      end)
    stmts

(** Rename every temporary of [prog] to its positional canonical name.
    Statements holding a temporary, function records, and [pall_vars]
    are rebuilt; every other statement and variable is kept. *)
let canonicalize (prog : Nast.program) : Nast.program =
  let nvars = List.length prog.Nast.pall_vars in
  let rename : Cvar.t Itbl.t = Itbl.create nvars in
  let tok = tokens nvars in
  let b = Buffer.create 128 in
  rename_scope tok b rename prog.Nast.pinit;
  List.iter
    (fun (f : Nast.func) -> rename_scope tok b rename f.Nast.fstmts)
    prog.Nast.pfuncs;
  if Itbl.length rename = 0 then prog
  else begin
    let subst (v : Cvar.t) =
      match Itbl.find_opt rename v.Cvar.vid with Some v' -> v' | None -> v
    in
    let map_stmt (s : Nast.stmt) =
      if List.exists is_temp (vars_of_kind s.Nast.kind) then
        { s with Nast.kind = map_kind subst s.Nast.kind }
      else s
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
