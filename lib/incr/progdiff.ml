(** Canonical statement keying and program diffing. See the interface
    for the contract; the implementation notes below cover the choices
    that matter for the differential guarantee.

    - Keys never mention [vid]s, statement ids, or source locations:
      recompiling unchanged source yields byte-identical keys.
    - Matching is a multiset diff per (scope, key) bucket: duplicated
      statements pair up positionally, so an edit that deletes one of
      two identical stores removes exactly one.
    - Matched statements keep the {e base} statement value — its id is
      what the solver's cursors, subscriptions and support tables are
      keyed by.
    - [var_key] is invariant under the remapping it drives (a base
      variable and its edited counterpart render the same key), so keys
      can be computed on the raw edited statements. *)

open Cfront
open Norm

(* Every key is built with [String.concat], never [Printf]: keys are
   rendered for every variable occurrence of both program versions on
   each edit, and their bytes are durable identities (store keys), so
   the grammar below is fixed. *)

let kind_part : Cvar.kind -> string = function
  | Cvar.Global -> "g"
  | Cvar.Local f -> "l:" ^ f
  | Cvar.Param f -> "p:" ^ f
  | Cvar.Temp f -> "t:" ^ f
  | Cvar.Ret f -> "r:" ^ f
  (* keyed by allocation ordinal, not source coordinates: an edit that
     only shifts lines above the allocation site must not invalidate
     the heap object (inserting/removing an {e allocation} earlier in
     the program still shifts later ordinals — those objects are
     treated as removed + re-added, which retraction handles) *)
  | Cvar.Heap (_, site) -> "h:" ^ string_of_int site
  | Cvar.Strlit i -> "s:" ^ string_of_int i
  | Cvar.Funval f -> "f:" ^ f
  | Cvar.Vararg f -> "v:" ^ f

let var_key (v : Cvar.t) : string =
  String.concat "|"
    [ v.Cvar.vname; kind_part v.Cvar.vkind; Ctype.to_string v.Cvar.vty ]

(* The key renderers below take the variable keyer as [var], so the
   exported one-shot functions and {!Keyer} share one grammar. *)

let interface_key_with var (f : Nast.func) : string =
  String.concat ""
    [
      f.Nast.fname;
      "(";
      String.concat "," (List.map var f.Nast.fparams);
      ")";
      (match f.Nast.fret with Some r -> "->" ^ var r | None -> "");
      (match f.Nast.fvararg with Some v -> "~" ^ var v | None -> "");
    ]

let iface_of_program_with var (p : Nast.program) : string -> string =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Nast.func) ->
      Hashtbl.replace tbl f.Nast.fname (interface_key_with var f))
    p.Nast.pfuncs;
  (* any defined function's signature changing can redirect any indirect
     call, so indirect calls key on a fingerprint of all interfaces. It
     must be a full-content digest: the polymorphic [Hashtbl.hash] only
     examines a bounded prefix of its input, so interfaces past that
     limit would not affect the key and their signature changes would
     silently miss invalidating indirect calls. *)
  let all =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) tbl []))))
  in
  fun name ->
    if name = "*" then all
    else
      match Hashtbl.find_opt tbl name with Some k -> k | None -> "undef"

let kind_key_with var ~(iface : string -> string) (k : Nast.kind) : string =
  let two tag a b = String.concat "|" [ tag; var a; var b ] in
  let three tag a b p =
    String.concat "|" [ tag; var a; var b; Ctype.path_to_string p ]
  in
  match k with
  | Nast.Addr (s, t, b) -> three "A" s t b
  | Nast.Addr_deref (s, p, a) -> three "D" s p a
  | Nast.Copy (s, t, b) -> three "C" s t b
  | Nast.Load (s, q) -> two "L" s q
  | Nast.Store (p, v) -> two "S" p v
  | Nast.Arith (s, v) -> two "R" s v
  | Nast.Call { Nast.cret; cfn; cargs } ->
      let ret = match cret with Some v -> var v | None -> "-" in
      let fn =
        match cfn with
        | Nast.Direct n -> String.concat "" [ "d:"; n; "~"; iface n ]
        | Nast.Indirect v ->
            String.concat "" [ "i:"; var v; "~"; iface "*" ]
      in
      String.concat "|"
        [ "K"; ret; fn; String.concat "," (List.map var cargs) ]

(* The statement key and its flag-free twin, from the kind key. *)
let exact_key ~scope (s : Nast.stmt) kk =
  String.concat "|"
    [ scope; (if s.Nast.is_source_deref then "true" else "false"); kk ]

let loose_key ~scope kk = String.concat "|" [ scope; kk ]

let interface_key f = interface_key_with var_key f

let iface_of_program p = iface_of_program_with var_key p

let kind_key ~iface k = kind_key_with var_key ~iface k

let stmt_key ~iface ~(scope : string) (s : Nast.stmt) : string =
  exact_key ~scope s (kind_key ~iface s.Nast.kind)

module Keyer = struct
  (* [var_key] memoized by [vid]. Sound because a [Cvar.t] is immutable
     and only built by [Cvar.fresh], so one [vid] is one value for the
     whole process. The table lives as long as the keyer, which callers
     keep to one call: nothing outlives the program versions it keys. *)
  type t = Cvar.t -> string

  let create () : t =
    let memo = Cvar.Tbl.create 256 in
    fun v ->
      match Cvar.Tbl.find_opt memo v with
      | Some k -> k
      | None ->
          let k = var_key v in
          Cvar.Tbl.add memo v k;
          k

  let var (t : t) v = t v

  let interface (t : t) f = interface_key_with t f

  let iface_of_program (t : t) p = iface_of_program_with t p

  let kind (t : t) ~iface k = kind_key_with t ~iface k

  let stmt t ~iface ~scope (s : Nast.stmt) =
    exact_key ~scope s (kind t ~iface s.Nast.kind)
end

type t = {
  added : Nast.stmt list;
  removed : Nast.stmt list;
  added_vars : Cvar.t list;
  removed_vars : Cvar.t list;
}

let align ~(base : Nast.program) (edited : Nast.program) : Nast.program * t =
  (* one keyer for both versions: a variable's key does not depend on
     the program it is in, and each is rendered once per call *)
  let kr = Keyer.create () in
  let var = Keyer.var kr in
  let base_iface = Keyer.iface_of_program kr base in
  let ed_iface = Keyer.iface_of_program kr edited in
  (* variable remapping: key → base variable, first in [pall_vars] order *)
  let vmap = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let k = var v in
      if not (Hashtbl.mem vmap k) then Hashtbl.add vmap k v)
    base.Nast.pall_vars;
  let added_vars = ref [] in
  let mapvar (v : Cvar.t) : Cvar.t =
    let k = var v in
    match Hashtbl.find_opt vmap k with
    | Some bv -> bv
    | None ->
        (* genuinely new: keep the edited variable, and bind its key so
           every later occurrence maps to this same value *)
        added_vars := v :: !added_vars;
        Hashtbl.add vmap k v;
        v
  in
  (* statement multiset: (scope, key) → base statements in order, plus
     a secondary multiset keyed without the [is_source_deref] flag for
     the equivalence pass below *)
  let buckets = Hashtbl.create 256 in
  let buckets2 = Hashtbl.create 256 in
  let enqueue tbl k (s : Nast.stmt) =
    let q =
      match Hashtbl.find_opt tbl k with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add tbl k q;
          q
    in
    Queue.add s q
  in
  let put scope (s : Nast.stmt) =
    let kk = Keyer.kind kr ~iface:base_iface s.Nast.kind in
    enqueue buckets (exact_key ~scope s kk) s;
    enqueue buckets2 (loose_key ~scope kk) s
  in
  List.iter (put "<init>") base.Nast.pinit;
  List.iter
    (fun (f : Nast.func) -> List.iter (put f.Nast.fname) f.Nast.fstmts)
    base.Nast.pfuncs;
  let next_id =
    ref
      (List.fold_left
         (fun m (s : Nast.stmt) -> max m s.Nast.id)
         0 (Nast.all_stmts base))
  in
  let map_kind (k : Nast.kind) : Nast.kind =
    match k with
    | Nast.Addr (s, t, b) -> Nast.Addr (mapvar s, mapvar t, b)
    | Nast.Addr_deref (s, p, a) -> Nast.Addr_deref (mapvar s, mapvar p, a)
    | Nast.Copy (s, t, b) -> Nast.Copy (mapvar s, mapvar t, b)
    | Nast.Load (s, q) -> Nast.Load (mapvar s, mapvar q)
    | Nast.Store (p, v) -> Nast.Store (mapvar p, mapvar v)
    | Nast.Arith (s, v) -> Nast.Arith (mapvar s, mapvar v)
    | Nast.Call { Nast.cret; cfn; cargs } ->
        Nast.Call
          {
            Nast.cret = Option.map mapvar cret;
            cfn =
              (match cfn with
              | Nast.Direct n -> Nast.Direct n
              | Nast.Indirect v -> Nast.Indirect (mapvar v));
            cargs = List.map mapvar cargs;
          }
  in
  let matched = Idtbl.Int.create 256 in
  let added = ref [] in
  (* Two matching passes before the program is rebuilt. Pass 1 pairs on
     the exact key. Pass 2 pairs the leftovers on the key {e without}
     the [is_source_deref] flag: the flag feeds only deref diagnostics,
     never a derived constraint, so a mutation that merely flips it is
     equivalent after alignment — the base statement (and with it the
     solver's cursors, subscriptions and support) is kept, the edited
     flag is taken, and the diff stays empty instead of forcing a
     retract-and-replay cycle. Running pass 2 only after pass 1 has
     seen every edited statement keeps it from stealing a base
     statement that still has an exact twin later in the program. *)
  let resolved = Idtbl.Int.create 256 in
  let try_exact (scope, (s : Nast.stmt), kk) =
    match Hashtbl.find_opt buckets (exact_key ~scope s kk) with
    | Some q when not (Queue.is_empty q) ->
        let b = Queue.pop q in
        Idtbl.Int.replace matched b.Nast.id ();
        Idtbl.Int.replace resolved s.Nast.id b
    | _ -> ()
  in
  let try_equiv (scope, (s : Nast.stmt), kk) =
    if not (Idtbl.Int.mem resolved s.Nast.id) then
      match Hashtbl.find_opt buckets2 (loose_key ~scope kk) with
      | Some q ->
          (* the secondary queue shadows the primary one, so skip base
             statements an exact match already claimed *)
          let rec pop () =
            if not (Queue.is_empty q) then
              let b = Queue.pop q in
              if Idtbl.Int.mem matched b.Nast.id then pop ()
              else begin
                Idtbl.Int.replace matched b.Nast.id ();
                Idtbl.Int.replace resolved s.Nast.id
                  { b with Nast.is_source_deref = s.Nast.is_source_deref }
              end
          in
          pop ()
      | None -> ()
  in
  (* edited statements with their kind keys, rendered once for both
     passes *)
  let keyed scope (s : Nast.stmt) =
    (scope, s, Keyer.kind kr ~iface:ed_iface s.Nast.kind)
  in
  let ed_stmts =
    List.map (keyed "<init>") edited.Nast.pinit
    @ List.concat_map
        (fun (fn : Nast.func) -> List.map (keyed fn.Nast.fname) fn.Nast.fstmts)
        edited.Nast.pfuncs
  in
  List.iter try_exact ed_stmts;
  List.iter try_equiv ed_stmts;
  let align_stmt _scope (s : Nast.stmt) : Nast.stmt =
    match Idtbl.Int.find_opt resolved s.Nast.id with
    | Some b -> b
    | None ->
        incr next_id;
        let s' = { s with Nast.id = !next_id; kind = map_kind s.Nast.kind } in
        added := s' :: !added;
        s'
  in
  let pinit = List.map (align_stmt "<init>") edited.Nast.pinit in
  let pfuncs =
    List.map
      (fun (f : Nast.func) ->
        {
          Nast.fname = f.Nast.fname;
          ffvar = mapvar f.Nast.ffvar;
          fparams = List.map mapvar f.Nast.fparams;
          fret = Option.map mapvar f.Nast.fret;
          fvararg = Option.map mapvar f.Nast.fvararg;
          fstmts = List.map (align_stmt f.Nast.fname) f.Nast.fstmts;
        })
      edited.Nast.pfuncs
  in
  let dedup_vars vs =
    let seen = Idtbl.Int.create 64 in
    List.filter
      (fun (v : Cvar.t) ->
        if Idtbl.Int.mem seen v.Cvar.vid then false
        else begin
          Idtbl.Int.replace seen v.Cvar.vid ();
          true
        end)
      vs
  in
  let aligned =
    {
      Nast.pfile = edited.Nast.pfile;
      pglobals = dedup_vars (List.map mapvar edited.Nast.pglobals);
      pfuncs;
      pexterns = List.map (fun (n, v) -> (n, mapvar v)) edited.Nast.pexterns;
      pinit;
      pall_vars = dedup_vars (List.map mapvar edited.Nast.pall_vars);
    }
  in
  let removed =
    List.filter
      (fun (s : Nast.stmt) -> not (Idtbl.Int.mem matched s.Nast.id))
      (Nast.all_stmts base)
  in
  let ed_keys = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace ed_keys (var v) ()) edited.Nast.pall_vars;
  let removed_vars =
    dedup_vars
      (List.filter
         (fun v -> not (Hashtbl.mem ed_keys (var v)))
         base.Nast.pall_vars)
  in
  ( aligned,
    {
      added = List.rev !added;
      removed;
      added_vars = List.rev !added_vars;
      removed_vars;
    } )

let diff ~base edited : t = snd (align ~base edited)
