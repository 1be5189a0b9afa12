(** Canonical statement keying and program diffing. See the interface
    for the contract; the implementation notes below cover the choices
    that matter for the differential guarantee.

    - Keys never mention [vid]s, statement ids, or source locations:
      recompiling unchanged source yields byte-identical keys.
    - Matching is a multiset diff per (scope, key) bucket: duplicated
      statements pair up positionally, so an edit that deletes one of
      two identical stores removes exactly one.
    - Matched statements keep the {e base} statement value — its id is
      what the solver's cursors and subscriptions are keyed by.
    - [var_key] is invariant under the remapping it drives (a base
      variable and its edited counterpart render the same key), so keys
      can be computed on the raw edited statements. *)

open Cfront
open Norm

(* Every key is rendered into a [Buffer] or built with [String.concat],
   never [Printf]: keys are rendered for every variable occurrence of
   each program version an edit session sees, and their bytes are
   durable identities (store keys), so the grammar below is fixed. *)

let add_kind_part b : Cvar.kind -> unit = function
  | Cvar.Global -> Buffer.add_char b 'g'
  | Cvar.Local f ->
      Buffer.add_string b "l:";
      Buffer.add_string b f
  | Cvar.Param f ->
      Buffer.add_string b "p:";
      Buffer.add_string b f
  | Cvar.Temp f ->
      Buffer.add_string b "t:";
      Buffer.add_string b f
  | Cvar.Ret f ->
      Buffer.add_string b "r:";
      Buffer.add_string b f
  (* keyed by allocation ordinal, not source coordinates: an edit that
     only shifts lines above the allocation site must not invalidate
     the heap object (inserting/removing an {e allocation} earlier in
     the program still shifts later ordinals — those objects are
     treated as removed + re-added, and the edit is solved from
     scratch) *)
  | Cvar.Heap (_, site) ->
      Buffer.add_string b "h:";
      Buffer.add_string b (string_of_int site)
  | Cvar.Strlit i ->
      Buffer.add_string b "s:";
      Buffer.add_string b (string_of_int i)
  | Cvar.Funval f ->
      Buffer.add_string b "f:";
      Buffer.add_string b f
  | Cvar.Vararg f ->
      Buffer.add_string b "v:";
      Buffer.add_string b f

(* A struct/union in a variable key: its tag, then '#' and a digest of
   the member lists (names, types, bit widths) of every struct/union it
   reaches, itself first and then depth-first in member order, each
   once. Inside a member list a struct/union is named by its tag, which
   ends the recursion on self-referential types. A definition edit thus
   re-keys every variable whose type reaches the edited definition. *)
let comp_digest (c : Ctype.comp) : string =
  let seen = Idtbl.Int.create 8 in
  let b = Buffer.create 256 in
  let rec visit (c : Ctype.comp) =
    if not (Idtbl.Int.mem seen c.Ctype.cid) then begin
      Idtbl.Int.replace seen c.Ctype.cid ();
      Ctype.add_comp_tag b c;
      match c.Ctype.cfields with
      | None -> Buffer.add_string b "?"
      | Some fields ->
          let reached = ref [] in
          let comp b c =
            reached := c :: !reached;
            Ctype.add_comp_tag b c
          in
          Buffer.add_char b '{';
          List.iter
            (fun (f : Ctype.field) ->
              Buffer.add_string b f.Ctype.fname;
              Buffer.add_char b ':';
              Ctype.add_to_buffer ~comp b f.Ctype.fty;
              Option.iter
                (fun n ->
                  Buffer.add_char b ':';
                  Buffer.add_string b (string_of_int n))
                f.Ctype.fbits;
              Buffer.add_char b ';')
            fields;
          Buffer.add_char b '}';
          List.iter visit (List.rev !reached)
    end
  in
  visit c;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* name|kind|type, each struct/union of the type as tag#digest *)
let add_var_key ~(digest : Ctype.comp -> string) b (v : Cvar.t) =
  Buffer.add_string b v.Cvar.vname;
  Buffer.add_char b '|';
  add_kind_part b v.Cvar.vkind;
  Buffer.add_char b '|';
  Ctype.add_to_buffer
    ~comp:(fun b c ->
      Ctype.add_comp_tag b c;
      Buffer.add_char b '#';
      Buffer.add_string b (digest c))
    b v.Cvar.vty

let var_key (v : Cvar.t) : string =
  let b = Buffer.create 64 in
  add_var_key ~digest:comp_digest b v;
  Buffer.contents b

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

(* The field path joined with '.', or "ε" when empty. *)
let add_path b (p : Ctype.path) =
  let rec fields = function
    | [] -> ()
    | [ f ] -> Buffer.add_string b f
    | f :: rest ->
        Buffer.add_string b f;
        Buffer.add_char b '.';
        fields rest
  in
  if p = [] then Buffer.add_string b "ε" else fields p

(* tag|x|y *)
let add_pair b var tag x y =
  Buffer.add_string b tag;
  Buffer.add_char b '|';
  Buffer.add_string b (var x);
  Buffer.add_char b '|';
  Buffer.add_string b (var y)

let add_kind_key b var ~(iface : string -> string) (k : Nast.kind) : unit =
  let triple tag x y p =
    add_pair b var tag x y;
    Buffer.add_char b '|';
    add_path b p
  in
  match k with
  | Nast.Addr (s, t, p) -> triple "A" s t p
  | Nast.Addr_deref (s, p, a) -> triple "D" s p a
  | Nast.Copy (s, t, p) -> triple "C" s t p
  | Nast.Load (s, q) -> add_pair b var "L" s q
  | Nast.Store (p, v) -> add_pair b var "S" p v
  | Nast.Arith (s, v) -> add_pair b var "R" s v
  | Nast.Call { Nast.cret; cfn; cargs } ->
      Buffer.add_string b "K|";
      Buffer.add_string b (match cret with Some v -> var v | None -> "-");
      Buffer.add_char b '|';
      (match cfn with
      | Nast.Direct n ->
          Buffer.add_string b "d:";
          Buffer.add_string b n;
          Buffer.add_char b '~';
          Buffer.add_string b (iface n)
      | Nast.Indirect v ->
          Buffer.add_string b "i:";
          Buffer.add_string b (var v);
          Buffer.add_char b '~';
          Buffer.add_string b (iface "*"));
      Buffer.add_char b '|';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (var a))
        cargs

let kind_key_with var ~iface k =
  let b = Buffer.create 128 in
  add_kind_key b var ~iface k;
  Buffer.contents b

(* The statement key, from the kind key. *)
let exact_key ~scope (s : Nast.stmt) kk =
  String.concat "|"
    [ scope; (if s.Nast.is_source_deref then "true" else "false"); kk ]

let interface_key f = interface_key_with var_key f

let iface_of_program p = iface_of_program_with var_key p

let kind_key ~iface k = kind_key_with var_key ~iface k

let stmt_key ~iface ~(scope : string) (s : Nast.stmt) : string =
  exact_key ~scope s (kind_key ~iface s.Nast.kind)

module Keyer = struct
  (* [var_key] memoized by [vid], and each struct/union's digest by
     [cid]. Sound because a [Cvar.t] is immutable and only built by
     [Cvar.fresh], so one [vid] is one value for the whole process, and
     a struct/union's member list is final once its program is lowered.
     The tables live as long as the keyer, which callers keep to one
     call: nothing outlives the program versions it keys. *)
  type t = { var : Cvar.t -> string; buf : Buffer.t }

  let create ?(size = 256) () : t =
    let memo = Cvar.Tbl.create size in
    let digests = Idtbl.Int.create 16 in
    let digest (c : Ctype.comp) =
      match Idtbl.Int.find_opt digests c.Ctype.cid with
      | Some d -> d
      | None ->
          let d = comp_digest c in
          Idtbl.Int.replace digests c.Ctype.cid d;
          d
    in
    let vb = Buffer.create 64 in
    let var v =
      match Cvar.Tbl.find_opt memo v with
      | Some k -> k
      | None ->
          Buffer.clear vb;
          add_var_key ~digest vb v;
          let k = Buffer.contents vb in
          Cvar.Tbl.add memo v k;
          k
    in
    (* kind keys render into [buf], variable keys into [vb]: a kind key
       in progress may render a variable's key *)
    { var; buf = Buffer.create 128 }

  let var (t : t) v = t.var v

  let interface (t : t) f = interface_key_with t.var f

  let iface_of_program (t : t) p = iface_of_program_with t.var p

  let kind (t : t) ~iface k =
    Buffer.clear t.buf;
    add_kind_key t.buf t.var ~iface k;
    Buffer.contents t.buf

  let stmt t ~iface ~scope (s : Nast.stmt) =
    exact_key ~scope s (kind t ~iface s.Nast.kind)
end

type t = {
  added : Nast.stmt list;
  removed : Nast.stmt list;
  added_vars : Cvar.t list;
  removed_vars : Cvar.t list;
}

module Stbl = Hashtbl.Make (String)

(* One (scope, kind key) multiset: its statements in program order, and
   the cursors of the alignment now running, each a suffix of [stmts].
   The cursors belong to the call whose number [gen] holds and are
   reset on its first touch by a later call, so an index serves any
   number of alignments without copying a table. Pass 1 takes the next
   statement with the edited statement's flag from [deref] or [plain]
   (the exact key includes [is_source_deref]); pass 2 takes the next
   from [loose] that pass 1 left unclaimed. *)
type bucket = {
  mutable stmts : Nast.stmt list;
  mutable gen : int;
  mutable deref : Nast.stmt list;
  mutable plain : Nast.stmt list;
  mutable loose : Nast.stmt list;
}

type index = {
  program : Nast.program;
  scopes : bucket Stbl.t Stbl.t;  (** scope → kind key → bucket *)
  vars : (Cvar.t * string) list;  (** [pall_vars] with their keys *)
  vmap : Cvar.t Stbl.t;  (** key → first variable of [pall_vars] with it *)
  max_id : int;
  mutable calls : int;  (** alignments run on this index *)
}

let program ix = ix.program

(* [f scope stmts] over a program's scopes in program order: global
   initializers, then each function's body *)
let iter_scopes (p : Nast.program) f =
  f "<init>" p.Nast.pinit;
  List.iter
    (fun (fn : Nast.func) -> f fn.Nast.fname fn.Nast.fstmts)
    p.Nast.pfuncs

let scope_table scopes name size =
  match Stbl.find_opt scopes name with
  | Some tbl -> tbl
  | None ->
      let tbl = Stbl.create size in
      Stbl.add scopes name tbl;
      tbl

let bucket_in tbl kk =
  match Stbl.find_opt tbl kk with
  | Some b -> b
  | None ->
      let b = { stmts = []; gen = 0; deref = []; plain = []; loose = [] } in
      Stbl.add tbl kk b;
      b

(* The index of [program], whose statements were put in their buckets
   ([slots], last statement first) and whose [pall_vars] are [vars]. *)
let build program scopes (slots : (bucket * Nast.stmt) list) vars : index =
  (* last first, so every bucket lists its statements in order *)
  let max_id =
    List.fold_left
      (fun m (b, (s : Nast.stmt)) ->
        b.stmts <- s :: b.stmts;
        max m s.Nast.id)
      0 slots
  in
  let vmap = Stbl.create (List.length vars) in
  List.iter
    (fun (v, k) -> if not (Stbl.mem vmap k) then Stbl.add vmap k v)
    vars;
  { program; scopes; vars; vmap; max_id; calls = 0 }

let index (p : Nast.program) : index =
  let kr = Keyer.create ~size:(List.length p.Nast.pall_vars) () in
  let iface = Keyer.iface_of_program kr p in
  let scopes = Stbl.create 16 in
  let slots = ref [] in
  iter_scopes p (fun scope stmts ->
      let tbl = scope_table scopes scope (List.length stmts) in
      List.iter
        (fun (s : Nast.stmt) ->
          let kk = Keyer.kind kr ~iface s.Nast.kind in
          slots := (bucket_in tbl kk, s) :: !slots)
        stmts);
  build p scopes !slots
    (List.map (fun v -> (v, Keyer.var kr v)) p.Nast.pall_vars)

(* An edited statement on its way through the two matching passes. *)
type pending = {
  stmt : Nast.stmt;
  scope : string;
  kk : string;  (** its kind key *)
  base_bucket : bucket option;  (** the base multiset of its scope and key *)
  new_bucket : bucket;  (** its multiset in the aligned program's index *)
  mutable match_ : Nast.stmt option;  (** the base statement it pairs with *)
  mutable aligned : Nast.stmt;  (** what the aligned program holds *)
}

type alignment = { aligned : index; delta : t; edited : index Lazy.t }

let align ~(base : index) (edited : Nast.program) : alignment =
  (* Only the edited version is keyed here: the base's keys, buckets
     and variable map come with [base]. A variable's key does not depend
     on the program it is in, so every key below is also the key of its
     aligned counterpart, and the aligned program's index is assembled
     from them without rendering a key twice. *)
  let kr = Keyer.create ~size:(List.length edited.Nast.pall_vars) () in
  let var = Keyer.var kr in
  let ed_iface = Keyer.iface_of_program kr edited in
  base.calls <- base.calls + 1;
  let gen = base.calls in
  (* variable remapping: key → base variable, first in [pall_vars] order;
     keys the base lacks bind to the first edited variable met *)
  let fresh_vars = Stbl.create 16 in
  let added_vars = ref [] in
  let mapvar (v : Cvar.t) : Cvar.t =
    let k = var v in
    match Stbl.find_opt base.vmap k with
    | Some bv -> bv
    | None -> (
        match Stbl.find_opt fresh_vars k with
        | Some v' -> v'
        | None ->
            (* genuinely new: keep the edited variable, and bind its key
               so every later occurrence maps to this same value *)
            added_vars := v :: !added_vars;
            Stbl.add fresh_vars k v;
            v)
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
  (* edited statements with their multisets in both indexes, from kind
     keys rendered once *)
  let scopes = Stbl.create 16 in
  let pending = ref [] in
  iter_scopes edited (fun scope stmts ->
      let base_tbl = Stbl.find_opt base.scopes scope in
      let tbl = scope_table scopes scope (List.length stmts) in
      List.iter
        (fun (s : Nast.stmt) ->
          let kk = Keyer.kind kr ~iface:ed_iface s.Nast.kind in
          let base_bucket =
            match base_tbl with
            | None -> None
            | Some bt -> (
                match Stbl.find_opt bt kk with
                | None -> None
                | Some b as found ->
                    if b.gen <> gen then begin
                      b.gen <- gen;
                      b.deref <- b.stmts;
                      b.plain <- b.stmts;
                      b.loose <- b.stmts
                    end;
                    found)
          in
          pending :=
            {
              stmt = s;
              scope;
              kk;
              base_bucket;
              new_bucket = bucket_in tbl kk;
              match_ = None;
              aligned = s;
            }
            :: !pending)
        stmts);
  let pending = Array.of_list (List.rev !pending) in
  let matched = Idtbl.Int.create 256 in
  (* Two matching passes before the program is rebuilt. Pass 1 pairs on
     the exact key. Pass 2 pairs the leftovers on the key {e without}
     the [is_source_deref] flag: the flag feeds only deref diagnostics,
     never a derived constraint, so a mutation that merely flips it is
     equivalent after alignment — the base statement (and with it the
     solver's cursors and subscriptions) is kept, the edited flag is
     taken, and the diff stays empty instead of forcing a scratch
     solve. Running pass 2 only after pass 1 has seen every edited
     statement keeps it from stealing a base statement that still has
     an exact twin later in the program. *)
  let claim p (m : Nast.stmt) =
    Idtbl.Int.replace matched m.Nast.id ();
    p.match_ <- Some m
  in
  let try_exact p =
    match p.base_bucket with
    | None -> ()
    | Some b ->
        let f = p.stmt.Nast.is_source_deref in
        let set l = if f then b.deref <- l else b.plain <- l in
        let rec next = function
          | [] -> set []
          | (m : Nast.stmt) :: rest ->
              if m.Nast.is_source_deref = f then begin
                set rest;
                claim p m
              end
              else next rest
        in
        next (if f then b.deref else b.plain)
  in
  let try_equiv p =
    match (p.match_, p.base_bucket) with
    | None, Some b ->
        (* the loose cursor shadows the exact ones, so skip base
           statements an exact match already claimed *)
        let rec next = function
          | [] -> b.loose <- []
          | (m : Nast.stmt) :: rest ->
              if Idtbl.Int.mem matched m.Nast.id then next rest
              else begin
                b.loose <- rest;
                claim p
                  { m with Nast.is_source_deref = p.stmt.Nast.is_source_deref }
              end
        in
        next b.loose
    | _ -> ()
  in
  Array.iter try_exact pending;
  Array.iter try_equiv pending;
  let next_id = ref base.max_id in
  let added = ref [] in
  (* [align_stmt] meets the edited statements in program order, the
     order of [pending] *)
  let pos = ref 0 in
  let align_stmt (s : Nast.stmt) : Nast.stmt =
    let p = pending.(!pos) in
    incr pos;
    let s' =
      match p.match_ with
      | Some b -> b
      | None ->
          incr next_id;
          let s' = { s with Nast.id = !next_id; kind = map_kind s.Nast.kind } in
          added := s' :: !added;
          s'
    in
    p.aligned <- s';
    s'
  in
  let pinit = List.map align_stmt edited.Nast.pinit in
  let pfuncs =
    List.map
      (fun (f : Nast.func) ->
        {
          Nast.fname = f.Nast.fname;
          ffvar = mapvar f.Nast.ffvar;
          fparams = List.map mapvar f.Nast.fparams;
          fret = Option.map mapvar f.Nast.fret;
          fvararg = Option.map mapvar f.Nast.fvararg;
          fstmts = List.map align_stmt f.Nast.fstmts;
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
  (* the aligned [pall_vars], with the keys of the edited variables
     they stand for *)
  let vars =
    let seen = Idtbl.Int.create 64 in
    List.filter_map
      (fun v ->
        let v' = mapvar v in
        if Idtbl.Int.mem seen v'.Cvar.vid then None
        else begin
          Idtbl.Int.replace seen v'.Cvar.vid ();
          Some (v', var v)
        end)
      edited.Nast.pall_vars
  in
  let aligned =
    {
      Nast.pfile = edited.Nast.pfile;
      pglobals = dedup_vars (List.map mapvar edited.Nast.pglobals);
      pfuncs;
      pexterns = List.map (fun (n, v) -> (n, mapvar v)) edited.Nast.pexterns;
      pinit;
      pall_vars = List.map fst vars;
    }
  in
  let ix =
    build aligned scopes
      (Array.fold_left
         (fun acc p -> (p.new_bucket, p.aligned) :: acc)
         [] pending)
      vars
  in
  let removed =
    List.filter
      (fun (s : Nast.stmt) -> not (Idtbl.Int.mem matched s.Nast.id))
      (Nast.all_stmts base.program)
  in
  (* the new index's variable map holds exactly the edited keys *)
  let removed_vars =
    dedup_vars
      (List.filter_map
         (fun (v, k) -> if Stbl.mem ix.vmap k then None else Some v)
         base.vars)
  in
  (* the edited program's own index, from the same keys *)
  let edited_ix =
    lazy
      (let scopes = Stbl.create 16 in
       build edited scopes
         (Array.fold_left
            (fun acc p ->
              (bucket_in (scope_table scopes p.scope 16) p.kk, p.stmt) :: acc)
            [] pending)
         (List.map (fun v -> (v, var v)) edited.Nast.pall_vars))
  in
  {
    aligned = ix;
    delta =
      {
        added = List.rev !added;
        removed;
        added_vars = List.rev !added_vars;
        removed_vars;
      };
    edited = edited_ix;
  }
