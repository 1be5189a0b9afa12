(** Cells: the normalized object references that points-to facts relate.

    A cell is a storage object ({!Cfront.Cvar.t}) plus a selector. The
    Offsets instance uses byte offsets ({!constructor:Off}); the portable
    instances use normalized field paths ({!constructor:Path}) — the
    Collapse-Always instance always uses the empty path. A single points-to
    graph never mixes selectors from different strategies.

    Cells are hash-consed: {!v} interns every (object, selector) pair and
    stamps it with a dense integer {!field:cid}, so equality is one int
    compare, hashing is free, and {!Graph} can represent points-to sets as
    compact sorted id arrays ({!Idset}) instead of balanced trees. The
    intern table is process-global (ids are never reused); cells of
    finished runs stay interned, which trades a modest arena for O(1)
    identity everywhere. *)

open Cfront

type sel = Path of Ctype.path | Off of int

type t = { cid : int; base : Cvar.t; sel : sel }

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Keyed by (vid, selector): Cvar identity is its vid, and selector
   equality is structural. The table is open-addressed with linear
   probing and never deletes; it is grown at half load, so an empty slot
   always ends a probe. *)
let intern_tbl : t option array ref = ref (Array.make 4096 None)

let by_id : t option array ref = ref (Array.make 1024 None)

let interned = ref 0

let key_hash (vid : int) (sel : sel) : int =
  (vid * 0x9e3779b1) lxor Hashtbl.hash sel

let sel_equal (a : sel) (b : sel) : bool =
  match (a, b) with
  | Path p, Path q -> List.equal String.equal p q
  | Off i, Off j -> i = j
  | Path _, Off _ | Off _, Path _ -> false

let key_equal (c : t) (vid : int) (sel : sel) : bool =
  c.base.Cvar.vid = vid && sel_equal c.sel sel

let find_in (arr : t option array) (vid : int) (sel : sel) : t option =
  let mask = Array.length arr - 1 in
  let rec go i =
    match arr.(i) with
    | None -> None
    | Some c when key_equal c vid sel -> Some c
    | Some _ -> go ((i + 1) land mask)
  in
  go (key_hash vid sel land mask)

let insert_in (arr : t option array) (c : t) : unit =
  let mask = Array.length arr - 1 in
  let rec go i =
    match arr.(i) with None -> arr.(i) <- Some c | Some _ -> go ((i + 1) land mask)
  in
  go (key_hash c.base.Cvar.vid c.sel land mask)

let intern (base : Cvar.t) (sel : sel) : t =
  let n = !interned in
  let c = { cid = n; base; sel } in
  if 2 * (n + 1) >= Array.length !intern_tbl then begin
    (* keep the load factor under 1/2: rehash into a double-size table *)
    let bigger = Array.make (2 * Array.length !intern_tbl) None in
    Array.iter (function None -> () | Some c -> insert_in bigger c) !intern_tbl;
    intern_tbl := bigger
  end;
  insert_in !intern_tbl c;
  if n >= Array.length !by_id then begin
    let bigger = Array.make (2 * Array.length !by_id) None in
    Array.blit !by_id 0 bigger 0 n;
    by_id := bigger
  end;
  !by_id.(n) <- Some c;
  interned := n + 1;
  c

let v base sel =
  match find_in !intern_tbl base.Cvar.vid sel with
  | Some c -> c
  | None -> intern base sel

let whole base = v base (Path [])

let id c = c.cid

let of_id i =
  let arr = !by_id in
  match if i < Array.length arr then arr.(i) else None with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Cell.of_id: %d not interned" i)

let interned_count () = !interned

(* ------------------------------------------------------------------ *)
(* Ordering, equality, printing                                        *)
(* ------------------------------------------------------------------ *)

(* Typed, and the same order as polymorphic [compare] on [sel]: a path
   compares field by field, a proper prefix first; [Path] before [Off]. *)
let compare_sel a b =
  match (a, b) with
  | Path p, Path q -> List.compare String.compare p q
  | Off i, Off j -> Int.compare i j
  | Path _, Off _ -> -1
  | Off _, Path _ -> 1

(* Semantic order (object, then selector) — stable for display and for
   comparing cells across solver runs; [cid] order is interning order. *)
let compare a b =
  match Cvar.compare a.base b.base with
  | 0 -> compare_sel a.sel b.sel
  | c -> c

let equal a b = a.cid = b.cid

let hash a = a.cid

let pp ppf c =
  match c.sel with
  | Path [] -> Cvar.pp ppf c.base
  | Path p -> Fmt.pf ppf "%a.%a" Cvar.pp c.base Ctype.pp_path p
  | Off i -> Fmt.pf ppf "%a@@%d" Cvar.pp c.base i

let to_string c = Fmt.str "%a" pp c

(** Declared type of the storage designated by this cell; [Void] when the
    selector does not name a typed sub-object (e.g. a padding offset). *)
let cell_type (c : t) : Ctype.t =
  match c.sel with
  | Path p -> (
      try Ctype.type_at_path c.base.Cvar.vty p with Diag.Error _ -> Ctype.Void)
  | Off _ -> Ctype.Void

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
