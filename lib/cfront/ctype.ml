(** C types, ANSI type compatibility, and the field-path utilities used by
    the pointer-analysis strategies.

    Types are structural except for struct/union, which carry a unique id
    ([cid]) and mutable field list (mutable so that recursive and initially
    incomplete types can be tied after parsing).

    Field paths. Throughout the analysis a (sub-)field of an object is
    identified by a {e field path}: a list of field names leading from the
    object's outermost type to the sub-object. Array types are transparent
    in paths — every array is modelled by a single representative element
    (paper Section 2), so a path steps directly from an array to a field of
    its element type. *)

type signedness = Signed | Unsigned

type ikind = IChar | IShort | IInt | ILong | ILongLong

type fkind = FFloat | FDouble | FLongDouble

type t =
  | Void
  | Int of ikind * signedness
  | Float of fkind
  | Ptr of t
  | Array of t * int option  (** element type, length if known *)
  | Func of funty
  | Comp of comp  (** struct or union *)

and funty = { ret : t; params : (string * t) list; varargs : bool }

and comp = {
  cid : int;
  ctag : string;
  cunion : bool;
  mutable cfields : field list option;  (** [None] while incomplete *)
}

and field = { fname : string; fty : t; fbits : int option }

let next_cid = ref 0

let fresh_comp ~tag ~is_union =
  incr next_cid;
  { cid = !next_cid; ctag = tag; cunion = is_union; cfields = None }

(* Common shorthands *)
let char_t = Int (IChar, Signed)
let uchar_t = Int (IChar, Unsigned)
let short_t = Int (IShort, Signed)
let int_t = Int (IInt, Signed)
let uint_t = Int (IInt, Unsigned)
let long_t = Int (ILong, Signed)
let ulong_t = Int (ILong, Unsigned)
let float_t = Float FFloat
let double_t = Float FDouble

(* ------------------------------------------------------------------ *)
(* Predicates and accessors                                            *)
(* ------------------------------------------------------------------ *)

let is_void = function Void -> true | _ -> false
let is_integer = function Int _ -> true | _ -> false
let is_floating = function Float _ -> true | _ -> false
let is_arith t = is_integer t || is_floating t
let is_ptr = function Ptr _ -> true | _ -> false
let is_array = function Array _ -> true | _ -> false
let is_func = function Func _ -> true | _ -> false
let is_scalar t = is_arith t || is_ptr t

let is_comp = function Comp _ -> true | _ -> false
let is_struct = function Comp c -> not c.cunion | _ -> false
let is_union = function Comp c -> c.cunion | _ -> false

let pointee t =
  match t with
  | Ptr t -> t
  | _ -> Diag.error "pointee of non-pointer type (internal)"

let elem_ty = function
  | Array (t, _) -> t
  | _ -> Diag.error "element type of non-array (internal)"

(** Strip array layers: the type used for member access through the single
    representative element. *)
let rec strip_arrays = function Array (t, _) -> strip_arrays t | t -> t

let fields_of ty : field list =
  match strip_arrays ty with
  | Comp { cfields = Some fs; _ } -> fs
  | Comp { cfields = None; ctag; _ } ->
      Diag.error "use of incomplete struct/union '%s'" ctag
  | _ -> []

let find_field ty name : field option =
  List.find_opt (fun f -> f.fname = name) (fields_of ty)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

(* One direct printer: these strings are part of on-disk identities
   (store keys, canonical temp names) and are rendered
   for every variable on every edit, where going through Format was
   most of [Progdiff.align]'s time. *)

let ikind_name = function
  | IChar -> "char"
  | IShort -> "short"
  | IInt -> "int"
  | ILong -> "long"
  | ILongLong -> "long long"

let rec add_ty b = function
  | Void -> Buffer.add_string b "void"
  | Int (k, s) ->
      if s = Unsigned then Buffer.add_string b "unsigned ";
      Buffer.add_string b (ikind_name k)
  | Float FFloat -> Buffer.add_string b "float"
  | Float FDouble -> Buffer.add_string b "double"
  | Float FLongDouble -> Buffer.add_string b "long double"
  | Ptr t ->
      add_ty b t;
      Buffer.add_char b '*'
  | Array (t, n) ->
      add_ty b t;
      Buffer.add_char b '[';
      Option.iter (fun n -> Buffer.add_string b (string_of_int n)) n;
      Buffer.add_char b ']'
  | Func { ret; params; varargs } ->
      add_ty b ret;
      Buffer.add_char b '(';
      List.iteri
        (fun i (_, t) ->
          if i > 0 then Buffer.add_string b ", ";
          add_ty b t)
        params;
      if varargs then Buffer.add_string b ", ...";
      Buffer.add_char b ')'
  | Comp c ->
      Buffer.add_string b (if c.cunion then "union " else "struct ");
      Buffer.add_string b c.ctag

let to_string = function
  | Void -> "void"
  | Int (k, Signed) -> ikind_name k
  | t ->
      let b = Buffer.create 32 in
      add_ty b t;
      Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let rec equal a b =
  match (a, b) with
  | Void, Void -> true
  | Int (k1, s1), Int (k2, s2) -> k1 = k2 && s1 = s2
  | Float k1, Float k2 -> k1 = k2
  | Ptr a, Ptr b -> equal a b
  | Array (a, n1), Array (b, n2) -> equal a b && n1 = n2
  | Func f1, Func f2 ->
      equal f1.ret f2.ret
      && f1.varargs = f2.varargs
      && List.length f1.params = List.length f2.params
      && List.for_all2 (fun (_, t1) (_, t2) -> equal t1 t2) f1.params f2.params
  | Comp c1, Comp c2 -> c1.cid = c2.cid
  | (Void | Int _ | Float _ | Ptr _ | Array _ | Func _ | Comp _), _ -> false

(** A hash that agrees with {!equal}: struct/union hash by [cid] (never
    through their fields, so recursive types terminate), function types
    ignore parameter names, and the walk stops [depth] constructors deep,
    below which every type hashes alike. *)
let hash (ty : t) : int =
  let mix h x = (h * 31) + x in
  let rec go depth ty =
    if depth = 0 then 0
    else
      match ty with
      | Void -> 1
      | Int (k, s) -> mix (mix 2 (Hashtbl.hash k)) (Hashtbl.hash s)
      | Float k -> mix 3 (Hashtbl.hash k)
      | Ptr t -> mix 4 (go (depth - 1) t)
      | Array (t, n) -> mix (mix 5 (go (depth - 1) t)) (Hashtbl.hash n)
      | Func { ret; params; varargs } ->
          List.fold_left
            (fun h (_, t) -> mix h (go (depth - 1) t))
            (mix (mix 6 (go (depth - 1) ret)) (Bool.to_int varargs))
            params
      | Comp c -> mix 7 c.cid
  in
  go 8 ty land max_int

(* ------------------------------------------------------------------ *)
(* ANSI compatibility (ISO 6.2.7) — structural, cycle-safe             *)
(* ------------------------------------------------------------------ *)

module Pairset = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let rec compat_in assumed a b =
  match (a, b) with
  | Void, Void -> true
  | Int (k1, s1), Int (k2, s2) -> k1 = k2 && s1 = s2
  | Float k1, Float k2 -> k1 = k2
  | Ptr a, Ptr b -> compat_in assumed a b
  | Array (a, n1), Array (b, n2) ->
      compat_in assumed a b
      && (match (n1, n2) with Some x, Some y -> x = y | _ -> true)
  | Func f1, Func f2 ->
      compat_in assumed f1.ret f2.ret
      && f1.varargs = f2.varargs
      && List.length f1.params = List.length f2.params
      && List.for_all2
           (fun (_, t1) (_, t2) -> compat_in assumed t1 t2)
           f1.params f2.params
  | Comp c1, Comp c2 ->
      c1.cid = c2.cid
      || (c1.cunion = c2.cunion
         &&
         let key =
           if c1.cid <= c2.cid then (c1.cid, c2.cid) else (c2.cid, c1.cid)
         in
         if Pairset.mem key assumed then true
         else
           match (c1.cfields, c2.cfields) with
           | Some fs1, Some fs2 ->
               let assumed = Pairset.add key assumed in
               List.length fs1 = List.length fs2
               && List.for_all2
                    (fun f1 f2 ->
                      f1.fname = f2.fname && f1.fbits = f2.fbits
                      && compat_in assumed f1.fty f2.fty)
                    fs1 fs2
           | _ ->
               (* at least one incomplete: compatible only when it is the
                  same type, which the cid test above already checked *)
               false)
  | (Void | Int _ | Float _ | Ptr _ | Array _ | Func _ | Comp _), _ -> false

(** [compatible a b] — ANSI "compatible types", used by the Common Initial
    Sequence strategy. Structural; struct/union members must agree in name,
    bit-width, and (recursively) type. *)
let compatible a b = compat_in Pairset.empty a b

(* ------------------------------------------------------------------ *)
(* Field paths                                                         *)
(* ------------------------------------------------------------------ *)

type path = string list

let path_to_string (p : path) = if p = [] then "ε" else String.concat "." p

let pp_path ppf p = Fmt.string ppf (path_to_string p)

(** Type of the sub-object at [path] within [ty]. Arrays are unwrapped
    transparently before each step and never at the end (the caller decides
    whether to treat an array-typed sub-object as its element). *)
let rec type_at_path ty (p : path) : t =
  match p with
  | [] -> ty
  | f :: rest -> (
      match find_field ty f with
      | Some fld -> type_at_path fld.fty rest
      | None ->
          Diag.error "type %s has no field '%s'" (to_string ty) f)

(** The innermost-first-field path of [ty] (paper: recursive [normalize] for
    the Collapse-on-Cast / Common-Initial-Sequence instances). Unions cut
    normalization (members overlap; we keep the union object whole). *)
let rec innermost_first_path ty : path =
  match strip_arrays ty with
  | Comp { cunion = false; cfields = Some ({ fname; fty; _ } :: _); _ } ->
      fname :: innermost_first_path fty
  | _ -> []

(** All leaf field paths of [ty], in declaration (= layout) order. A leaf is
    a sub-object that is not a non-empty struct: scalars, unions (kept
    whole), empty structs, and function-typed members. For a non-aggregate
    type the single leaf is the empty path. *)
let rec leaf_paths ty : path list =
  match strip_arrays ty with
  | Comp { cunion = false; cfields = Some fs; _ } when fs <> [] ->
      List.concat_map
        (fun f -> List.map (fun p -> f.fname :: p) (leaf_paths f.fty))
        fs
  | _ -> [ [] ]

(** Leaf paths of [ty] seen through unions as well — used by the layout
    engine and the Offsets instance, where union members genuinely overlap
    at byte offsets. *)
let rec leaf_paths_through_unions ty : path list =
  match strip_arrays ty with
  | Comp { cfields = Some fs; _ } when fs <> [] ->
      List.concat_map
        (fun f ->
          List.map (fun p -> f.fname :: p) (leaf_paths_through_unions f.fty))
        fs
  | _ -> [ [] ]

let is_prefix (p : path) (q : path) : bool =
  let rec go p q =
    match (p, q) with
    | [], _ -> true
    | x :: p', y :: q' -> x = y && go p' q'
    | _ -> false
  in
  go p q

(** Index of leaf path [p] within [leaf_paths ty]; [None] when [p] is not a
    leaf of [ty]. *)
let leaf_index ty (p : path) : int option =
  let rec find i = function
    | [] -> None
    | q :: _ when q = p -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 (leaf_paths ty)

(** Shortest prefix of [p] (possibly [p] itself) whose type within [ty] is
    an array — the outermost enclosing array of the leaf, if any. *)
let outermost_array_prefix ty (p : path) : path option =
  let rec go ty_here taken remaining =
    if is_array ty_here then Some (List.rev taken)
    else
      match remaining with
      | [] -> None
      | f :: rest -> (
          match find_field ty_here f with
          | Some fld -> go fld.fty (f :: taken) rest
          | None -> None)
  in
  go ty [] p

(** [following_leaves ty p] — the leaf paths of [ty] strictly after leaf [p]
    in layout order, plus (paper footnote 6) every leaf sharing an enclosing
    array with [p]: iteration can wrap around within an array, so all fields
    within that array must be included. Does not include [p] itself unless
    forced in by the array rule. *)
let following_leaves ty (p : path) : path list =
  let leaves = leaf_paths ty in
  let after =
    match leaf_index ty p with
    | None -> leaves (* not a leaf we know: be conservative *)
    | Some i -> List.filteri (fun j _ -> j > i) leaves
  in
  match outermost_array_prefix ty p with
  | None -> after
  | Some arr ->
      (* all leaves within the enclosing array, including [p] itself:
         iteration wraps to the same field of the next element, which is
         the same representative cell *)
      let in_array = List.filter (fun q -> is_prefix arr q) leaves in
      (* union, preserving layout order *)
      List.filter (fun q -> List.mem q after || List.mem q in_array) leaves

(** All prefixes [δ] of the normalized leaf path [β] such that
    [δ ++ innermost_first_path (type_at δ) = β] — i.e. the sub-objects whose
    normalized representative is the cell [β]. Ordered from the whole object
    ([]) inward; always includes [β] itself when [β] is a valid leaf. *)
let enclosing_candidates ty (beta : path) : path list =
  let rec all_prefixes sofar = function
    | [] -> [ List.rev sofar ]
    | x :: rest -> List.rev sofar :: all_prefixes (x :: sofar) rest
  in
  let cands = all_prefixes [] beta in
  List.filter
    (fun delta ->
      match
        try Some (type_at_path ty delta) with Diag.Error _ -> None
      with
      | None -> false
      | Some dty -> delta @ innermost_first_path dty = beta)
    cands

(* ------------------------------------------------------------------ *)
(* Common initial sequence (ISO 6.3.2.3 / 6.5.2.1)                     *)
(* ------------------------------------------------------------------ *)

(** The common initial sequence of two struct types: the maximal prefix of
    corresponding top-level fields with compatible types (and equal bit
    widths). Empty unless both are structs with at least one compatible
    leading field pair. *)
let common_initial_seq (t1 : t) (t2 : t) : (field * field) list =
  match (strip_arrays t1, strip_arrays t2) with
  | Comp c1, Comp c2 when (not c1.cunion) && not c2.cunion -> (
      match (c1.cfields, c2.cfields) with
      | Some fs1, Some fs2 ->
          let rec go acc fs1 fs2 =
            match (fs1, fs2) with
            | f1 :: r1, f2 :: r2
              when f1.fbits = f2.fbits && compatible f1.fty f2.fty ->
                go ((f1, f2) :: acc) r1 r2
            | _ -> List.rev acc
          in
          go [] fs1 fs2
      | _ -> [])
  | _ -> []
