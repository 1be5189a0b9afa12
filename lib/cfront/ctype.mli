(** C types, ANSI type compatibility, and the field-path utilities the
    pointer-analysis strategies build on.

    Types are structural except for struct/union, which carry a unique id
    and a mutable field list (tied after parsing for recursive and
    initially-incomplete types).

    {b Field paths.} A (sub-)field of an object is identified by a list of
    field names from the object's outermost type down. Array types are
    transparent in paths: every array is modelled by a single
    representative element (paper Section 2). *)

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
  cid : int;  (** unique per declaration *)
  ctag : string;
  cunion : bool;
  mutable cfields : field list option;  (** [None] while incomplete *)
}

and field = { fname : string; fty : t; fbits : int option }

val fresh_comp : tag:string -> is_union:bool -> comp
(** A new, initially incomplete struct/union declaration. *)

(** {1 Shorthands} *)

val char_t : t
val uchar_t : t
val short_t : t
val int_t : t
val uint_t : t
val long_t : t
val ulong_t : t
val float_t : t
val double_t : t

(** {1 Predicates and accessors} *)

val is_void : t -> bool
val is_integer : t -> bool
val is_floating : t -> bool
val is_arith : t -> bool
val is_ptr : t -> bool
val is_array : t -> bool
val is_func : t -> bool
val is_scalar : t -> bool
val is_comp : t -> bool
val is_struct : t -> bool
val is_union : t -> bool

val pointee : t -> t
(** @raise Diag.Error on non-pointers. *)

val elem_ty : t -> t
(** @raise Diag.Error on non-arrays. *)

val strip_arrays : t -> t
(** Remove array layers: the type used for member access through the
    single representative element. *)

val fields_of : t -> field list
(** Fields of a (possibly array-wrapped) struct/union; [[]] for other
    types. @raise Diag.Error on incomplete struct/union types. *)

val find_field : t -> string -> field option

(** {1 Printing, equality, compatibility} *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val to_string : t -> string
(** C-like rendering: [unsigned int], [long long], [T*], [T[4]], [T[]],
    [ret(p1, p2, ...)], [struct T]. Part of on-disk identities
    (variable keys in store keys, canonical temp names), so the bytes
    are fixed. *)

val equal : t -> t -> bool
(** Structural equality; struct/union by declaration identity. *)

val hash : t -> int
(** A hash consistent with {!equal}: [equal a b] implies
    [hash a = hash b]. Struct/union types hash by declaration identity,
    so recursive types terminate; the walk is also depth-bounded. *)

val compatible : t -> t -> bool
(** ANSI "compatible types" (ISO 6.2.7), as used by the Common Initial
    Sequence instance. Structural and cycle-safe; struct/union members
    must agree in name, bit-width, and (recursively) type. *)

(** {1 Field paths} *)

type path = string list

val pp_path : Format.formatter -> path -> unit
(** Prints {!path_to_string}. *)

val path_to_string : path -> string
(** Field names joined with ["."]; ["ε"] for the empty path. *)

val type_at_path : t -> path -> t
(** Type of the sub-object at a path; arrays unwrap transparently before
    each step. @raise Diag.Error on unknown fields. *)

val innermost_first_path : t -> path
(** The innermost-first-field path (the paper's recursive [normalize] for
    the path-based instances). Unions cut the descent. *)

val leaf_paths : t -> path list
(** All leaf field paths in declaration (= layout) order. Leaves are
    scalars, whole unions, empty structs, and function-typed members; a
    non-aggregate type has the single leaf [[]]. *)

val leaf_paths_through_unions : t -> path list
(** Like {!leaf_paths} but descending into union members (used by the
    layout engine, where members genuinely overlap). *)

val is_prefix : path -> path -> bool

val leaf_index : t -> path -> int option

val outermost_array_prefix : t -> path -> path option
(** Shortest prefix whose type is an array — the outermost enclosing
    array of the leaf, if any. *)

val following_leaves : t -> path -> path list
(** Leaf paths strictly after the given leaf in layout order, plus (paper
    footnote 6) every leaf sharing an enclosing array with it. *)

val enclosing_candidates : t -> path -> path list
(** All prefixes [δ] of a normalized leaf path [β] with
    [δ @ innermost_first_path (type_at δ) = β] — the sub-objects whose
    normalized representative is the cell [β], outermost first. *)

(** {1 Common initial sequence} *)

val common_initial_seq : t -> t -> (field * field) list
(** The maximal prefix of corresponding top-level fields with compatible
    types and equal bit-widths (ISO 6.3.2.3 / 6.5.2.1). Empty unless both
    types are structs with at least one compatible leading pair. *)
