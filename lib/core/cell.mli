(** Cells: the normalized object references that points-to facts relate.

    A cell is a storage object plus a selector. The Offsets instance uses
    byte offsets; the portable instances use normalized field paths (the
    Collapse-Always instance always the empty path). A single points-to
    graph never mixes selectors from different strategies.

    Cells are hash-consed: {!v} interns every (object, selector) pair and
    stamps it with a dense integer id, making equality an int compare and
    letting {!Graph} keep points-to sets as compact id arrays. The intern
    table is process-global and append-only; ids are never reused. *)

open Cfront

type sel = Path of Ctype.path | Off of int

type t = private { cid : int; base : Cvar.t; sel : sel }

val v : Cvar.t -> sel -> t
(** Intern (and return) the cell for this object and selector. Physically
    equal cells are returned for equal arguments. *)

val whole : Cvar.t -> t
(** The whole-object cell [{base; sel = Path []}]. *)

val id : t -> int
(** The dense interned id ([cid]); assigned in interning order. *)

val of_id : int -> t
(** Inverse of {!id}.
    @raise Invalid_argument on an id no cell was interned with. *)

val interned_count : unit -> int
(** Cells interned so far, process-wide (= the id universe bound). *)

val compare_sel : sel -> sel -> int
(** Selector order: paths field by field (a proper prefix first), offsets
    numerically, every path before every offset — the order of
    polymorphic [compare] on {!sel}, without its generic traversal. *)

val compare : t -> t -> int
(** Semantic order: by object, then selector ({!compare_sel}) — stable
    across runs, unlike interning order. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** ["x"], ["s.f.g"], or ["t@8"]. *)

val to_string : t -> string

val cell_type : t -> Ctype.t
(** Declared type of the storage this cell designates; [Void] when the
    selector does not name a typed sub-object. *)

module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
