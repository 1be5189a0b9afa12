(** Program variables and other named storage objects.

    A {!t} identifies one top-level storage object: a global, a local, a
    parameter, a compiler temporary, a function's return slot, an
    allocation-site pseudo-variable, a string literal, a function (as
    pointed to by function pointers), or a per-function vararg blob.
    Identity is by [vid]. *)

type kind =
  | Global
  | Local of string  (** enclosing function *)
  | Param of string
  | Temp of string
  | Ret of string  (** pseudo-variable holding a function's return value *)
  | Heap of Srcloc.t * int  (** allocation site: location, site index *)
  | Strlit of int  (** string-literal object *)
  | Funval of string  (** the function itself *)
  | Vararg of string  (** blob receiving extra actuals of a vararg callee *)

type t = private { vid : int; vname : string; vty : Ctype.t; vkind : kind }
(** Immutable, and only built by {!fresh}: a [vid] names one value for
    the life of the process, so per-variable renderings (for instance
    [Incr.Progdiff]'s keys) may be memoized by [vid]. *)

val fresh : name:string -> ty:Ctype.t -> kind:kind -> t
(** A new storage object with a globally unique [vid]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val qualified_name : t -> string
(** ["f::x"] for function-scoped objects, the bare name for globals,
    ["malloc_3@17"]-style names for heap objects. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
