(** Union-find over dense interned cell ids: the class structure behind
    online cycle elimination. Ids never handed to {!union} are implicitly
    singleton classes, so the structure needs no registration step. *)

type t

val create : ?cap:int -> unit -> t

val find : t -> int -> int
(** Representative of the id's class (itself when never unified).
    Path-compressing. *)

val union : t -> into:int -> int -> unit
(** [union t ~into child] merges [child]'s class into [into]'s; [into]'s
    representative survives. The caller picks the direction (the solver
    keeps the member with the larger points-to set, preserving its
    cursor-valid insertion-order prefix). No-op when already unified. *)

val same : t -> int -> int -> bool

val reset : t -> unit
(** Dissolve every class — degradation rebuilds the constraint system
    over a coarser cell space, so stale classes must not survive it. *)

