(** Binary min-heap of (priority, id) pairs — the solver's
    pseudo-topologically ordered cell worklist. Ties break on the id,
    so the pop order is a pure function of the push sequence. *)

type t

val create : ?cap:int -> unit -> t

val is_empty : t -> bool

val clear : t -> unit

val push : t -> prio:int -> int -> unit

val pop : t -> int
(** Minimum-priority element (smallest id on ties). Raises
    [Invalid_argument] when empty. *)
