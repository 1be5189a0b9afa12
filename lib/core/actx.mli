(** Analysis context: the layout configuration (used by the Offsets
    instance) and the instrumentation counters behind the paper's
    Figure 3. *)

open Cfront

type t = {
  layout : Layout.config;
  mutable lookup_calls : int;
  mutable lookup_struct : int;
  mutable lookup_mismatch : int;
  mutable resolve_calls : int;
  mutable resolve_struct : int;
  mutable resolve_mismatch : int;
  mutable in_resolve : bool;
      (** paper footnote 7: [lookup] calls made from within [resolve] are
          not counted *)
  obj_sizes : (int, int) Hashtbl.t;
      (** object vid → layout size, memoized for this run: the Offsets
          instance asks for it on every cell it forms, and
          {!Layout.size_of} recurses through every nested struct *)
}

val create : ?layout:Layout.config -> unit -> t

val count_lookup : t -> structure:bool -> mismatch:bool -> unit
(** Record one [lookup] call (ignored while inside a [resolve]). *)

val count_resolve : t -> structure:bool -> mismatch:bool -> unit

val inside_resolve : t -> (unit -> 'a) -> 'a
(** Run with lookup-counting suppressed (for resolve's internal
    lookups). *)

type figures = {
  pct_lookup_struct : float;
  pct_lookup_mismatch : float;  (** of the struct-involving calls *)
  pct_resolve_struct : float;
  pct_resolve_mismatch : float;
}

val figures : t -> figures
(** The Figure-3 percentages. *)
