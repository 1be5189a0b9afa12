(** Analysis context: the layout configuration (used by the Offsets
    instance), the instrumentation counters behind the paper's Figure 3,
    and the run's strategy memo. *)

open Cfront

type lookup_key = { tag : int; tid : int; alpha : Ctype.path; target : int }
(** An instance's [lookup(τ, α, target)] by the instance's tag, the id
    {!type_id} gives τ, the field path and the target cell's id. *)

module Ty_tbl : Hashtbl.S with type key = Ctype.t

module Lookup_tbl : Hashtbl.S with type key = lookup_key

type memo = {
  type_ids : int Ty_tbl.t;  (** dense ids, under {!Cfront.Ctype.equal} *)
  lookups : (Cell.t list * bool) Lookup_tbl.t;
      (** the path-based instances' lookup answers: the cells and
          whether the declared type matched exactly *)
  roots : Cell.t Idtbl.Pair.t;
      (** (instance tag, object vid) → [normalize v []], the cell every
          statement visit forms for each variable it names *)
  rows : (Cell.t list * bool) list Idtbl.Triple.t;
      (** (instance tag, type id of τ, cell id) → the cell's resolve row:
          its lookup answer for every leaf path of τ, in leaf order *)
  type_sizes : int Idtbl.Int.t;
      (** type id → layout size (the Offsets [resolve] copy width) *)
  obj_sizes : int Idtbl.Int.t;
      (** object vid → layout size: the Offsets instance asks for it on
          every cell it forms, and {!Layout.size_of} recurses through
          every nested struct *)
  offset_cells : Cell.t Idtbl.Pair.t;
      (** (object vid, in-bounds byte offset) → the Offsets cell at the
          offset folded into array representatives
          ({!Layout.canon_offset}, which re-derives field sizes on every
          call) *)
}
(** Answers that are pure functions of declared types and immutable
    cells, kept for one solver run so repeated facts do not recompute
    them. Holds base-strategy answers only: the solver's degradation
    redirect is applied on top. *)

type t = {
  layout : Layout.config;
  mutable lookup_calls : int;
  mutable lookup_struct : int;
  mutable lookup_mismatch : int;
  mutable resolve_calls : int;
  mutable resolve_struct : int;
  mutable resolve_mismatch : int;
  memo : memo;
}

val create : ?layout:Layout.config -> unit -> t

val clear_memo : t -> unit
(** Drop every memoized answer (the counters are kept). *)

val type_id : t -> Ctype.t -> int
(** The dense id of a type in this context's memo; equal types share
    one. *)

val memo_tag : unit -> int
(** A fresh tag for one strategy instance's entries in the memo;
    instances sharing a context must not share answers. *)

val memo_root : t -> tag:int -> (t -> Cvar.t -> Cell.t) -> Cvar.t -> Cell.t
(** [memo_root ctx ~tag f v] — [f ctx v] (the instance's [normalize v []]),
    answered from [memo.roots] when already computed. *)

val memo_lookup :
  t ->
  tag:int ->
  tid:int ->
  (Ctype.t -> Ctype.path -> Cell.t -> Cell.t list * bool) ->
  Ctype.t ->
  Ctype.path ->
  Cell.t ->
  Cell.t list * bool
(** [memo_lookup ctx ~tag ~tid f τ α target] — [f τ α target], answered
    from [memo.lookups] when already computed; [tid] is [type_id ctx τ]. *)

val memo_row :
  t ->
  tag:int ->
  tid:int ->
  (Ctype.t -> Ctype.path -> Cell.t -> Cell.t list * bool) ->
  Ctype.t ->
  Cell.t ->
  (Cell.t list * bool) list
(** [memo_row ctx ~tag ~tid f τ c] — [f τ δ c] for every leaf path [δ]
    of τ, in {!Cfront.Ctype.leaf_paths} order: one side of a path-based
    [resolve], built once per (τ, cell) and answered from [memo.rows]
    after that. The row holds the leaf answers, so they are not also
    kept in [memo.lookups]. *)

val count_lookup : t -> structure:bool -> mismatch:bool -> unit
(** Record one [lookup] call. [resolve]'s per-leaf lookups bypass it,
    since the paper (footnote 7) does not count them. *)

val count_resolve : t -> structure:bool -> mismatch:bool -> unit

type figures = {
  pct_lookup_struct : float;
  pct_lookup_mismatch : float;  (** of the struct-involving calls *)
  pct_resolve_struct : float;
  pct_resolve_mismatch : float;
}

val figures : t -> figures
(** The Figure-3 percentages. *)
