(** The tunable heart of the framework: the [normalize] / [lookup] /
    [resolve] signature (paper Section 4.2), plus helpers shared by the
    path-based instances.

    Different modules implementing {!S} yield pointer-analysis algorithms
    of different precision and portability; the solver is generic in the
    strategy. *)

open Cfront

module type S = sig
  val name : string
  (** human-readable, e.g. "Common Initial Sequence" *)

  val id : string
  (** short stable identifier, e.g. "cis" *)

  val portable : bool
  (** [true] when results are safe for every ANSI-conforming layout *)

  val normalize : Actx.t -> Cvar.t -> Ctype.path -> Cell.t
  (** [normalize ctx s α] — canonical cell for the sub-object [s.α]. *)

  val lookup : Actx.t -> Ctype.t -> Ctype.path -> Cell.t -> Cell.t list
  (** [lookup ctx τ α target] — the cells possibly referenced by
      [( *p).α] when [p] is declared [τ*] but points to [target].
      Deduplicated, in {!Cell.compare} order (as {!dedup_cells} leaves
      them), like [resolve]'s pairs: the solver passes both on as they
      are while no object is collapsed. *)

  val resolve :
    Actx.t -> Graph.t -> Cell.t -> Cell.t -> Ctype.t -> (Cell.t * Cell.t) list
  (** [resolve ctx g dst src τ] — the (destination, source) cell pairs
      transferred by a copy of [sizeof τ] bytes from [src] to [dst]. The
      graph is consulted read-only (the Offsets instance pairs only source
      offsets that carry facts). *)

  val graph_resolve : bool
  (** [true] when [resolve]'s pair set depends on the graph (Offsets pairs
      only fact-bearing source offsets), so the delta solver must re-run a
      statement's resolves when the source object gains a new fact-bearing
      cell. [false] for the path-based instances, whose pair set is a pure
      function of the types — their resolves are derived once. *)

  val all_cells : Actx.t -> Cvar.t -> Cell.t list
  (** Every cell of the object — the Assumption-1 result set for pointer
      arithmetic landing somewhere inside it. *)

  val in_array : Actx.t -> Cell.t -> bool
  (** Does this cell lie within an array sub-object? Used by the optional
      Wilson–Lam stride refinement: element-stride arithmetic on a pointer
      into an array stays on the same (representative) cell. *)

  val expand_for_metrics : Actx.t -> Cell.t -> Cell.t list
  (** Leaf cells a target cell stands for when measuring points-to set
      sizes (Figure 4's expansion of Collapse-Always structure facts). *)
end

(* ------------------------------------------------------------------ *)
(* Shared helpers for the path-based instances                         *)
(* ------------------------------------------------------------------ *)

(** Truncate a field path at the first union-typed prefix: the path-based
    instances keep union objects whole (members overlap). *)
let cut_at_union (ty : Ctype.t) (path : Ctype.path) : Ctype.path =
  let rec go ty taken = function
    | [] -> List.rev taken
    | f :: rest -> (
        let ty = Ctype.strip_arrays ty in
        if Ctype.is_union ty then List.rev taken
        else
          match Ctype.find_field ty f with
          | Some fld -> go fld.Ctype.fty (f :: taken) rest
          | None -> List.rev taken (* unknown field: stop, stay sound *))
  in
  go ty [] path

(** The normalized path for [obj.path]: cut at unions, then descend into
    innermost first fields (paper's recursive [normalize]). *)
let normalize_path (ty : Ctype.t) (path : Ctype.path) : Ctype.path =
  let path = cut_at_union ty path in
  let sub_ty =
    try Ctype.type_at_path ty path with Diag.Error _ -> Ctype.Void
  in
  path @ Ctype.innermost_first_path sub_ty

let path_cell (s : Cvar.t) (alpha : Ctype.path) : Cell.t =
  Cell.v s (Cell.Path (normalize_path s.Cvar.vty alpha))

let root_path_cell _ctx (s : Cvar.t) : Cell.t = path_cell s []

(** The path-based instances' [normalize]: the cell of [s.α]'s
    normalized path. [normalize s []], which every statement visit asks
    for each variable it names, is answered once per object from the
    memo under the instance's [tag]. *)
let path_normalize ~tag ctx (s : Cvar.t) (alpha : Ctype.path) : Cell.t =
  match alpha with
  | [] -> Actx.memo_root ctx ~tag root_path_cell s
  | _ :: _ -> path_cell s alpha

(** Does this lookup/resolve use "involve structures" in the Figure-3
    sense? True when the declared type or the target object is a
    struct/union. *)
let involves_struct (tau : Ctype.t) (target : Cell.t) : bool =
  Ctype.is_comp (Ctype.strip_arrays tau)
  || Ctype.is_comp (Ctype.strip_arrays target.Cell.base.Cvar.vty)

let dedup_cells (cells : Cell.t list) : Cell.t list =
  Cell.Set.elements (Cell.Set.of_list cells)

let compare_pairs (a1, a2) (b1, b2) =
  match Cell.compare a1 b1 with 0 -> Cell.compare a2 b2 | c -> c

(* Semantic [Cell.compare] order, not cid order: cids follow interning
   order, which would make pair order (and so solver statistics) depend
   on what the process interned before. A list already in strictly
   increasing order — the common case — is returned as it is. *)
let dedup_pairs (pairs : (Cell.t * Cell.t) list) : (Cell.t * Cell.t) list =
  let rec increasing = function
    | a :: (b :: _ as rest) -> compare_pairs a b < 0 && increasing rest
    | [ _ ] | [] -> true
  in
  if increasing pairs then pairs else List.sort_uniq compare_pairs pairs

(** A path-based [resolve] from the two sides' rows ({!Actx.memo_row}):
    the deduplicated cross products of each leaf's destination and
    source cells, and whether every lookup behind them matched
    exactly. *)
let cross_rows (drow : (Cell.t list * bool) list)
    (srow : (Cell.t list * bool) list) : (Cell.t * Cell.t) list * bool =
  (* pairs accumulate reversed, then one [List.rev] *)
  let rec go acc matched drow srow =
    match (drow, srow) with
    | (ds, e1) :: drow, (ss, e2) :: srow ->
        let acc =
          List.fold_left
            (fun acc d -> List.fold_left (fun acc s -> (d, s) :: acc) acc ss)
            acc ds
        in
        go acc (matched && e1 && e2) drow srow
    | _ -> (acc, matched)
  in
  let rev_pairs, matched = go [] true drow srow in
  (dedup_pairs (List.rev rev_pairs), matched)
