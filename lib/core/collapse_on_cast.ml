(** The "Collapse on Cast" instance (paper Section 4.3.2): fields are
    distinguished while an object is accessed at its declared type; an
    access at any other type conservatively touches all fields from the
    access point onward. Portable. *)

open Cfront

let name = "Collapse on Cast"

let id = "collapse-on-cast"

let portable = true

let graph_resolve = false

let target_path (c : Cell.t) : Ctype.path =
  match c.Cell.sel with
  | Cell.Path p -> p
  | Cell.Off _ -> [] (* foreign selector: treat as the whole object *)

(** Core of [lookup]; also used (uncounted) by [resolve]. Returns the cells
    and whether the declared type matched an enclosing sub-object. *)
let lookup_i (tau : Ctype.t) (alpha : Ctype.path) (target : Cell.t) :
    Cell.t list * bool =
  let t = target.Cell.base in
  let tty = t.Cvar.vty in
  let beta = target_path target in
  let mk p = Cell.v t (Cell.Path (Strategy.normalize_path tty p)) in
  let candidates = Ctype.enclosing_candidates tty beta in
  (* arrays are transparent: a pointer to an array designates its single
     representative element, so "array of τ" matches τ *)
  let tau_s = Ctype.strip_arrays tau in
  let matching =
    List.find_opt
      (fun delta ->
        match Ctype.type_at_path tty delta with
        | dty -> Ctype.equal (Ctype.strip_arrays dty) tau_s
        | exception Diag.Error _ -> false)
      candidates
  in
  match matching with
  | Some delta -> ([ mk (delta @ alpha) ], true)
  | None ->
      let following = Ctype.following_leaves tty beta in
      (Strategy.dedup_cells (mk beta :: List.map mk following), false)

let tag = Actx.memo_tag ()

let normalize ctx s alpha = Strategy.path_normalize ~tag ctx s alpha

(** [lookup_i] through the run's memo. *)
let lookup_m ctx ~tid tau alpha target =
  Actx.memo_lookup ctx ~tag ~tid lookup_i tau alpha target

let lookup ctx tau alpha target : Cell.t list =
  let cells, matched =
    lookup_m ctx ~tid:(Actx.type_id ctx tau) tau alpha target
  in
  Actx.count_lookup ctx
    ~structure:(Strategy.involves_struct tau target)
    ~mismatch:(not matched);
  cells

let resolve ctx _graph (dst : Cell.t) (src : Cell.t) (tau : Ctype.t) :
    (Cell.t * Cell.t) list =
  let pairs, matched =
    let tid = Actx.type_id ctx tau in
    Strategy.cross_rows
      (Actx.memo_row ctx ~tag ~tid lookup_i tau dst)
      (Actx.memo_row ctx ~tag ~tid lookup_i tau src)
  in
  Actx.count_resolve ctx
    ~structure:
      (Strategy.involves_struct tau dst || Strategy.involves_struct tau src)
    ~mismatch:(not matched);
  pairs

let all_cells _ctx (obj : Cvar.t) : Cell.t list =
  List.map
    (fun p -> Cell.v obj (Cell.Path p))
    (Ctype.leaf_paths obj.Cvar.vty)

let in_array _ctx (c : Cell.t) : bool =
  let ty = c.Cell.base.Cvar.vty in
  Ctype.is_array ty
  ||
  match c.Cell.sel with
  | Cell.Path p -> Ctype.outermost_array_prefix ty p <> None
  | Cell.Off _ -> false

let expand_for_metrics _ctx (c : Cell.t) : Cell.t list = [ c ]
