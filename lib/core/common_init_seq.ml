(** The "Common Initial Sequence" instance (paper Section 4.3.3): like
    Collapse-on-Cast, but exploits the ANSI guarantee that structs sharing
    a common initial sequence of compatibly-typed fields lay those fields
    out identically. Portable, and the most precise of the portable
    instances. *)

open Cfront

let name = "Common Initial Sequence"

let id = "cis"

let portable = true

let graph_resolve = false

let target_path (c : Cell.t) : Ctype.path =
  match c.Cell.sel with Cell.Path p -> p | Cell.Off _ -> []

type case = Exact | Cis | Collapse

(** Core of [lookup]. Returns the referenced cells and which rule decided:
    [Exact] — some enclosing sub-object has a compatible type; [Cis] — the
    accessed field is inside a common initial sequence; [Collapse] — the
    conservative fall-back. *)
let lookup_i (tau : Ctype.t) (alpha : Ctype.path) (target : Cell.t) :
    Cell.t list * case =
  let t = target.Cell.base in
  let tty = t.Cvar.vty in
  let beta = target_path target in
  let mk p = Cell.v t (Cell.Path (Strategy.normalize_path tty p)) in
  let candidates = Ctype.enclosing_candidates tty beta in
  let type_of delta =
    match Ctype.type_at_path tty delta with
    | dty -> Some dty
    | exception Diag.Error _ -> None
  in
  (* 1. a compatible enclosing sub-object: field correspondence is exact.
     Arrays are transparent (single representative element). *)
  let tau_s = Ctype.strip_arrays tau in
  let exact =
    List.find_opt
      (fun delta ->
        match type_of delta with
        | Some dty -> Ctype.compatible (Ctype.strip_arrays dty) tau_s
        | None -> false)
      candidates
  in
  match exact with
  | Some delta -> ([ mk (delta @ alpha) ], Exact)
  | None -> (
      (* 2. the accessed field is within a common initial sequence *)
      let cis_of delta =
        match type_of delta with
        | Some dty -> Ctype.common_initial_seq tau dty
        | None -> []
      in
      let via_cis =
        match alpha with
        | [] -> None
        | h :: rest ->
            List.find_map
              (fun delta ->
                let cis = cis_of delta in
                List.find_map
                  (fun ((f1 : Ctype.field), (f2 : Ctype.field)) ->
                    if f1.Ctype.fname = h then
                      Some (mk (delta @ (f2.Ctype.fname :: rest)))
                    else None)
                  cis)
              candidates
      in
      match via_cis with
      | Some cell -> ([ cell ], Cis)
      | None ->
          (* 3. conservative: all fields of t from the end of the longest
             common initial sequence onward (or from β when none) *)
          let best =
            List.fold_left
              (fun acc delta ->
                let cis = cis_of delta in
                match acc with
                | Some (_, best_cis) when List.length best_cis >= List.length cis
                  ->
                    acc
                | _ -> if cis = [] then acc else Some (delta, cis))
              None candidates
          in
          let cells =
            match best with
            | None ->
                let following = Ctype.following_leaves tty beta in
                mk beta :: List.map mk following
            | Some (delta, cis) -> (
                (* the last leaf covered by the CIS *)
                match List.rev cis with
                | [] -> [ mk beta ]
                | (_, (f2 : Ctype.field)) :: _ -> (
                    let sub_leaves = Ctype.leaf_paths f2.Ctype.fty in
                    match List.rev sub_leaves with
                    | [] -> [ mk beta ]
                    | last_leaf :: _ ->
                        let covered_last =
                          delta @ (f2.Ctype.fname :: last_leaf)
                        in
                        List.map mk
                          (Ctype.following_leaves tty covered_last)))
          in
          (Strategy.dedup_cells cells, Collapse))

let tag = Actx.memo_tag ()

let normalize ctx s alpha = Strategy.path_normalize ~tag ctx s alpha

(* [lookup_i], keeping only whether the [Exact] rule decided *)
let lookup_exact tau alpha target =
  let cells, case = lookup_i tau alpha target in
  (cells, case = Exact)

(** [lookup_exact] through the run's memo. *)
let lookup_m ctx ~tid tau alpha target =
  Actx.memo_lookup ctx ~tag ~tid lookup_exact tau alpha target

let lookup ctx tau alpha target : Cell.t list =
  let cells, exact =
    lookup_m ctx ~tid:(Actx.type_id ctx tau) tau alpha target
  in
  Actx.count_lookup ctx
    ~structure:(Strategy.involves_struct tau target)
    ~mismatch:(not exact);
  cells

let resolve ctx _graph (dst : Cell.t) (src : Cell.t) (tau : Ctype.t) :
    (Cell.t * Cell.t) list =
  let pairs, matched =
    let tid = Actx.type_id ctx tau in
    Strategy.cross_rows
      (Actx.memo_row ctx ~tag ~tid lookup_exact tau dst)
      (Actx.memo_row ctx ~tag ~tid lookup_exact tau src)
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
