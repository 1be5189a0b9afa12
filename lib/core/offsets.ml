(** The "Offsets" instance (paper Section 4.2.2): cells are (object, byte
    offset) under one concrete layout strategy. The most precise instance;
    its results are only safe for that layout (not portable).

    [resolve] conceptually pairs every byte in [0 .. sizeof τ - 1]; we pair
    only the source offsets that currently carry facts (the solver re-runs
    a statement whenever its source object gains facts, so this is
    equivalent at the fixpoint). Offsets are canonicalized into array
    representative elements and clamped at the object size so the cell
    space stays finite. *)

open Cfront

let name = "Offsets"

let id = "offsets"

let portable = false

(* [resolve] pairs only source offsets that carry facts, so its pair set
   grows with the graph. *)
let graph_resolve = true

(* [Layout.size_of ty], at least 1, memoized in [tbl] under [key] *)
let size_in ctx tbl key (ty : Ctype.t) : int =
  match Idtbl.Int.find_opt tbl key with
  | Some n -> n
  | None ->
      let n =
        match Layout.size_of ctx.Actx.layout ty with
        | n -> max n 1
        | exception Diag.Error _ -> 1
      in
      Idtbl.Int.replace tbl key n;
      n

let obj_size ctx (obj : Cvar.t) : int =
  size_in ctx ctx.Actx.memo.obj_sizes obj.Cvar.vid obj.Cvar.vty

(** The cell at byte [off] of [obj], canonicalized and clamped: fold
    into array representatives; merge all out-of-bounds offsets
    (Complication 1 can step past a nested object, but unbounded offset
    growth through cyclic casts must not diverge). *)
let cell_at ctx (obj : Cvar.t) (off : int) : Cell.t =
  let size = obj_size ctx obj in
  if off < 0 then Cell.v obj (Cell.Off 0)
  else if off >= size then Cell.v obj (Cell.Off size)
  else
    let key = (obj.Cvar.vid, off) in
    match Idtbl.Pair.find_opt ctx.Actx.memo.offset_cells key with
    | Some c -> c
    | None ->
        let c =
          Cell.v obj
            (Cell.Off (Layout.canon_offset ctx.Actx.layout obj.Cvar.vty off))
        in
        Idtbl.Pair.add ctx.Actx.memo.offset_cells key c;
        c

let tag = Actx.memo_tag ()

let root_cell ctx (s : Cvar.t) : Cell.t = cell_at ctx s 0

let normalize ctx (s : Cvar.t) (alpha : Ctype.path) : Cell.t =
  match alpha with
  | [] -> Actx.memo_root ctx ~tag root_cell s
  | _ :: _ ->
      let off =
        match Layout.offset_of_path ctx.Actx.layout s.Cvar.vty alpha with
        | n -> n
        | exception Diag.Error _ -> 0
      in
      cell_at ctx s off

let target_off (c : Cell.t) : int =
  match c.Cell.sel with Cell.Off k -> k | Cell.Path _ -> 0

let lookup ctx (tau : Ctype.t) (alpha : Ctype.path) (target : Cell.t) :
    Cell.t list =
  Actx.count_lookup ctx
    ~structure:(Strategy.involves_struct tau target)
    ~mismatch:false;
  let field_off =
    match Layout.offset_of_path ctx.Actx.layout tau alpha with
    | n -> n
    | exception Diag.Error _ -> 0
  in
  [ cell_at ctx target.Cell.base (target_off target + field_off) ]

let resolve ctx (graph : Graph.t) (dst : Cell.t) (src : Cell.t)
    (tau : Ctype.t) : (Cell.t * Cell.t) list =
  Actx.count_resolve ctx
    ~structure:
      (Strategy.involves_struct tau dst || Strategy.involves_struct tau src)
    ~mismatch:false;
  let s = dst.Cell.base and t = src.Cell.base in
  let j = target_off dst and k = target_off src in
  let size =
    size_in ctx ctx.Actx.memo.type_sizes (Actx.type_id ctx tau) tau
  in
  (* pair only source offsets that carry facts *)
  let src_cells = Graph.cells_of_obj graph t in
  let pairs =
    List.filter_map
      (fun (c : Cell.t) ->
        match c.Cell.sel with
        | Cell.Off n when n >= k && n < k + size ->
            Some (cell_at ctx s (j + n - k), c)
        | Cell.Off _ | Cell.Path _ -> None)
      src_cells
  in
  Strategy.dedup_pairs pairs

let all_cells ctx (obj : Cvar.t) : Cell.t list =
  match Layout.leaf_offsets ctx.Actx.layout obj.Cvar.vty with
  | leaves ->
      Strategy.dedup_cells
        (List.map
           (fun (_, off, _) -> cell_at ctx obj off)
           leaves)
  | exception Diag.Error _ -> [ Cell.v obj (Cell.Off 0) ]

let in_array ctx (c : Cell.t) : bool =
  let ty = c.Cell.base.Cvar.vty in
  Ctype.is_array ty
  ||
  match c.Cell.sel with
  | Cell.Off k -> (
      match Layout.offset_in_array ctx.Actx.layout ty k with
      | b -> b
      | exception Diag.Error _ -> false)
  | Cell.Path _ -> false

let expand_for_metrics _ctx (c : Cell.t) : Cell.t list = [ c ]
