(** Analysis context: the layout configuration (used by the Offsets
    instance), the instrumentation counters behind the paper's Figure 3
    (percentage of [lookup]/[resolve] calls that involve structures, and of
    those, the percentage where the types did not match), and the run's
    strategy memo. *)

open Cfront

module Ty_tbl = Hashtbl.Make (struct
  type t = Ctype.t

  let equal = Ctype.equal

  let hash = Ctype.hash
end)

type lookup_key = { tag : int; tid : int; alpha : Ctype.path; target : int }

module Lookup_tbl = Hashtbl.Make (struct
  type t = lookup_key

  let equal a b =
    a.target = b.target && a.tid = b.tid && a.tag = b.tag
    && List.equal String.equal a.alpha b.alpha

  let hash k =
    ((((k.target * 31) + k.tid) * 31) + k.tag) * 31 + Hashtbl.hash k.alpha
end)

type memo = {
  type_ids : int Ty_tbl.t;
  lookups : (Cell.t list * bool) Lookup_tbl.t;
  roots : Cell.t Idtbl.Pair.t;
  rows : (Cell.t list * bool) list Idtbl.Triple.t;
  type_sizes : int Idtbl.Int.t;
  obj_sizes : int Idtbl.Int.t;
  offset_cells : Cell.t Idtbl.Pair.t;
}

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

let create ?(layout = Layout.default) () =
  {
    layout;
    lookup_calls = 0;
    lookup_struct = 0;
    lookup_mismatch = 0;
    resolve_calls = 0;
    resolve_struct = 0;
    resolve_mismatch = 0;
    memo =
      {
        type_ids = Ty_tbl.create 64;
        lookups = Lookup_tbl.create 1024;
        roots = Idtbl.Pair.create 256;
        rows = Idtbl.Triple.create 1024;
        type_sizes = Idtbl.Int.create 64;
        obj_sizes = Idtbl.Int.create 256;
        offset_cells = Idtbl.Pair.create 1024;
      };
  }

let clear_memo ctx =
  Ty_tbl.reset ctx.memo.type_ids;
  Lookup_tbl.reset ctx.memo.lookups;
  Idtbl.Pair.reset ctx.memo.roots;
  Idtbl.Triple.reset ctx.memo.rows;
  Idtbl.Int.reset ctx.memo.type_sizes;
  Idtbl.Int.reset ctx.memo.obj_sizes;
  Idtbl.Pair.reset ctx.memo.offset_cells

let type_id ctx (ty : Ctype.t) : int =
  let ids = ctx.memo.type_ids in
  match Ty_tbl.find_opt ids ty with
  | Some i -> i
  | None ->
      let i = Ty_tbl.length ids in
      Ty_tbl.add ids ty i;
      i

let next_tag = ref 0

let memo_tag () =
  incr next_tag;
  !next_tag

let memo_root ctx ~tag f (v : Cvar.t) : Cell.t =
  let key = (tag, v.Cvar.vid) in
  match Idtbl.Pair.find_opt ctx.memo.roots key with
  | Some c -> c
  | None ->
      let c = f ctx v in
      Idtbl.Pair.add ctx.memo.roots key c;
      c

let memo_lookup ctx ~tag ~tid f (tau : Ctype.t) (alpha : Ctype.path)
    (target : Cell.t) : Cell.t list * bool =
  let key = { tag; tid; alpha; target = target.Cell.cid } in
  match Lookup_tbl.find_opt ctx.memo.lookups key with
  | Some r -> r
  | None ->
      let r = f tau alpha target in
      Lookup_tbl.add ctx.memo.lookups key r;
      r

let memo_row ctx ~tag ~tid f (tau : Ctype.t) (c : Cell.t) :
    (Cell.t list * bool) list =
  let key = (tag, tid, c.Cell.cid) in
  match Idtbl.Triple.find_opt ctx.memo.rows key with
  | Some r -> r
  | None ->
      let r = List.map (fun delta -> f tau delta c) (Ctype.leaf_paths tau) in
      Idtbl.Triple.add ctx.memo.rows key r;
      r

let count_lookup ctx ~structure ~mismatch =
  ctx.lookup_calls <- ctx.lookup_calls + 1;
  if structure then begin
    ctx.lookup_struct <- ctx.lookup_struct + 1;
    if mismatch then ctx.lookup_mismatch <- ctx.lookup_mismatch + 1
  end

let count_resolve ctx ~structure ~mismatch =
  ctx.resolve_calls <- ctx.resolve_calls + 1;
  if structure then begin
    ctx.resolve_struct <- ctx.resolve_struct + 1;
    if mismatch then ctx.resolve_mismatch <- ctx.resolve_mismatch + 1
  end

type figures = {
  pct_lookup_struct : float;
  pct_lookup_mismatch : float;  (** of the struct-involving calls *)
  pct_resolve_struct : float;
  pct_resolve_mismatch : float;
}

let figures ctx =
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  {
    pct_lookup_struct = pct ctx.lookup_struct ctx.lookup_calls;
    pct_lookup_mismatch = pct ctx.lookup_mismatch ctx.lookup_struct;
    pct_resolve_struct = pct ctx.resolve_struct ctx.resolve_calls;
    pct_resolve_mismatch = pct ctx.resolve_mismatch ctx.resolve_struct;
  }
