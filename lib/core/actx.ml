(** Analysis context: the layout configuration (used by the Offsets
    instance) and the instrumentation counters behind the paper's Figure 3
    (percentage of [lookup]/[resolve] calls that involve structures, and of
    those, the percentage where the types did not match). *)

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

let create ?(layout = Layout.default) () =
  {
    layout;
    lookup_calls = 0;
    lookup_struct = 0;
    lookup_mismatch = 0;
    resolve_calls = 0;
    resolve_struct = 0;
    resolve_mismatch = 0;
    in_resolve = false;
    obj_sizes = Hashtbl.create 256;
  }

let count_lookup ctx ~structure ~mismatch =
  if not ctx.in_resolve then begin
    ctx.lookup_calls <- ctx.lookup_calls + 1;
    if structure then begin
      ctx.lookup_struct <- ctx.lookup_struct + 1;
      if mismatch then ctx.lookup_mismatch <- ctx.lookup_mismatch + 1
    end
  end

let count_resolve ctx ~structure ~mismatch =
  ctx.resolve_calls <- ctx.resolve_calls + 1;
  if structure then begin
    ctx.resolve_struct <- ctx.resolve_struct + 1;
    if mismatch then ctx.resolve_mismatch <- ctx.resolve_mismatch + 1
  end

(** Run [f] with lookup-counting suppressed (for resolve's internal
    lookups). *)
let inside_resolve ctx f =
  let saved = ctx.in_resolve in
  ctx.in_resolve <- true;
  let r = f () in
  ctx.in_resolve <- saved;
  r

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
