(** A binary min-heap of (priority, id) pairs: the solver's cell
    worklist, drained in pseudo-topological order of the copy graph so
    facts flow roughly sources-before-sinks and each cell is visited
    with as full a set as possible.

    Ties break on the id so the pop order is a pure function of the push
    sequence — the solver's determinism contract (byte-identical reports
    across reruns) runs through here. *)

type t = {
  mutable prio : int array;
  mutable elt : int array;
  mutable len : int;
}

let create ?(cap = 64) () =
  let cap = max cap 1 in
  { prio = Array.make cap 0; elt = Array.make cap 0; len = 0 }

let is_empty h = h.len = 0

let clear h = h.len <- 0

let less h i j =
  h.prio.(i) < h.prio.(j) || (h.prio.(i) = h.prio.(j) && h.elt.(i) < h.elt.(j))

let swap h i j =
  let p = h.prio.(i) and e = h.elt.(i) in
  h.prio.(i) <- h.prio.(j);
  h.elt.(i) <- h.elt.(j);
  h.prio.(j) <- p;
  h.elt.(j) <- e

let push h ~prio x =
  if h.len = Array.length h.elt then begin
    let cap = 2 * h.len in
    let p = Array.make cap 0 and e = Array.make cap 0 in
    Array.blit h.prio 0 p 0 h.len;
    Array.blit h.elt 0 e 0 h.len;
    h.prio <- p;
    h.elt <- e
  end;
  h.prio.(h.len) <- prio;
  h.elt.(h.len) <- x;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && less h !i ((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(** Pop the minimum-priority element. Raises [Invalid_argument] when
    empty — callers guard with {!is_empty}. *)
let pop h : int =
  if h.len = 0 then invalid_arg "Pq.pop: empty";
  let top = h.elt.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.prio.(0) <- h.prio.(h.len);
    h.elt.(0) <- h.elt.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && less h l !m then m := l;
      if r < h.len && less h r !m then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done
  end;
  top
