(** Union-find over dense interned cell ids ({!Cell.id}): the class
    structure behind online cycle elimination.

    When the solver proves a subset cycle [a ⊆ b ⊆ … ⊆ a], all members
    converge to the same points-to set, so {!Graph} unifies them into one
    class that shares a single {!Idset.t}. The forest is keyed by the
    dense ids directly (an int array, not a hashtable): [find] is a
    pointer chase with path compression, and ids beyond the allocated
    prefix are implicitly their own roots, so the structure never needs
    to be told about new cells.

    The parent choice is directed ([union ~into]) — the caller picks the
    representative (the member with the larger points-to set, so the
    surviving insertion-order log keeps its cursor-valid prefix). *)

type t = { mutable parent : int array }

let create ?(cap = 256) () =
  let cap = max cap 1 in
  { parent = Array.init cap (fun i -> i) }

let ensure t i =
  let n = Array.length t.parent in
  if i >= n then begin
    let cap = max (2 * n) (i + 1) in
    let parent = Array.init cap (fun j -> j) in
    Array.blit t.parent 0 parent 0 n;
    t.parent <- parent
  end

(** Representative of [i]'s class ([i] itself when never unified). *)
let rec find t (i : int) : int =
  if i >= Array.length t.parent then i
  else
    let p = t.parent.(i) in
    if p = i then i
    else begin
      let r = find t p in
      t.parent.(i) <- r;
      r
    end

(** Merge [child]'s class into [into]'s class; [into]'s representative
    survives. No-op when already unified. *)
let union t ~(into : int) (child : int) : unit =
  ensure t (max into child);
  let ri = find t into and rc = find t child in
  if ri <> rc then t.parent.(rc) <- ri

let same t a b = find t a = find t b

(** Dissolve every class (each id becomes its own root again) — used when
    degradation rebuilds the constraint system from scratch. *)
let reset t =
  let p = t.parent in
  for i = 0 to Array.length p - 1 do
    p.(i) <- i
  done

