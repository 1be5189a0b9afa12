(** Hash tables keyed by dense integer ids and by pairs and triples of
    them: the solver's, the graph's and the strategy memo's lookup
    structure. The stdlib's polymorphic [Hashtbl.hash] is a C call
    ([caml_hash]) per lookup and its polymorphic equality a
    [compare_val]; these keys need neither. *)

(* Ids are dense and the table's bucket array is a power of two, so the
   identity hash already spreads them evenly. *)
module Int = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x = x land max_int
end)

(* Multiply by an odd constant (a bijection on 63-bit ints), then fold
   the high half into the low bits the bucket mask keeps, so every
   component of a packed key reaches the mask. *)
let mix h =
  let h = h * 0x9e3779b97f4a7c1 in
  (h lxor (h lsr 31)) land max_int

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a1 : int), (a2 : int)) (b1, b2) = a1 = b1 && a2 = b2

  let hash (a, b) = mix (a lxor (b lsl 31))
end)

module Triple = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a1 : int), (a2 : int), (a3 : int)) (b1, b2, b3) =
    a1 = b1 && a2 = b2 && a3 = b3

  let hash (a, b, c) = mix (mix (a lxor (b lsl 31)) + c)
end)
