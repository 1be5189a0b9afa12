(** Hash tables keyed by dense integer ids (cell, statement and variable
    ids) and by pairs and triples of them, with monomorphic equality and
    a cheap hash: the identity on ids, an odd-multiply-and-fold mix on
    tuples. Iteration follows the ids, so no printed output may depend
    on it. *)

module Int : Hashtbl.S with type key = int

module Pair : Hashtbl.S with type key = int * int

module Triple : Hashtbl.S with type key = int * int * int
