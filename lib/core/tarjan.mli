(** Generic strongly-connected-component condensation (Tarjan's
    algorithm, iterative — no recursion, so deep chains cannot blow the
    OCaml stack).

    Used by the bottom-up summary schedule to condense the function
    call graph into an SCC-DAG ([`Summary] engine and [lib/summary]). *)

val sccs : roots:int list -> succs:(int -> int list) -> int list list
(** Strongly connected components of the subgraph reachable from
    [roots], in topological order of the condensation: every edge of
    the condensed DAG points from an earlier component in the returned
    list to a later one (sources first, sinks last). Within one
    component, members appear in discovery order.

    Deterministic: roots are visited in list order and successors in
    the order [succs] returns them — never in hashtable order — so the
    same graph always yields the same component sequence (run-to-run
    byte-identical reports depend on this). Duplicate roots and
    self-loops are fine; nodes unreachable from [roots] are absent. *)
