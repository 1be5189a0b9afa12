(** The points-to graph: a finite map from cells to sets of cells.

    An edge [c → w] is the paper's [pointsTo(c, w)]. Sets are compact
    interned-id arrays ({!Idset}) whose insertion-order log is the delta
    queue difference propagation consumes.

    Cells proven equivalent by online cycle elimination are {!unify}'d
    into a class that shares one set; every observation ([pts],
    [iter_edges], [equal], [edge_count], …) stays member-expanded, as if
    each member carried its own copy, so queries and reports reproduce
    the unshared fixpoint exactly. *)

type t

val create : unit -> t

val canon : t -> Cell.t -> Cell.t
(** The representative cell of a cell's class (the cell itself when it
    was never unified). All graph lookups resolve through it. *)

val class_members : t -> Cell.t -> Cell.t list
(** All cells of a cell's class in merge order, representative first; a
    singleton list for never-unified cells. *)

val class_size_of_rid : t -> int -> int
(** Member count of an (already canonical) representative id's class —
    the member-expanded weight of one fact added to its set. A table
    read. *)

val pts : t -> Cell.t -> Cell.Set.t
(** Current points-to set of a cell (empty if none). Materializes a
    balanced set — use {!pts_ids} on hot paths. *)

val pts_ids : t -> Cell.t -> Idset.t option
(** The live target id set of the cell's class, if it has one.
    Append-ordered: cursors into it ({!Idset.get_ord}) stay valid as the
    set grows — until the class is unified into a larger one, which the
    solver compensates for by resetting the losing side's cursors. *)

val pts_size : t -> Cell.t -> int

val has_source : t -> Cell.t -> bool
(** Does this cell currently carry at least one outgoing edge? *)

val add_edge : t -> Cell.t -> Cell.t -> bool
(** Add an edge; [true] iff it is new. Lands in the source's class set:
    every member of the class gains the fact at once. *)

val union_pts : t -> dst:Cell.t -> src:Cell.t -> int * Cell.t list
(** Bulk [add_edge]: merge the current set of [src]'s class into [dst]'s
    class in one {!Idset.union_into} pass. Returns the number of facts
    added and the cells that just became fact-bearing ([dst]'s whole
    class when it had no facts before). No-op when the two cells are in
    the same class. *)

val unify : t -> Cell.t -> Cell.t -> Cell.t * Cell.t list * Cell.t list
(** Merge the two cells' classes (online cycle elimination): afterwards
    they share one representative and one set. The side whose set holds
    more facts survives, so its insertion-order log prefix — and any
    cursor into it — stays valid; the caller resets the losing side's
    consumers. The merge costs O(1) plus the loser's members: the
    loser's member chain is appended to the winner's, so
    {!class_members} lists the winner's members first, then the
    loser's. Returns the representative, the losing class's members (in
    class order; [[]] when the cells were already one class) and the
    cells that just became fact-bearing. *)

val unshare : t -> unit
(** Dissolve all classes: each member gets its own copy of the shared
    set, and the union-find resets. Required before degradation rewrites
    the graph per cell ({!remove_source}). Counters are member-expanded
    already, so they don't change. *)

val remove_source : t -> Cell.t -> unit
(** Drop a source cell and its outgoing edges. Used when degradation
    merges a cell's facts onto its collapsed representative, so stale
    fine-grained entries don't linger in reports. Requires an unshared
    graph. Drops the per-object index entry when the object's last
    fact-bearing cell goes. *)

val cells_of_obj : t -> Cfront.Cvar.t -> Cell.t list
(** Cells of an object that have at least one outgoing edge — supports
    the Offsets instance's range-restricted [resolve]. Ordered by when
    each cell first gained facts. *)

val cell_count_of_obj : t -> Cfront.Cvar.t -> int
(** Number of distinct cells of an object carrying outgoing edges —
    the quantity the per-object cell budget bounds. *)

val source_cell_count : t -> int
(** Distinct cells with outgoing edges, over all objects
    (member-expanded: every cell of a fact-bearing class counts). *)

val fold_objects :
  t -> (Cfront.Cvar.t -> Cell.Set.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over objects carrying facts, with their fact-bearing cells.
    Objects whose cells were all removed are not visited. *)

val edge_count : t -> int
(** Member-expanded edge total: a class of [m] cells sharing [n] targets
    counts [m * n], matching what an unshared graph would hold. *)

val iter_edges : t -> (Cell.t -> Cell.t -> unit) -> unit

val fold_sources : t -> (Cell.t -> Cell.Set.t -> 'a -> 'a) -> 'a -> 'a

val check_counts : t -> string option
(** Audit the bookkeeping invariants: sets are keyed by class
    representatives; every class's member chain visits exactly its
    recorded size of cells, each of which finds the class's
    representative, and ends at its recorded last member; singletons
    carry no link; [edge_count] equals the member-expanded summed
    cardinals; no retained set is empty; and the per-object index lists
    exactly the fact-bearing member cells. [None] when consistent; otherwise a
    description of the first violation found. *)

val equal : t -> t -> bool
(** Edge-set equality, order-independent, by semantic cell identity —
    the differential (delta vs naive) test's notion of "same result".
    Member-expanded, so class sharing is invisible to it. *)

val pp : Format.formatter -> t -> unit
