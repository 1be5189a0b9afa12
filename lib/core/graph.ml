(** The points-to graph: a finite map from cells to sets of cells.

    An edge [c → w] is the paper's [pointsTo(c, w)]. Internally both
    sides are interned cell ids ({!Cell.id}) and every set is a compact
    sorted id array ({!Idset}) whose insertion-order log doubles as the
    delta queue the solver's difference propagation consumes. An index
    from base objects to the cells of that object carrying outgoing edges
    supports the Offsets instance's range-restricted [resolve].

    Cells proven equivalent by online cycle elimination (a subset cycle
    [a ⊆ b ⊆ … ⊆ a]) are {!unify}'d into one class over a {!Uf.t}: the
    whole class aliases a single shared [Idset.t], keyed by the class
    representative. A class's members form a singly linked chain that
    starts at the representative: [classes] records each multi-member
    class's last member and size, [next] links each member to the one
    after it. Merging two classes appends the loser's chain to the
    winner's in O(1), so members stay in merge order — winner's members
    first, then the loser's — which snapshots, the per-object index and
    the solver's wake order all observe. Observable semantics stay
    member-expanded — [pts], [iter_edges], [fold_sources], [equal],
    [edge_count] all behave as if every member carried its own copy of
    the shared set, so reports and queries reproduce the unshared
    fixpoint exactly. Only targets keep
    their original identity; sharing canonicalizes sources. {!unshare}
    dissolves the classes (degradation rebuilds the constraint system
    over coarser cells, where the old classes are meaningless). *)

open Cfront

module Itbl = Idtbl.Int

(* A class's chain runs from its representative to [last]. *)
type cls = { mutable last : int; mutable size : int }

type t = {
  edges : Idset.t Itbl.t;
      (** class representative id → shared target id set (never empty) *)
  uf : Uf.t;  (** source-cell classes (online cycle elimination) *)
  classes : cls Itbl.t;
      (** representative id → the class's last member and size, only for
          classes of two or more members (singletons are implicit) *)
  next : int Itbl.t;
      (** member id → the next member of its class; the last member of a
          class and every singleton carry no link *)
  by_obj : Idset.t Cvar.Tbl.t;
      (** object → ids of its cells with facts (entries dropped when they
          empty, so [fold_objects] never visits a fact-free object) *)
  mutable edge_count : int;
      (** member-expanded: a class of [m] cells sharing a set of [n]
          targets contributes [m * n] *)
  mutable source_count : int;  (** member-expanded fact-bearing cells *)
}

let create () =
  {
    edges = Itbl.create 256;
    uf = Uf.create ();
    classes = Itbl.create 16;
    next = Itbl.create 16;
    by_obj = Cvar.Tbl.create 64;
    edge_count = 0;
    source_count = 0;
  }

(* ------------------------------------------------------------------ *)
(* Classes                                                             *)
(* ------------------------------------------------------------------ *)

(** The representative cell of [c]'s class ([c] itself when never
    unified). All graph lookups resolve through it. *)
let canon g (c : Cell.t) : Cell.t = Cell.of_id (Uf.find g.uf (Cell.id c))

(* The chain from [m] to [last], inclusive. *)
let[@tail_mod_cons] rec chain g (m : int) (last : int) : Cell.t list =
  Cell.of_id m :: (if m = last then [] else chain g (Itbl.find g.next m) last)

let members_of g (rid : int) : Cell.t list =
  match Itbl.find_opt g.classes rid with
  | Some k -> chain g rid k.last
  | None -> [ Cell.of_id rid ]

(** All cells of [c]'s class, the representative first, in merge order. *)
let class_members g (c : Cell.t) : Cell.t list =
  members_of g (Uf.find g.uf (Cell.id c))

let class_size g (rid : int) : int =
  match Itbl.find_opt g.classes rid with Some k -> k.size | None -> 1

(** Member count of the class of an (already canonical) representative
    id — the weight of one fact in the member-expanded [edge_count]. *)
let class_size_of_rid g (rid : int) : int = class_size g rid

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

let to_set (s : Idset.t) : Cell.Set.t =
  Idset.fold (fun i acc -> Cell.Set.add (Cell.of_id i) acc) s Cell.Set.empty

let find_set g (c : Cell.t) : Idset.t option =
  Itbl.find_opt g.edges (Uf.find g.uf (Cell.id c))

let pts g (c : Cell.t) : Cell.Set.t =
  match find_set g c with Some s -> to_set s | None -> Cell.Set.empty

(** The target id set of [c]'s class, if it has one. The set is live (it
    grows as edges land) and append-ordered — cursors into it stay valid
    until the class is unified into a larger one. *)
let pts_ids g (c : Cell.t) : Idset.t option = find_set g c

let pts_size g (c : Cell.t) : int =
  match find_set g c with Some s -> Idset.cardinal s | None -> 0

(** Does [c] currently carry any outgoing edge? *)
let has_source g (c : Cell.t) : bool =
  Itbl.mem g.edges (Uf.find g.uf (Cell.id c))

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(** Record [cid] (a member id, not a representative) as fact-bearing in
    the per-object index. *)
let index_cell g (c : Cell.t) : unit =
  let idx =
    match Cvar.Tbl.find_opt g.by_obj c.Cell.base with
    | Some s -> s
    | None ->
        let s = Idset.create () in
        Cvar.Tbl.replace g.by_obj c.Cell.base s;
        s
  in
  if Idset.add idx (Cell.id c) then g.source_count <- g.source_count + 1

(** Add edge [c → w]; returns [true] if the edge is new. The fact lands
    in [c]'s class set, so every class member gains it at once. *)
let add_edge g (c : Cell.t) (w : Cell.t) : bool =
  let rid = Uf.find g.uf (Cell.id c) in
  let set, fresh_source =
    match Itbl.find_opt g.edges rid with
    | Some s -> (s, false)
    | None ->
        let s = Idset.create () in
        Itbl.replace g.edges rid s;
        (s, true)
  in
  if Idset.add set (Cell.id w) then begin
    g.edge_count <- g.edge_count + class_size g rid;
    if fresh_source then List.iter (index_cell g) (members_of g rid);
    true
  end
  else false

(** Merge the current points-to set of [src]'s class into [dst]'s class
    set with one {!Idset.union_into} pass — the bulk form of repeated
    [add_edge] used for copy-edge drains and collapse merges. Returns the
    number of facts added and the cells that just became fact-bearing
    ([dst]'s whole class when it had no set before, [[]] otherwise). *)
let union_pts g ~(dst : Cell.t) ~(src : Cell.t) : int * Cell.t list =
  let sid = Uf.find g.uf (Cell.id src) in
  let did = Uf.find g.uf (Cell.id dst) in
  if sid = did then (0, [])
  else
    match Itbl.find_opt g.edges sid with
    | None -> (0, [])
    | Some ss -> (
        match Itbl.find_opt g.edges did with
        | Some ds ->
            let added = Idset.union_into ds ss in
            g.edge_count <- g.edge_count + (added * class_size g did);
            (added, [])
        | None ->
            let ds = Idset.create ~cap:(Idset.cardinal ss) () in
            let added = Idset.union_into ds ss in
            Itbl.replace g.edges did ds;
            let dmembers = members_of g did in
            g.edge_count <- g.edge_count + (added * class_size g did);
            List.iter (index_cell g) dmembers;
            (added, dmembers))

(** Unify the classes of [a] and [b]: afterwards they share one set and
    one representative. The representative kept is the one whose class
    set holds more facts (ties: the smaller id), so the survivor's
    insertion-order log keeps its prefix — cursors held by consumers of
    the *winning* class stay valid; the caller must reset consumers of
    the losing class. The loser's chain is appended to the winner's.
    Returns the representative, the losing class's members (in class
    order) and the cells that just became fact-bearing (the fact-free
    side's members, when exactly one side had facts). *)
let unify g (a : Cell.t) (b : Cell.t) : Cell.t * Cell.t list * Cell.t list =
  let ra = Uf.find g.uf (Cell.id a) and rb = Uf.find g.uf (Cell.id b) in
  if ra = rb then (Cell.of_id ra, [], [])
  else begin
    let ca =
      match Itbl.find_opt g.edges ra with Some s -> Idset.cardinal s | None -> 0
    in
    let cb =
      match Itbl.find_opt g.edges rb with Some s -> Idset.cardinal s | None -> 0
    in
    let w, l =
      if cb > ca then (rb, ra)
      else if ca > cb then (ra, rb)
      else (min ra rb, max ra rb)
    in
    let wk = Itbl.find_opt g.classes w and lk = Itbl.find_opt g.classes l in
    let ends r = function Some k -> (k.last, k.size) | None -> (r, 1) in
    let wlast, wsize = ends w wk and llast, lsize = ends l lk in
    let lm = chain g l llast in
    Uf.union g.uf ~into:w l;
    Itbl.replace g.next wlast l;
    if lk <> None then Itbl.remove g.classes l;
    (match wk with
    | Some k ->
        k.last <- llast;
        k.size <- wsize + lsize
    | None -> Itbl.replace g.classes w { last = llast; size = 1 + lsize });
    let rep = Cell.of_id w in
    match (Itbl.find_opt g.edges w, Itbl.find_opt g.edges l) with
    | None, None -> (rep, lm, [])
    | Some s, None ->
        (* the loser's members now see the winner's facts *)
        g.edge_count <- g.edge_count + (Idset.cardinal s * lsize);
        List.iter (index_cell g) lm;
        (rep, lm, lm)
    | None, Some s ->
        Itbl.remove g.edges l;
        Itbl.replace g.edges w s;
        g.edge_count <- g.edge_count + (Idset.cardinal s * wsize);
        let wm = chain g w wlast in
        List.iter (index_cell g) wm;
        (rep, lm, wm)
    | Some sw, Some sl ->
        let cw0 = Idset.cardinal sw in
        let added = Idset.union_into sw sl in
        Itbl.remove g.edges l;
        (* winner members gained [added] facts each; loser members now
           carry the merged set instead of their old one *)
        g.edge_count <-
          g.edge_count + (wsize * added)
          + (lsize * (cw0 + added - Idset.cardinal sl));
        (rep, lm, [])
  end

(** Dissolve every class: give each non-representative member its own
    copy of the shared set, then reset the union-find. Called before a
    degradation collapse rewrites the graph — the collapse logic (and
    [remove_source]) operates per cell and must not see aliasing.
    [edge_count]/[source_count]/[by_obj] are already member-expanded, so
    they are unchanged. *)
let unshare g : unit =
  if Itbl.length g.classes > 0 then begin
    Itbl.iter
      (fun rid _ ->
        match Itbl.find_opt g.edges rid with
        | None -> ()
        | Some s ->
            List.iter
              (fun (m : Cell.t) ->
                if Cell.id m <> rid then
                  Itbl.replace g.edges (Cell.id m) (Idset.copy s))
              (members_of g rid))
      g.classes;
    Itbl.reset g.classes;
    Itbl.reset g.next
  end;
  Uf.reset g.uf

(** Remove [c] from the per-object fact-bearing index, dropping the
    object's entry when its last indexed cell goes so
    [fold_objects]/[cell_count_of_obj] never see a stale empty object. *)
let deindex_cell g (c : Cell.t) : unit =
  let cid = Cell.id c in
  match Cvar.Tbl.find_opt g.by_obj c.Cell.base with
  | Some idx when Idset.mem idx cid ->
      g.source_count <- g.source_count - 1;
      (* Idset has no removal (cursors must stay valid), so rebuild
         the small per-object index without [c]. *)
      let remaining =
        Idset.fold (fun i acc -> if i = cid then acc else i :: acc) idx []
      in
      if remaining = [] then Cvar.Tbl.remove g.by_obj c.Cell.base
      else begin
        let fresh = Idset.create ~cap:(List.length remaining) () in
        List.iter (fun i -> ignore (Idset.add fresh i)) (List.rev remaining);
        Cvar.Tbl.replace g.by_obj c.Cell.base fresh
      end
  | Some _ | None -> ()

(** Drop a source cell and its outgoing edges (degradation: the cell's
    facts live on its collapsed representative from now on). Requires an
    unshared graph ({!unshare}) — removal from a shared class would be
    ill-defined. *)
let remove_source g (c : Cell.t) : unit =
  let cid = Cell.id c in
  match Itbl.find_opt g.edges cid with
  | None -> ()
  | Some s ->
      g.edge_count <- g.edge_count - Idset.cardinal s;
      Itbl.remove g.edges cid;
      deindex_cell g c

(* ------------------------------------------------------------------ *)
(* Iteration (member-expanded)                                         *)
(* ------------------------------------------------------------------ *)

(** Cells of [obj] that have at least one outgoing edge, in the order the
    cells first gained facts. *)
let cells_of_obj g (obj : Cvar.t) : Cell.t list =
  match Cvar.Tbl.find_opt g.by_obj obj with
  | Some s -> List.rev (Idset.fold (fun i acc -> Cell.of_id i :: acc) s [])
  | None -> []

(** Number of distinct cells of [obj] carrying outgoing edges. *)
let cell_count_of_obj g (obj : Cvar.t) : int =
  match Cvar.Tbl.find_opt g.by_obj obj with
  | Some s -> Idset.cardinal s
  | None -> 0

(** Number of distinct cells carrying outgoing edges, over all objects.
    Member-expanded: every cell of a fact-bearing class counts. *)
let source_cell_count g : int = g.source_count

(** Fold over objects that carry facts, with their fact-bearing cells. *)
let fold_objects g f init =
  Cvar.Tbl.fold (fun v s acc -> f v (to_set s) acc) g.by_obj init

let edge_count g = g.edge_count

let iter_edges g f =
  Itbl.iter
    (fun rid s ->
      List.iter
        (fun c -> Idset.iter (fun wid -> f c (Cell.of_id wid)) s)
        (members_of g rid))
    g.edges

let fold_sources g f init =
  Itbl.fold
    (fun rid s acc ->
      let set = to_set s in
      List.fold_left (fun acc c -> f c set acc) acc (members_of g rid))
    g.edges init

(* ------------------------------------------------------------------ *)
(* Audits and equality                                                 *)
(* ------------------------------------------------------------------ *)

(** Audit the bookkeeping: set keys are class representatives,
    [edge_count] equals the member-expanded summed cardinals, no stored
    set is empty, every class chain visits exactly its recorded size of
    members of that class and ends at its recorded last member, no
    singleton carries a link, and the per-object index lists exactly the fact-bearing member
    cells. Returns the offending description, or [None]. *)
let check_counts g : string option =
  let fail = ref None in
  let check cond msg = if !fail = None && not cond then fail := Some msg in
  Itbl.iter
    (fun rid _ ->
      check
        (Uf.find g.uf rid = rid)
        (Printf.sprintf "set keyed by non-representative cell %d" rid))
    g.edges;
  let links = ref 0 in
  Itbl.iter
    (fun rid k ->
      check
        (Uf.find g.uf rid = rid)
        (Printf.sprintf "class keyed by non-representative %d" rid);
      check (k.size >= 2) (Printf.sprintf "degenerate class entry for %d" rid);
      links := !links + k.size - 1;
      (* walk at most [k.size] members: the walk must end exactly there,
         at the recorded last member, without revisiting a cell *)
      let seen = Itbl.create k.size in
      let rec walk m n =
        check
          (not (Itbl.mem seen m))
          (Printf.sprintf "class %d revisits member %d" rid m);
        Itbl.replace seen m ();
        check
          (Uf.find g.uf m = rid)
          (Printf.sprintf "member %d not in class %d" m rid);
        if n = k.size then
          check (m = k.last)
            (Printf.sprintf "class %d: member %d of %d is %d, not last %d" rid
               n k.size m k.last)
        else
          match Itbl.find_opt g.next m with
          | Some m' when !fail = None -> walk m' (n + 1)
          | Some _ -> ()
          | None ->
              check false
                (Printf.sprintf "class %d: chain ends after %d of %d members"
                   rid n k.size)
      in
      walk rid 1;
      check
        (not (Itbl.mem g.next k.last))
        (Printf.sprintf "last member %d of class %d carries a link" k.last rid))
    g.classes;
  Itbl.iter
    (fun m _ ->
      check
        (Itbl.mem g.classes (Uf.find g.uf m))
        (Printf.sprintf "singleton %d carries a link" m))
    g.next;
  check
    (Itbl.length g.next = !links)
    (Printf.sprintf "%d member links, classes account for %d"
       (Itbl.length g.next) !links);
  (match !fail with
  | Some _ -> ()
  | None ->
      let summed =
        Itbl.fold
          (fun rid s acc -> acc + (Idset.cardinal s * class_size g rid))
          g.edges 0
      in
      check (summed = g.edge_count)
        (Printf.sprintf "edge_count drift: counter %d, summed %d" g.edge_count
           summed);
      check
        (not (Itbl.fold (fun _ s acc -> acc || Idset.is_empty s) g.edges false))
        "empty points-to set retained in edges";
      let indexed =
        Cvar.Tbl.fold (fun _ s acc -> acc + Idset.cardinal s) g.by_obj 0
      in
      let expanded =
        Itbl.fold (fun rid _ acc -> acc + class_size g rid) g.edges 0
      in
      check (indexed = expanded)
        (Printf.sprintf "by_obj index drift: %d indexed, %d member sources"
           indexed expanded);
      check (indexed = g.source_count)
        (Printf.sprintf "source_count drift: counter %d, indexed %d"
           g.source_count indexed);
      check
        (not
           (Cvar.Tbl.fold
              (fun _ s acc -> acc || Idset.is_empty s)
              g.by_obj false))
        "empty per-object index entry retained";
      Cvar.Tbl.iter
        (fun _ idx ->
          Idset.iter
            (fun cid ->
              check
                (Itbl.mem g.edges (Uf.find g.uf cid))
                (Printf.sprintf "indexed cell %d has no facts" cid))
            idx)
        g.by_obj;
      Itbl.iter
        (fun rid _ ->
          List.iter
            (fun (m : Cell.t) ->
              check
                (match Cvar.Tbl.find_opt g.by_obj m.Cell.base with
                | Some idx -> Idset.mem idx (Cell.id m)
                | None -> false)
                (Printf.sprintf "source cell %d missing from by_obj index"
                   (Cell.id m)))
            (members_of g rid))
        g.edges);
  !fail

let sorted_pairs g =
  let pairs =
    fold_sources g
      (fun c s acc -> Cell.Set.fold (fun w acc -> (c, w) :: acc) s acc)
      []
  in
  List.sort
    (fun (a1, a2) (b1, b2) ->
      match Cell.compare a1 b1 with 0 -> Cell.compare a2 b2 | c -> c)
    pairs

(** Edge-set equality (order-independent), by semantic cell identity.
    Member-expanded, so a shared-class graph equals the unshared graph
    with the same facts. *)
let equal a b =
  a.edge_count = b.edge_count
  && List.equal
       (fun (a1, a2) (b1, b2) -> Cell.equal a1 b1 && Cell.equal a2 b2)
       (sorted_pairs a) (sorted_pairs b)

let pp ppf g =
  let entries = fold_sources g (fun c s acc -> (c, s) :: acc) [] in
  let entries = List.sort (fun (a, _) (b, _) -> Cell.compare a b) entries in
  List.iter
    (fun (c, s) ->
      Fmt.pf ppf "%a -> {%a}@." Cell.pp c
        (Fmt.list ~sep:(Fmt.any ", ") Cell.pp)
        (Cell.Set.elements s))
    entries
