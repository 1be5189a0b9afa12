(** Measurements behind the paper's evaluation (Section 5).

    - Figure 3: program size and the lookup/resolve instrumentation
      percentages (taken from {!Actx}).
    - Figure 4: average points-to set size over all static instances of
      dereferenced pointers, with Collapse-Always structure facts expanded
      to all leaf fields.
    - Figure 6: total number of points-to edges. *)

open Cfront
open Norm

(** The pointer variable dereferenced by a source-level deref statement. *)
let deref_pointer (s : Nast.stmt) : Cvar.t option =
  if not s.Nast.is_source_deref then None
  else
    match s.Nast.kind with
    | Nast.Addr_deref (_, p, _) -> Some p
    | Nast.Load (_, q) -> Some q
    | Nast.Store (p, _) -> Some p
    | Nast.Call { Nast.cfn = Nast.Indirect p; _ } -> Some p
    | Nast.Addr _ | Nast.Copy _ | Nast.Arith _
    | Nast.Call { Nast.cfn = Nast.Direct _; _ } ->
        None

(** All static deref sites of a program, in order. *)
let deref_sites (prog : Nast.program) : (Nast.stmt * Cvar.t) list =
  List.filter_map
    (fun s -> Option.map (fun p -> (s, p)) (deref_pointer s))
    (Nast.all_stmts prog)

(** Expanded points-to set of pointer [p] under the solved state. *)
let expanded_pts (solver : Solver.t) (p : Cvar.t) : Cell.Set.t =
  let module S = (val solver.Solver.strategy : Strategy.S) in
  let cell = S.normalize solver.Solver.ctx p [] in
  let targets = Graph.pts solver.Solver.graph cell in
  Cell.Set.fold
    (fun c acc ->
      List.fold_left
        (fun acc e -> Cell.Set.add e acc)
        acc
        (S.expand_for_metrics solver.Solver.ctx c))
    targets Cell.Set.empty

type summary = {
  strategy_id : string;
  strategy_name : string;
  deref_sites : int;
  avg_deref_size : float;  (** Figure 4 *)
  max_deref_size : int;
  total_edges : int;  (** Figure 6 *)
  figures3 : Actx.figures;
  lookup_calls : int;
  resolve_calls : int;
  corrupt_derefs : int;
      (** deref sites whose pointer may hold the Unknown marker
          ([`Unknown] arithmetic mode only): potential memory misuses *)
  unknown_externs : string list;
  degraded : Budget.event list;
      (** which objects were collapsed under budget pressure, why, and
          when; empty for a full-precision run *)
  engine : string;
      (** the engine's name in {!Solver.engines} *)
  solver_visits : int;  (** statement visits the worklist dispatched *)
  facts_consumed : int;
      (** facts read by rule visits plus facts pushed along copy edges *)
  delta_facts : int;  (** facts rule visits actually iterated *)
  full_facts : int;
      (** set sizes those visits would have re-read naively; the
          [delta_facts]/[full_facts] ratio is the delta engine's win *)
  copy_edges : int;  (** subset-constraint edges installed (delta only) *)
  cycles_found : int;
      (** subset cycles collapsed by lazy cycle detection ([`Delta]) *)
  cells_unified : int;
      (** cells folded into another class's representative ([`Delta]) *)
  wasted_propagations : int;
      (** propagations that produced nothing new: statement visits that
          consumed facts but derived no edge, plus copy-edge drains that
          moved facts but added none — the redundancy cycle elimination
          targets *)
  incr_stmts_added : int;
      (** statements the last incremental edit added (0 for a cold run) *)
  incr_stmts_removed : int;
  incr_facts_retracted : int;
      (** facts retraction cleared from affected cells before replaying *)
  incr_warm_visits : int;
      (** statement visits the warm-start resume performed — compare
          against [solver_visits] of a cold solve for the warm ratio *)
  incr_stmts_replayed : int;
      (** statements the targeted replay re-enqueued (the whole program
          on fallback) — the retraction's working-set size *)
  incr_fallback_planned : int;
      (** 1 when the incremental engine's cost estimate chose a scratch
          solve over retraction (a plan, not a degradation) *)
}

module Itbl = Idtbl.Int

let summarize (solver : Solver.t) : summary =
  let module S = (val solver.Solver.strategy : Strategy.S) in
  let ctx = solver.Solver.ctx and unknown = solver.Solver.unknown_obj in
  (* deref sites share most of their targets: expand each target once *)
  let expansions = Itbl.create 256 in
  let expand w =
    match Itbl.find_opt expansions w with
    | Some es -> es
    | None ->
        let es = S.expand_for_metrics ctx (Cell.of_id w) in
        Itbl.add expansions w es;
        es
  in
  (* the size of the pointer's expanded points-to set ([expanded_pts]),
     measured on its class's id set and deduplicated by cell id —
     expansions can overlap: every target inside a degraded object
     expands to all of that object's cells — and whether it holds a
     cell of the Unknown marker *)
  let seen = Itbl.create 64 in
  let measure (_, p) =
    match Graph.pts_ids solver.Solver.graph (S.normalize ctx p []) with
    | None -> (0, false)
    | Some set ->
        Itbl.clear seen;
        let corrupt = ref false in
        Idset.iter
          (fun w ->
            List.iter
              (fun (e : Cell.t) ->
                let id = Cell.id e in
                if not (Itbl.mem seen id) then begin
                  Itbl.add seen id ();
                  if Cvar.equal e.Cell.base unknown then corrupt := true
                end)
              (expand w))
          set;
        (Itbl.length seen, !corrupt)
  in
  let measured = List.map measure (deref_sites solver.Solver.prog) in
  let sizes = List.map fst measured in
  let corrupt_derefs = List.length (List.filter snd measured) in
  let n = List.length sizes in
  let avg =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int n
  in
  {
    strategy_id = S.id;
    strategy_name = S.name;
    deref_sites = n;
    avg_deref_size = avg;
    max_deref_size = List.fold_left max 0 sizes;
    total_edges = Graph.edge_count solver.Solver.graph;
    figures3 = Actx.figures solver.Solver.ctx;
    lookup_calls = solver.Solver.ctx.Actx.lookup_calls;
    resolve_calls = solver.Solver.ctx.Actx.resolve_calls;
    corrupt_derefs;
    (* sorted: a warm-started solver discovers externs in a different
       order than a cold one, but the set is identical *)
    unknown_externs = List.sort_uniq compare solver.Solver.unknown_externs;
    degraded = Budget.events solver.Solver.budget;
    engine = Solver.engine_name solver.Solver.engine;
    solver_visits = solver.Solver.rounds;
    facts_consumed = solver.Solver.facts_consumed;
    delta_facts = solver.Solver.delta_facts;
    full_facts = solver.Solver.full_facts;
    copy_edges = Solver.copy_edge_count solver;
    cycles_found = solver.Solver.cycles_found;
    cells_unified = solver.Solver.cells_unified;
    wasted_propagations = solver.Solver.wasted_props;
    incr_stmts_added = solver.Solver.incr_stmts_added;
    incr_stmts_removed = solver.Solver.incr_stmts_removed;
    incr_facts_retracted = solver.Solver.incr_facts_retracted;
    incr_warm_visits = solver.Solver.incr_warm_visits;
    incr_stmts_replayed = solver.Solver.incr_stmts_replayed;
    incr_fallback_planned = solver.Solver.incr_fallback_planned;
  }

(* ------------------------------------------------------------------ *)
(* Fleet-level counters, owned by the batch/serve supervisor           *)
(* ------------------------------------------------------------------ *)

type fleet = {
  mutable jobs : int;
  mutable completed : int;
  mutable replayed : int;
  mutable crashes : int;
  mutable hangs : int;
  mutable job_errors : int;
  mutable retries : int;
  mutable quarantined : int;
  mutable breaker_skips : int;
  mutable max_rung : int;
  mutable shed : int;
  mutable deadline_expired : int;
  mutable rss_kills : int;
  mutable brownout_escalations : int;
  mutable brownout_rung : int;
  mutable brownout_max_rung : int;
  mutable drain_incomplete : int;
  mutable queue_depth : int;
  mutable queue_peak : int;
  mutable latencies_ms : float list;
}

let fleet_create () =
  {
    jobs = 0;
    completed = 0;
    replayed = 0;
    crashes = 0;
    hangs = 0;
    job_errors = 0;
    retries = 0;
    quarantined = 0;
    breaker_skips = 0;
    max_rung = 0;
    shed = 0;
    deadline_expired = 0;
    rss_kills = 0;
    brownout_escalations = 0;
    brownout_rung = 0;
    brownout_max_rung = 0;
    drain_incomplete = 0;
    queue_depth = 0;
    queue_peak = 0;
    latencies_ms = [];
  }

(* Nearest-rank percentile over an unsorted sample; [p] in [0,100].
   0.0 for an empty sample (a fleet that answered nothing). *)
let percentile (xs : float list) (p : float) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank =
        int_of_float (ceil (p /. 100. *. float_of_int n)) |> max 1 |> min n
      in
      List.nth sorted (rank - 1)

let fleet_json (f : fleet) : string =
  Printf.sprintf
    "{\"jobs\":%d,\"completed\":%d,\"replayed\":%d,\"crashes\":%d,\"hangs\":%d,\"job_errors\":%d,\"retries\":%d,\"quarantined\":%d,\"breaker_skips\":%d,\"max_rung\":%d,\"shed\":%d,\"deadline_expired\":%d,\"rss_kills\":%d,\"brownout_escalations\":%d,\"brownout_rung\":%d,\"brownout_max_rung\":%d,\"drain_incomplete\":%d,\"queue_depth\":%d,\"queue_peak\":%d,\"latency_p50_ms\":%.1f,\"latency_p99_ms\":%.1f}"
    f.jobs f.completed f.replayed f.crashes f.hangs f.job_errors f.retries
    f.quarantined f.breaker_skips f.max_rung f.shed f.deadline_expired
    f.rss_kills f.brownout_escalations f.brownout_rung f.brownout_max_rung
    f.drain_incomplete f.queue_depth f.queue_peak
    (percentile f.latencies_ms 50.)
    (percentile f.latencies_ms 99.)

(* ------------------------------------------------------------------ *)
(* Report-store counters, owned by lib/store                           *)
(* ------------------------------------------------------------------ *)

type store = {
  mutable hits : int;
  mutable misses : int;
  mutable ancestor_warm_starts : int;
  mutable corrupt_quarantined : int;
  mutable evictions : int;
  mutable snapshots_written : int;
  mutable write_failures : int;
}

let store_create () =
  {
    hits = 0;
    misses = 0;
    ancestor_warm_starts = 0;
    corrupt_quarantined = 0;
    evictions = 0;
    snapshots_written = 0;
    write_failures = 0;
  }

let store_json (s : store) : string =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"ancestor_warm_starts\":%d,\"corrupt_quarantined\":%d,\"evictions\":%d,\"snapshots_written\":%d,\"write_failures\":%d}"
    s.hits s.misses s.ancestor_warm_starts s.corrupt_quarantined s.evictions
    s.snapshots_written s.write_failures

let pp_store ppf (s : store) =
  Fmt.pf ppf
    "store: %d hit%s, %d miss%s, %d quarantined, %d evicted, %d written, \
     %d write failure%s"
    s.hits
    (if s.hits = 1 then "" else "s")
    s.misses
    (if s.misses = 1 then "" else "es")
    s.corrupt_quarantined s.evictions s.snapshots_written s.write_failures
    (if s.write_failures = 1 then "" else "s")

let pp_fleet ppf (f : fleet) =
  Fmt.pf ppf
    "fleet: %d job%s, %d completed, %d replayed, %d crash%s, %d hang%s, %d \
     error%s, %d retr%s, %d quarantined, %d breaker skip%s, max rung %d"
    f.jobs
    (if f.jobs = 1 then "" else "s")
    f.completed f.replayed f.crashes
    (if f.crashes = 1 then "" else "es")
    f.hangs
    (if f.hangs = 1 then "" else "s")
    f.job_errors
    (if f.job_errors = 1 then "" else "s")
    f.retries
    (if f.retries = 1 then "y" else "ies")
    f.quarantined f.breaker_skips
    (if f.breaker_skips = 1 then "" else "s")
    f.max_rung;
  if
    f.shed > 0 || f.rss_kills > 0 || f.brownout_max_rung > 0
    || f.drain_incomplete > 0
  then
    Fmt.pf ppf
      ", %d shed (%d deadline-expired), %d rss kill%s, brownout rung \
       %d (peak %d, %d escalation%s), %d drain-incomplete, queue peak %d"
      f.shed f.deadline_expired f.rss_kills
      (if f.rss_kills = 1 then "" else "s")
      f.brownout_rung f.brownout_max_rung f.brownout_escalations
      (if f.brownout_escalations = 1 then "" else "s")
      f.drain_incomplete f.queue_peak
