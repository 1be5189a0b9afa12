(** The hooked summary solve; see the interface for the soundness
    argument (monotonicity over statement subsets) and the serve
    composition. *)

open Cfront
open Norm
open Core

(* ------------------------------------------------------------------ *)
(* Identity-free cell binding                                          *)
(* ------------------------------------------------------------------ *)

(* Records travel as (var key, selector) endpoints. Binding refuses
   shadowed keys outright — on either side — because the "first holder"
   of a shadowed key is an accident of variable generation order that an
   edit elsewhere could flip, and a record must mean the same storage in
   every program whose key matches. *)
type binder = {
  first : (string, Cvar.t) Hashtbl.t;
  shadowed : (string, unit) Hashtbl.t;
  keyer : Incr.Progdiff.Keyer.t;
}

let binder_of ~keyer (prog : Nast.program) : binder =
  let first = Hashtbl.create 256 in
  let shadowed = Hashtbl.create 16 in
  List.iter
    (fun (v : Cvar.t) ->
      let k = Incr.Progdiff.Keyer.var keyer v in
      if Hashtbl.mem first k then Hashtbl.replace shadowed k ()
      else Hashtbl.add first k v)
    prog.Nast.pall_vars;
  { first; shadowed; keyer }

let sel_of_cell : Cell.sel -> Sumcache.sel = function
  | Cell.Path p -> Sumcache.Path p
  | Cell.Off o -> Sumcache.Off o

let cell_sel : Sumcache.sel -> Cell.sel = function
  | Sumcache.Path p -> Cell.Path p
  | Sumcache.Off o -> Cell.Off o

(* record side: cell id (from a sub-solver's attribution table) →
   endpoint, [None] when the cell would not rebind faithfully *)
let endpoint_of (b : binder) ~(refuse : Cvar.t) (cid : int) :
    Sumcache.endpoint option =
  let c = Cell.of_id cid in
  let v = c.Cell.base in
  if Cvar.equal v refuse then None
  else
    let k = Incr.Progdiff.Keyer.var b.keyer v in
    if Hashtbl.mem b.shadowed k then None
    else
      match Hashtbl.find_opt b.first k with
      | Some v0 when Cvar.equal v0 v -> Some (k, sel_of_cell c.Cell.sel)
      | _ -> None

(* injection side: endpoint → cell over the request program's variables *)
let cell_of (b : binder) ((k, s) : Sumcache.endpoint) : Cell.t option =
  if Hashtbl.mem b.shadowed k then None
  else
    match Hashtbl.find_opt b.first k with
    | Some v -> Some (Cell.v v (cell_sel s))
    | None -> None

(* ------------------------------------------------------------------ *)
(* The hooked solve                                                    *)
(* ------------------------------------------------------------------ *)

let solve ~(cache : Sumcache.t) ~(config : Store.Codec.config)
    ~(layout : Layout.config) ~(strategy : (module Strategy.S))
    (prog : Nast.program) : Solver.t =
  let config = { config with Store.Codec.engine = `Summary } in
  let config_line = Store.Codec.config_line config in
  let cg = Callgraph.build prog in
  (* one keyer for the solve: digests and endpoint binding render the
     same variables *)
  let keyer = Incr.Progdiff.Keyer.create () in
  let keys = Sumdigest.keys ~keyer ~config_line prog cg in
  let b = binder_of ~keyer prog in
  let c = Sumcache.counters cache in
  let t =
    Solver.create ~layout ~arith:config.Store.Codec.arith
      ~budget:config.Store.Codec.budget ~engine:`Summary ~track:true
      ~strategy prog
  in
  (* One isolated sub-solve per SCC, shared by its members' commits: the
     SCC's downward closure with no global initializers and no callers,
     so every attributed constraint is a pure function of what the key
     digests. Memoized — members of one SCC share the closure. *)
  let sub_results : (int, Solver.t) Hashtbl.t = Hashtbl.create 16 in
  let sub_solve (si : int) : Solver.t =
    match Hashtbl.find_opt sub_results si with
    | Some s -> s
    | None ->
        let sub_prog =
          {
            prog with
            Nast.pfuncs = Callgraph.closure_funcs cg si;
            pinit = [];
          }
        in
        let s =
          Solver.run ~layout ~arith:config.Store.Codec.arith
            ~budget:config.Store.Codec.budget ~engine:`Delta ~track:true
            ~strategy sub_prog
        in
        Hashtbl.replace sub_results si s;
        s
  in
  let probe (f : Nast.func) : bool =
    match Sumdigest.key_of keys f.Nast.fname with
    | None -> false
    | Some key -> (
        match Sumcache.get cache ~key with
        | None ->
            c.Metrics.sum_misses <- c.Metrics.sum_misses + 1;
            false
        | Some r when r.Sumcache.r_fn <> f.Nast.fname ->
            (* a digest collision would land here; treat as a miss *)
            c.Metrics.sum_misses <- c.Metrics.sum_misses + 1;
            false
        | Some r -> (
            (* resolve every endpoint before injecting anything: a
               record is used whole or not at all *)
            let bind_pairs l =
              List.fold_left
                (fun acc (a, z) ->
                  match (acc, cell_of b a, cell_of b z) with
                  | Some acc, Some ca, Some cz -> Some ((ca, cz) :: acc)
                  | _ -> None)
                (Some []) l
            in
            match
              (bind_pairs r.Sumcache.r_edges, bind_pairs r.Sumcache.r_copies)
            with
            | Some edges, Some copies ->
                List.iter (fun (ca, cz) -> Solver.inject_edge t ca cz) edges;
                List.iter
                  (fun (dst, src) -> Solver.inject_copy t ~dst ~src)
                  copies;
                c.Metrics.sum_facts_injected <-
                  c.Metrics.sum_facts_injected + List.length edges;
                c.Metrics.sum_copies_injected <-
                  c.Metrics.sum_copies_injected + List.length copies;
                c.Metrics.sum_hits <- c.Metrics.sum_hits + 1;
                true
            | _ ->
                c.Metrics.sum_unmapped <- c.Metrics.sum_unmapped + 1;
                false))
  in
  let commit (f : Nast.func) : unit =
    match
      (Sumdigest.key_of keys f.Nast.fname, Callgraph.scc_of cg f.Nast.fname)
    with
    | Some key, Some si -> (
        let sub = sub_solve si in
        (* a degraded sub-fixpoint over-approximates its least fixpoint;
           its constraints may not hold in the whole program's — refuse
           the record rather than poison the cache *)
        if Solver.degradations sub <> [] then ()
        else
          let pairs_of tbl =
            List.concat_map
              (fun (s : Nast.stmt) ->
                match Solver.Itbl.find_opt tbl s.Nast.id with
                | Some l -> !l
                | None -> [])
              f.Nast.fstmts
          in
          let encode_pairs l =
            List.fold_left
              (fun acc (a, z) ->
                match
                  ( acc,
                    endpoint_of b ~refuse:sub.Solver.unknown_obj a,
                    endpoint_of b ~refuse:sub.Solver.unknown_obj z )
                with
                | Some acc, Some ea, Some ez -> Some ((ea, ez) :: acc)
                | _ -> None)
              (Some []) l
            |> Option.map (List.sort_uniq compare)
          in
          (* stmt_copies holds [(src, dst)] install pairs ([sid ⊆ did]);
             records store copies as [(dst, src)] *)
          let copies =
            List.map (fun (s, d) -> (d, s)) (pairs_of sub.Solver.stmt_copies)
          in
          match
            (encode_pairs (pairs_of sub.Solver.stmt_edges), encode_pairs copies)
          with
          | Some r_edges, Some r_copies ->
              Sumcache.put cache ~key
                { Sumcache.r_fn = f.Nast.fname; r_edges; r_copies }
          | _ -> c.Metrics.sum_unmapped <- c.Metrics.sum_unmapped + 1)
    | _ -> ()
  in
  t.Solver.summary_probe <- Some probe;
  t.Solver.summary_commit <- Some commit;
  Solver.solve t;
  t

let run ~cache ~config ~layout ~strategy (prog : Nast.program) :
    Analysis.result =
  let t0 = Unix_time.now () in
  let solver = solve ~cache ~config ~layout ~strategy prog in
  {
    Analysis.solver;
    metrics = Metrics.summarize solver;
    time_s = Unix_time.now () -. t0;
    degraded = Solver.degradations solver;
    diags = [];
  }

(* ------------------------------------------------------------------ *)
(* Store composition                                                   *)
(* ------------------------------------------------------------------ *)

let serve ~store ~cache ~want ~diags ~name ~strategy_id ~layout ~layout_id
    ?(arith = `Spread) ~budget (prog : Nast.program) : Store.served =
  let strategy =
    match Analysis.strategy_of_id strategy_id with
    | Some s -> s
    | None -> invalid_arg ("summary: unknown strategy " ^ strategy_id)
  in
  let config =
    { Store.Codec.strategy_id; engine = `Summary; layout_id; arith; budget }
  in
  Store.serve store ~want ~diags ~name ~strategy_id ~engine:`Summary ~layout
    ~layout_id ~arith ~budget
    ~cold:(fun () -> solve ~cache ~config ~layout ~strategy prog)
    prog

let with_counters (cache : Sumcache.t) (json : string) : string =
  let n = String.length json in
  if n >= 2 && json.[n - 1] = '}' then
    String.sub json 0 (n - 1)
    ^ ",\"summary_cache\":"
    ^ Metrics.sumcache_json (Sumcache.counters cache)
    ^ "}"
  else json
