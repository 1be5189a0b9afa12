(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 5) on the corpus in [lib/suite], plus the three
    extension ablations documented in DESIGN.md, plus Bechamel
    micro-benchmarks (one [Test.make] per figure).

    Usage: [dune exec bench/main.exe] (all sections), or pass section
    names: [fig3 fig4 fig5 fig6 ext-a ext-b ext-c ext-d ext-e bechamel]. *)

open Norm

let strategies = Core.Analysis.strategies

let strategy_id (module S : Core.Strategy.S) = S.id

let compile (p : Suite.program) : Nast.program =
  Lower.compile ~file:p.Suite.name p.Suite.source

let programs = Suite.programs

let casting = Suite.casting

(* memoize compiled programs — several figures reuse them *)
let compiled : (string, Nast.program) Hashtbl.t = Hashtbl.create 32

let prog_of (p : Suite.program) : Nast.program =
  match Hashtbl.find_opt compiled p.Suite.name with
  | Some n -> n
  | None ->
      let n = compile p in
      Hashtbl.replace compiled p.Suite.name n;
      n

let results : (string * string, Core.Analysis.result) Hashtbl.t =
  Hashtbl.create 128

let result_of (p : Suite.program) (s : (module Core.Strategy.S)) :
    Core.Analysis.result =
  let key = (p.Suite.name, strategy_id s) in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
      let r = Core.Analysis.run ~strategy:s (prog_of p) in
      Hashtbl.replace results key r;
      r

let line () = print_endline (String.make 78 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Figure 3: test-program characteristics and instrumentation          *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header
    "Figure 3: programs; % of lookup/resolve calls involving structures,\n\
     and of those, % where the types did not match (casting involved)";
  Printf.printf "%-10s %6s %7s | %-21s | %-21s\n" "" "" ""
    "Collapse on Cast" "Common Initial Seq";
  Printf.printf "%-10s %6s %7s | %9s %11s | %9s %11s\n" "program" "lines"
    "stmts" "struct%" "mismatch%" "struct%" "mismatch%";
  line ();
  List.iter
    (fun p ->
      let prog = prog_of p in
      let coc = result_of p (module Core.Collapse_on_cast) in
      let cis = result_of p (module Core.Common_init_seq) in
      let pct (r : Core.Analysis.result) =
        let c = r.Core.Analysis.solver.Core.Solver.ctx in
        let total = c.Core.Actx.lookup_calls + c.Core.Actx.resolve_calls in
        let str = c.Core.Actx.lookup_struct + c.Core.Actx.resolve_struct in
        let mis = c.Core.Actx.lookup_mismatch + c.Core.Actx.resolve_mismatch in
        let p a b =
          if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
        in
        (p str total, p mis str)
      in
      let s1, m1 = pct coc in
      let s2, m2 = pct cis in
      Printf.printf "%-10s %6d %7d | %8.1f%% %10.1f%% | %8.1f%% %10.1f%%%s\n"
        p.Suite.name (Suite.line_count p) (Nast.stmt_count prog) s1 m1 s2 m2
        (if p.Suite.has_struct_cast then "" else "   [no struct casts]"))
    programs

(* ------------------------------------------------------------------ *)
(* Figure 4: average points-to set size of a dereferenced pointer      *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header
    "Figure 4: average points-to set size of a dereferenced pointer\n\
     (12 casting programs; Collapse-Always struct facts expanded to fields)";
  Printf.printf "%-10s %10s %12s %8s %9s\n" "program" "collapse" "on-cast"
    "cis" "offsets";
  line ();
  List.iter
    (fun p ->
      let avg s =
        (result_of p s).Core.Analysis.metrics.Core.Metrics.avg_deref_size
      in
      Printf.printf "%-10s %10.2f %12.2f %8.2f %9.2f\n" p.Suite.name
        (avg (module Core.Collapse_always))
        (avg (module Core.Collapse_on_cast))
        (avg (module Core.Common_init_seq))
        (avg (module Core.Offsets)))
    casting

(* ------------------------------------------------------------------ *)
(* Figure 5: analysis-time ratios, normalized to Offsets               *)
(* ------------------------------------------------------------------ *)

let time_of (p : Suite.program) (s : (module Core.Strategy.S)) : float =
  (* fresh runs (not memoized), best of 3, CPU time like the paper *)
  let prog = prog_of p in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    ignore (Core.Solver.run ~strategy:s prog);
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let fig5 () =
  header
    "Figure 5: analysis-time ratios normalized to the Offsets algorithm\n\
     (12 casting programs; absolute Offsets CPU time in the last column)";
  Printf.printf "%-10s %10s %12s %8s %9s | %12s\n" "program" "collapse"
    "on-cast" "cis" "offsets" "offsets (s)";
  line ();
  List.iter
    (fun p ->
      let t_off = time_of p (module Core.Offsets) in
      let ratio s =
        let t = time_of p s in
        if t_off > 0.0 then t /. t_off else 0.0
      in
      Printf.printf "%-10s %10.2f %12.2f %8.2f %9.2f | %12.4f\n" p.Suite.name
        (ratio (module Core.Collapse_always))
        (ratio (module Core.Collapse_on_cast))
        (ratio (module Core.Common_init_seq))
        1.0 t_off)
    casting

(* ------------------------------------------------------------------ *)
(* Figure 6: total points-to edges, normalized to Offsets              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header
    "Figure 6: total points-to edges normalized to the Offsets algorithm\n\
     (12 casting programs; absolute Offsets edge count in the last column)";
  Printf.printf "%-10s %10s %12s %8s %9s | %12s\n" "program" "collapse"
    "on-cast" "cis" "offsets" "offsets (#)";
  line ();
  List.iter
    (fun p ->
      let edges s =
        (result_of p s).Core.Analysis.metrics.Core.Metrics.total_edges
      in
      let e_off = edges (module Core.Offsets) in
      let ratio s =
        if e_off > 0 then float_of_int (edges s) /. float_of_int e_off
        else 0.0
      in
      Printf.printf "%-10s %10.2f %12.2f %8.2f %9.2f | %12d\n" p.Suite.name
        (ratio (module Core.Collapse_always))
        (ratio (module Core.Collapse_on_cast))
        (ratio (module Core.Common_init_seq))
        1.0 e_off)
    casting

(* ------------------------------------------------------------------ *)
(* Extension A: precision ordering on random programs                  *)
(* ------------------------------------------------------------------ *)

let ext_a () =
  header
    "Extension A: average deref points-to size on random programs\n\
     (validates the precision ordering across the framework instances)";
  Printf.printf "%-8s %10s %12s %8s %9s\n" "seed" "collapse" "on-cast" "cis"
    "offsets";
  line ();
  let cfg = { Cgen.default with n_stmts = 80; cast_rate = 0.4 } in
  let totals = Array.make 4 0.0 in
  let seeds = [ 11; 23; 42; 77; 101; 137; 253; 389; 511; 997 ] in
  List.iter
    (fun seed ->
      let src = Cgen.generate ~cfg ~seed () in
      let prog = Lower.compile ~file:(Printf.sprintf "gen%d" seed) src in
      let sizes =
        List.map
          (fun s ->
            (Core.Analysis.run ~strategy:s prog).Core.Analysis.metrics
              .Core.Metrics.avg_deref_size)
          strategies
      in
      List.iteri (fun i v -> totals.(i) <- totals.(i) +. v) sizes;
      match sizes with
      | [ ca; coc; cis; off ] ->
          Printf.printf "%-8d %10.2f %12.2f %8.2f %9.2f\n" seed ca coc cis off
      | _ -> ())
    seeds;
  line ();
  let n = float_of_int (List.length seeds) in
  Printf.printf "%-8s %10.2f %12.2f %8.2f %9.2f\n" "mean" (totals.(0) /. n)
    (totals.(1) /. n) (totals.(2) /. n) (totals.(3) /. n)

(* ------------------------------------------------------------------ *)
(* Extension B: Steensgaard baselines                                  *)
(* ------------------------------------------------------------------ *)

let ext_b () =
  header
    "Extension B: unification (Steensgaard-style) baselines vs the\n\
     framework instances — avg deref points-to size on casting programs";
  Printf.printf "%-10s %12s %12s %10s %8s %9s\n" "program" "steens-coll"
    "steens-field" "collapse" "cis" "offsets";
  line ();
  List.iter
    (fun p ->
      let prog = prog_of p in
      let st_c =
        Steens.Steensgaard.run ~flavor:Steens.Steensgaard.Collapsed prog
      in
      let st_f =
        Steens.Steensgaard.run ~flavor:Steens.Steensgaard.Fields prog
      in
      let avg s =
        (result_of p s).Core.Analysis.metrics.Core.Metrics.avg_deref_size
      in
      Printf.printf "%-10s %12.2f %12.2f %10.2f %8.2f %9.2f\n" p.Suite.name
        (Steens.Steensgaard.avg_deref_size st_c)
        (Steens.Steensgaard.avg_deref_size st_f)
        (avg (module Core.Collapse_always))
        (avg (module Core.Common_init_seq))
        (avg (module Core.Offsets)))
    casting

(* ------------------------------------------------------------------ *)
(* Extension C: Assumption-1 pointer-arithmetic rule ablation          *)
(* ------------------------------------------------------------------ *)

let ext_c () =
  header
    "Extension C: pointer-arithmetic handling ablation (CIS instance)\n\
     spread = paper's Assumption-1 rule; stride = Wilson-Lam array\n\
     refinement; unknown = pessimistic marker (flagged derefs shown);\n\
     copy = optimistic lower bound";
  Printf.printf "%-10s %10s %10s %10s %10s | %10s\n" "program" "spread"
    "stride" "unknown" "copy" "flagged";
  line ();
  List.iter
    (fun p ->
      let prog = prog_of p in
      let summarize arith =
        Core.Metrics.summarize
          (Core.Solver.run ~arith ~strategy:(module Core.Common_init_seq)
             prog)
      in
      let spread = summarize `Spread in
      let stride = summarize `Stride in
      let unknown = summarize `Unknown in
      let copy = summarize `Copy in
      Printf.printf "%-10s %10.2f %10.2f %10.2f %10.2f | %7d/%-3d\n"
        p.Suite.name spread.Core.Metrics.avg_deref_size
        stride.Core.Metrics.avg_deref_size
        unknown.Core.Metrics.avg_deref_size copy.Core.Metrics.avg_deref_size
        unknown.Core.Metrics.corrupt_derefs unknown.Core.Metrics.deref_sites)
    casting

(* ------------------------------------------------------------------ *)
(* Extension D: solver scalability on generated workloads              *)
(* ------------------------------------------------------------------ *)

let ext_d () =
  header
    "Extension D: solver scalability (generated programs; CPU seconds,\n\
     best of 2). The paper's suite spanned 650-29,000 source lines.";
  Printf.printf "%-8s %8s %10s %12s %8s %9s\n" "stmts" "cells" "collapse"
    "on-cast" "cis" "offsets";
  line ();
  List.iter
    (fun n_stmts ->
      let cfg = { Cgen.default with n_stmts; n_structs = 4; cast_rate = 0.3 } in
      let src = Cgen.generate ~cfg ~seed:2026 () in
      let prog = Lower.compile ~file:(Printf.sprintf "scale%d" n_stmts) src in
      let time s =
        let best = ref infinity in
        for _ = 1 to 2 do
          let t0 = Sys.time () in
          ignore (Core.Solver.run ~strategy:s prog);
          let dt = Sys.time () -. t0 in
          if dt < !best then best := dt
        done;
        !best
      in
      let edges =
        let solver =
          Core.Solver.run ~strategy:(module Core.Common_init_seq) prog
        in
        Core.Graph.edge_count solver.Core.Solver.graph
      in
      Printf.printf "%-8d %8d %10.4f %12.4f %8.4f %9.4f\n"
        (Nast.stmt_count prog) edges
        (time (module Core.Collapse_always))
        (time (module Core.Collapse_on_cast))
        (time (module Core.Common_init_seq))
        (time (module Core.Offsets)))
    [ 100; 200; 400; 800; 1600; 3200 ]

(* ------------------------------------------------------------------ *)
(* Extension E: budgeted-solve resilience                              *)
(* ------------------------------------------------------------------ *)

(* Budget configurations shared by the ext-e table and its JSON twin. *)
let ext_e_budgets : (string * Core.Budget.limits) list =
  [
    ("unlimited", Core.Budget.unlimited);
    ("default", Core.Budget.default);
    ( "steps=2000",
      { Core.Budget.unlimited with Core.Budget.max_steps = Some 2000 } );
    ( "cells/object=4",
      { Core.Budget.unlimited with Core.Budget.max_cells_per_object = Some 4 }
    );
    ( "total-cells=200",
      { Core.Budget.unlimited with Core.Budget.max_total_cells = Some 200 } );
  ]

let ext_e_prog () =
  let cfg =
    { Cgen.default with n_stmts = 800; n_structs = 5; cast_rate = 0.6 }
  in
  let src = Cgen.generate ~cfg ~seed:2026 () in
  Lower.compile ~file:"budget-bench" src

let ext_e_run prog (budget : Core.Budget.limits) =
  let t0 = Sys.time () in
  let solver = Core.Solver.run ~budget ~strategy:(module Core.Offsets) prog in
  let dt = Sys.time () -. t0 in
  (solver, Core.Metrics.summarize solver, dt)

let ext_e () =
  header
    "Extension E: budgeted solves on a cast-heavy generated workload\n\
     (precision given up and time saved when budgets degrade the solve)";
  Printf.printf "%-24s %8s %10s %10s %10s %8s\n" "budget" "steps" "collapses"
    "avg-deref" "edges" "time(s)";
  line ();
  let prog = ext_e_prog () in
  List.iter
    (fun (label, budget) ->
      let solver, m, dt = ext_e_run prog budget in
      Printf.printf "%-24s %8d %10d %10.2f %10d %8.4f\n" label
        (Core.Budget.steps solver.Core.Solver.budget)
        (List.length (Core.Solver.degradations solver))
        m.Core.Metrics.avg_deref_size m.Core.Metrics.total_edges dt)
    ext_e_budgets

(* Same sweep, one JSON object per budget config — the CI artifact.
   Run it alone ([bench/main.exe ext-e-json > ext-e.json]) for a clean
   JSON-lines stream: the harness banner is suppressed for -json
   sections. *)
let ext_e_json () =
  let prog = ext_e_prog () in
  List.iter
    (fun (label, budget) ->
      let solver, m, dt = ext_e_run prog budget in
      Printf.printf
        "{\"budget\":%s,\"steps\":%d,\"collapses\":%d,\"avg_deref_size\":%.4f,\
         \"total_edges\":%d,\"time_s\":%.4f}\n"
        (Core.Report.quote label)
        (Core.Budget.steps solver.Core.Solver.budget)
        (List.length (Core.Solver.degradations solver))
        m.Core.Metrics.avg_deref_size m.Core.Metrics.total_edges dt)
    ext_e_budgets

(* ------------------------------------------------------------------ *)
(* Solver engines: difference propagation vs the naive reference       *)
(* ------------------------------------------------------------------ *)

(* The full engine matrix on the ext-e workload (cast-heavy, 800
   statements) for every instance, plus the budgeted Offsets sweep: all
   engines must reach the same fixpoint, the delta engines with fewer
   visits and facts than naive, and cycle elimination (delta) with fewer
   fact reads again than the ablation baseline (delta-nocycle). *)

let solver_run prog strategy budget (engine : Core.Solver.engine) =
  let t0 = Sys.time () in
  let solver = Core.Solver.run ~budget ~engine ~strategy prog in
  let dt = Sys.time () -. t0 in
  (solver, dt)

type engine_sample = {
  visits : int;
  facts : int;
  copy_edges : int;
  edges : int;
  cycles : int;
  unified : int;
  wasted : int;
  time_s : float;
}

let sample prog strategy budget engine : engine_sample =
  let solver, dt = solver_run prog strategy budget engine in
  {
    visits = solver.Core.Solver.rounds;
    facts = solver.Core.Solver.facts_consumed;
    copy_edges = Core.Solver.copy_edge_count solver;
    edges = Core.Graph.edge_count solver.Core.Solver.graph;
    cycles = solver.Core.Solver.cycles_found;
    unified = solver.Core.Solver.cells_unified;
    wasted = solver.Core.Solver.wasted_props;
    time_s = dt;
  }

let solver_cases () :
    (string * Nast.program * (module Core.Strategy.S) * string
    * Core.Budget.limits)
    list =
  let prog = ext_e_prog () in
  List.map
    (fun (module S : Core.Strategy.S) ->
      ( Printf.sprintf "ext-e/%s" S.id,
        prog,
        (module S : Core.Strategy.S),
        "unlimited",
        Core.Budget.unlimited ))
    strategies
  @ List.filter_map
      (fun (label, budget) ->
        if label = "unlimited" then None
        else
          Some
            ( Printf.sprintf "ext-e/offsets[%s]" label,
              prog,
              (module Core.Offsets : Core.Strategy.S),
              label,
              budget ))
      ext_e_budgets

let solver () =
  header
    "Solver engines: delta (cycle elimination) vs delta-nocycle vs naive\n\
     on the ext-e workload — same fixpoint, decreasing amounts of work";
  Printf.printf "%-26s %8s %8s %8s | %10s %10s %10s | %6s %7s | %5s\n" "case"
    "visits" "visits" "visits" "facts" "facts" "facts" "cycles" "unified"
    "equal";
  Printf.printf "%-26s %8s %8s %8s | %10s %10s %10s | %6s %7s |\n" ""
    "(delta)" "(nocyc)" "(naive)" "(delta)" "(nocyc)" "(naive)" "" "";
  line ();
  List.iter
    (fun (label, prog, strategy, _, budget) ->
      let d = sample prog strategy budget `Delta in
      let dn = sample prog strategy budget `Delta_nocycle in
      let n = sample prog strategy budget `Naive in
      (* identical fixpoints only hold for unbudgeted runs: engines trip
         budgets at different points, degrading different objects *)
      let same =
        if budget = Core.Budget.unlimited then
          if d.edges = n.edges && dn.edges = n.edges then "yes" else "NO!"
        else "-"
      in
      Printf.printf "%-26s %8d %8d %8d | %10d %10d %10d | %6d %7d | %5s\n"
        label d.visits dn.visits n.visits d.facts dn.facts n.facts d.cycles
        d.unified same)
    (solver_cases ())

(* Same sweep as JSON lines — the CI artifact (BENCH_solver.json). *)
let solver_json () =
  List.iter
    (fun (label, prog, (module S : Core.Strategy.S), budget_label, budget) ->
      let d = sample prog (module S : Core.Strategy.S) budget `Delta in
      let dn =
        sample prog (module S : Core.Strategy.S) budget `Delta_nocycle
      in
      let n = sample prog (module S : Core.Strategy.S) budget `Naive in
      let ratio a b =
        if b = 0 then 0.0 else float_of_int a /. float_of_int b
      in
      let eng e =
        Printf.sprintf
          "{\"visits\":%d,\"facts\":%d,\"copy_edges\":%d,\"edges\":%d,\
           \"cycles_found\":%d,\"cells_unified\":%d,\
           \"wasted_propagations\":%d,\"time_s\":%.4f}"
          e.visits e.facts e.copy_edges e.edges e.cycles e.unified e.wasted
          e.time_s
      in
      Printf.printf
        "{\"case\":%s,\"strategy\":%s,\"budget\":%s,\"delta\":%s,\
         \"delta_nocycle\":%s,\"naive\":%s,\"visit_ratio\":%.4f,\
         \"fact_ratio\":%.4f,\"time_ratio\":%.4f,\"cycle_visit_ratio\":%.4f,\
         \"cycle_fact_ratio\":%.4f}\n"
        (Core.Report.quote label) (Core.Report.quote S.id)
        (Core.Report.quote budget_label) (eng d) (eng dn) (eng n)
        (ratio d.visits n.visits) (ratio d.facts n.facts)
        (if n.time_s > 0.0 then d.time_s /. n.time_s else 0.0)
        (ratio d.visits dn.visits) (ratio d.facts dn.facts))
    (solver_cases ())

(* ------------------------------------------------------------------ *)
(* Edit replay: incremental re-analysis vs from-scratch                *)
(* ------------------------------------------------------------------ *)

(* A solved base program takes a stream of single-statement edits; each
   is answered incrementally (warm start for additions, support-counting
   retraction for removals) and checked against a from-scratch solve of
   the same edited program. The interesting number is the visit ratio:
   how much of the fixpoint had to be recomputed. *)

type edit_row = {
  er_strategy : string;
  er_step : int;
  er_kind : string;  (** add | remove | mutate *)
  er_added : int;
  er_removed : int;
  er_retracted : int;
  er_warm : int;  (** statement visits the warm re-solve needed *)
  er_replayed : int;  (** statements the targeted replay re-enqueued *)
  er_scratch : int;  (** statement visits a cold solve of the edit needs *)
  er_fallback : bool;
  er_fallback_planned : bool;
  er_equal : bool;
  er_time_warm : float;
  er_time_scratch : float;
}

let edit_replay_prog () =
  let cfg =
    { Cgen.default with n_stmts = 200; n_structs = 4; cast_rate = 0.3 }
  in
  Lower.compile ~file:"edit-replay" (Cgen.generate ~cfg ~seed:2026 ())

let edit_kind = function
  | Incr.Edit.Add _ -> "add"
  | Incr.Edit.Remove _ -> "remove"
  | Incr.Edit.Mutate _ -> "mutate"

(* the script's first half is pure additions — the warm-start fast path
   the CI gate watches — the second half removes or mutates, exercising
   the retraction path *)
let next_op ~rand ~additive prog : Incr.Edit.op option =
  let rec go tries =
    if tries = 0 then None
    else
      match Incr.Edit.random_op ~rand prog with
      | Some (Incr.Edit.Add _ as op) when additive -> Some op
      | Some ((Incr.Edit.Remove _ | Incr.Edit.Mutate _) as op)
        when not additive ->
          Some op
      | Some _ -> go (tries - 1)
      | None -> None
  in
  go 50

let edit_replay_rows () : edit_row list =
  let base = edit_replay_prog () in
  List.concat_map
    (fun (module S : Core.Strategy.S) ->
      let rand = Random.State.make [| 2026 |] in
      let t =
        ref (Core.Solver.run ~track:true ~strategy:(module S) base)
      in
      let rows = ref [] in
      for step = 1 to 6 do
        match next_op ~rand ~additive:(step <= 3) !t.Core.Solver.prog with
        | None -> ()
        | Some op ->
            let edited = Incr.Edit.apply !t.Core.Solver.prog [ op ] in
            let t0 = Sys.time () in
            let t', st = Incr.Engine.reanalyze !t edited in
            let dt_warm = Sys.time () -. t0 in
            t := t';
            let t0 = Sys.time () in
            let scratch =
              Core.Solver.run ~strategy:(module S) !t.Core.Solver.prog
            in
            let dt_scratch = Sys.time () -. t0 in
            rows :=
              {
                er_strategy = S.id;
                er_step = step;
                er_kind = edit_kind op;
                er_added = st.Incr.Engine.stmts_added;
                er_removed = st.Incr.Engine.stmts_removed;
                er_retracted = st.Incr.Engine.facts_retracted;
                er_warm = st.Incr.Engine.warm_visits;
                er_replayed = st.Incr.Engine.stmts_replayed;
                er_scratch = scratch.Core.Solver.rounds;
                er_fallback = st.Incr.Engine.fallback;
                er_fallback_planned = st.Incr.Engine.fallback_planned;
                er_equal =
                  Core.Graph.equal !t.Core.Solver.graph
                    scratch.Core.Solver.graph;
                er_time_warm = dt_warm;
                er_time_scratch = dt_scratch;
              }
              :: !rows
      done;
      List.rev !rows)
    strategies

let visit_ratio r =
  if r.er_scratch = 0 then 0.0
  else float_of_int r.er_warm /. float_of_int r.er_scratch

(* A warm answer materially slower than the scratch solve it replaces
   is the bug this suite exists to catch — but only when the engine
   actually claims a warm win: fallback rows (planned or degraded) ARE
   scratch solves plus bookkeeping, and sub-5ms timings are noise. *)
let warm_slower_than_scratch r =
  (not r.er_fallback)
  && (not r.er_fallback_planned)
  && r.er_time_scratch >= 0.005
  && r.er_time_warm > 1.2 *. r.er_time_scratch

let edit_replay () =
  header
    "Edit replay: incremental re-analysis of single-statement edits vs\n\
     solving the edited program from scratch (200-statement base)";
  Printf.printf "%-18s %4s %-7s %6s %6s %10s %8s %8s %9s %7s %6s\n"
    "strategy" "step" "edit" "+stmts" "-stmts" "retracted" "replayed"
    "warm" "scratch" "ratio" "equal";
  line ();
  let rows = edit_replay_rows () in
  List.iter
    (fun r ->
      Printf.printf "%-18s %4d %-7s %6d %6d %10d %8d %8d %9d %7.3f %6s%s\n"
        r.er_strategy r.er_step r.er_kind r.er_added r.er_removed
        r.er_retracted r.er_replayed r.er_warm r.er_scratch (visit_ratio r)
        (if r.er_equal then "yes" else "NO!")
        (if r.er_fallback_planned then "  (planned fallback)"
         else if r.er_fallback then "  (fallback)"
         else ""))
    rows;
  let slow = List.filter warm_slower_than_scratch rows in
  if slow <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "edit-replay: %s step %d (%s) claims a warm win but took \
           %.4fs vs %.4fs scratch (no fallback flag)\n"
          r.er_strategy r.er_step r.er_kind r.er_time_warm
          r.er_time_scratch)
      slow;
    exit 1
  end

(* Same sweep as JSON lines — the CI artifact (BENCH_incr.json). CI
   gates warm_visit_ratio < 0.5 on additive AND removal/mutate rows. *)
let edit_replay_json () =
  let rows = edit_replay_rows () in
  List.iter
    (fun r ->
      Printf.printf
        "{\"strategy\":%s,\"step\":%d,\"edit\":%s,\"stmts_added\":%d,\
         \"stmts_removed\":%d,\"facts_retracted\":%d,\"stmts_replayed\":%d,\
         \"warm_visits\":%d,\
         \"scratch_visits\":%d,\"warm_visit_ratio\":%.4f,\"fallback\":%b,\
         \"fallback_planned\":%b,\
         \"equal\":%b,\"time_warm_s\":%.4f,\"time_scratch_s\":%.4f}\n"
        (Core.Report.quote r.er_strategy)
        r.er_step
        (Core.Report.quote r.er_kind)
        r.er_added r.er_removed r.er_retracted r.er_replayed r.er_warm
        r.er_scratch (visit_ratio r) r.er_fallback r.er_fallback_planned
        r.er_equal r.er_time_warm r.er_time_scratch)
    rows;
  let slow = List.filter warm_slower_than_scratch rows in
  if slow <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "edit-replay: %s step %d (%s) claims a warm win but took \
           %.4fs vs %.4fs scratch (no fallback flag)\n"
          r.er_strategy r.er_step r.er_kind r.er_time_warm
          r.er_time_scratch)
      slow;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fixpoint store: edit-replay session served through the cache        *)
(* ------------------------------------------------------------------ *)

(* The same edit-replay chain of programs, answered through a fixpoint
   store: a cold pass populates it, a replay pass must be 100% exact
   hits with zero solver visits, and every answer — whatever its origin
   — must render the byte-identical stats-free report a scratch solve
   produces. CI runs this twice against one store directory and gates
   the replay pass. *)

type store_row = {
  sr_strategy : string;
  sr_pass : string;  (** populate | replay *)
  sr_step : int;
  sr_origin : string;  (** hit | ancestor | cold *)
  sr_visits : int;  (** statement visits this request performed *)
  sr_scratch : int;  (** visits a scratch solve of the same input needs *)
  sr_equal : bool;  (** report JSON byte-identical to the scratch render *)
  sr_time : float;
}

(* base program plus the programs the edit script walks through *)
let store_chain () : Nast.program list =
  let rand = Random.State.make [| 2026 |] in
  let cur = ref (edit_replay_prog ()) in
  let progs = ref [ !cur ] in
  for step = 1 to 6 do
    match next_op ~rand ~additive:(step <= 3) !cur with
    | None -> ()
    | Some op ->
        cur := Incr.Edit.apply !cur [ op ];
        progs := !cur :: !progs
  done;
  List.rev !progs

let store_scratch (module S : Core.Strategy.S) prog : int * string =
  let solver =
    Core.Solver.run ~budget:Core.Budget.default ~engine:`Delta ~track:true
      ~strategy:(module S) prog
  in
  ( solver.Core.Solver.rounds,
    Core.Report.json_of_result ~timing:false ~solver_stats:false
      ~name:"edit-replay"
      {
        Core.Analysis.solver;
        metrics = Core.Metrics.summarize solver;
        time_s = 0.;
        degraded = Core.Solver.degradations solver;
        diags = [];
      } )

let store_rows () : store_row list =
  let dir =
    match Sys.getenv_opt "STRUCTCAST_BENCH_STORE" with
    | Some d when d <> "" -> d
    | _ ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "structcast-bench-store-%d" (Unix.getpid ()))
  in
  let chain = store_chain () in
  List.concat_map
    (fun (module S : Core.Strategy.S) ->
      let scratch = List.map (store_scratch (module S)) chain in
      let pass name =
        (* a fresh handle per pass: index load and recovery run too *)
        let st = Store.open_store dir in
        List.mapi
          (fun i (prog, (scratch_visits, scratch_json)) ->
            let t0 = Sys.time () in
            let s =
              Store.serve st ~want:`Solver ~diags:[] ~name:"edit-replay"
                ~strategy_id:S.id ~engine:`Delta ~layout:Cfront.Layout.ilp32
                ~layout_id:"ilp32" ~budget:Core.Budget.default prog
            in
            let dt = Sys.time () -. t0 in
            let visits =
              match s.Store.sv_result with
              | Some r -> r.Core.Analysis.solver.Core.Solver.rounds
              | None -> 0
            in
            {
              sr_strategy = S.id;
              sr_pass = name;
              sr_step = i;
              sr_origin =
                (match s.Store.sv_origin with
                | `Hit -> "hit"
                | `Ancestor _ -> "ancestor"
                | `Cold -> "cold");
              sr_visits = visits;
              sr_scratch = scratch_visits;
              sr_equal = s.Store.sv_json = scratch_json;
              sr_time = dt;
            })
          (List.combine chain scratch)
      in
      let populate = pass "populate" in
      populate @ pass "replay")
    strategies

let store_bench () =
  header
    "Fixpoint store: the edit-replay program chain served through a\n\
     content-addressed snapshot store (populate pass, then replay pass)";
  Printf.printf "%-18s %-9s %4s %-9s %8s %9s %6s %9s\n" "strategy" "pass"
    "step" "origin" "visits" "scratch" "equal" "time(s)";
  line ();
  List.iter
    (fun r ->
      Printf.printf "%-18s %-9s %4d %-9s %8d %9d %6s %9.4f\n" r.sr_strategy
        r.sr_pass r.sr_step r.sr_origin r.sr_visits r.sr_scratch
        (if r.sr_equal then "yes" else "NO!")
        r.sr_time)
    (store_rows ())

(* Same sweep as JSON lines — the CI artifact (BENCH_store.json). CI
   gates the replay pass: origin "hit" with 0 visits on every row, and
   "equal" true on every row of both passes. *)
let store_bench_json () =
  List.iter
    (fun r ->
      Printf.printf
        "{\"strategy\":%s,\"pass\":%s,\"step\":%d,\"origin\":%s,\
         \"visits\":%d,\"scratch_visits\":%d,\"equal\":%b,\
         \"time_s\":%.4f}\n"
        (Core.Report.quote r.sr_strategy)
        (Core.Report.quote r.sr_pass)
        r.sr_step
        (Core.Report.quote r.sr_origin)
        r.sr_visits r.sr_scratch r.sr_equal r.sr_time)
    (store_rows ())

(* ------------------------------------------------------------------ *)
(* Overload: the serving path at 12x capacity, admission on vs off     *)
(* ------------------------------------------------------------------ *)

(* 24 requests hit a 2-worker fleet whose jobs each take ~200 ms (burst
   fault): far more work than the fleet can finish promptly. Unbounded,
   every request is eventually answered but the tail waits through the
   whole backlog; with admission control the queue is bounded, the
   overflow is shed immediately (deterministically — shedding depends
   only on queue occupancy), and the tail latency of answered requests
   collapses. CI gates: lost == 0 in both modes, identical shed_ids
   across runs, and p99(admission) < p99(unbounded). *)

type overload_row = {
  ov_mode : string;  (** unbounded | admission *)
  ov_offered : int;
  ov_done : int;
  ov_shed : int;
  ov_quarantined : int;
  ov_lost : int;  (** offered - (done + shed + quarantined); must be 0 *)
  ov_p50_ms : float;
  ov_p99_ms : float;
  ov_shed_ratio : float;
  ov_shed_ids : string;  (** comma-joined, pins shed determinism in CI *)
  ov_time_s : float;
}

let overload_offered = 24

let overload_run mode admission : overload_row =
  let plan =
    match
      Server.Faults.parse
        (String.concat ","
           (List.init overload_offered (fun i ->
                Printf.sprintf "burst@job%d" (i + 1))))
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let cfg =
    {
      Server.Supervisor.default_config with
      Server.Supervisor.workers = 2;
      backoff_base_ms = 1;
      faults = plan;
      admission;
    }
  in
  let jobs =
    List.init overload_offered (fun i -> Server.Job.make ~idx:(i + 1) "wc")
  in
  let t0 = Unix.gettimeofday () in
  let results, fleet = Server.Supervisor.run_batch cfg jobs in
  let dt = Unix.gettimeofday () -. t0 in
  let count p = List.length (List.filter (fun (_, o) -> p o) results) in
  let n_done =
    count (function Server.Supervisor.Done _ -> true | _ -> false)
  in
  let n_shed =
    count (function Server.Supervisor.Shed _ -> true | _ -> false)
  in
  let n_quar =
    count (function Server.Supervisor.Quarantined _ -> true | _ -> false)
  in
  let shed_ids =
    List.filter_map
      (fun ((j : Server.Job.t), o) ->
        match o with
        | Server.Supervisor.Shed _ -> Some j.Server.Job.id
        | _ -> None)
      results
  in
  let lat = fleet.Core.Metrics.latencies_ms in
  {
    ov_mode = mode;
    ov_offered = overload_offered;
    ov_done = n_done;
    ov_shed = n_shed;
    ov_quarantined = n_quar;
    ov_lost = overload_offered - n_done - n_shed - n_quar;
    ov_p50_ms = Core.Metrics.percentile lat 50.0;
    ov_p99_ms = Core.Metrics.percentile lat 99.0;
    ov_shed_ratio =
      float_of_int n_shed /. float_of_int overload_offered;
    ov_shed_ids = String.concat "," shed_ids;
    ov_time_s = dt;
  }

let overload_rows () =
  [
    overload_run "unbounded" Server.Admission.default;
    overload_run "admission"
      {
        Server.Admission.max_pending = Some 4;
        high_watermark = 3;
        low_watermark = 1;
        brownout_ticks = 4;
        max_rung = Server.Job.max_rung;
      };
  ]

let overload () =
  header
    "Overload: 24 requests offered to a 2-worker fleet whose jobs take\n\
     ~200 ms each — admission control off vs on (queue bound 4)";
  Printf.printf "%-10s %8s %6s %6s %6s %6s %9s %9s %7s %8s\n" "mode"
    "offered" "done" "shed" "quar" "lost" "p50(ms)" "p99(ms)" "shed%"
    "time(s)";
  line ();
  List.iter
    (fun r ->
      Printf.printf "%-10s %8d %6d %6d %6d %6d %9.1f %9.1f %6.0f%% %8.2f\n"
        r.ov_mode r.ov_offered r.ov_done r.ov_shed r.ov_quarantined r.ov_lost
        r.ov_p50_ms r.ov_p99_ms
        (100. *. r.ov_shed_ratio)
        r.ov_time_s)
    (overload_rows ())

(* Same sweep as JSON lines — the CI artifact (BENCH_overload.json). *)
let overload_json () =
  List.iter
    (fun r ->
      Printf.printf
        "{\"mode\":%s,\"offered\":%d,\"done\":%d,\"shed\":%d,\
         \"quarantined\":%d,\"lost\":%d,\"latency_p50_ms\":%.1f,\
         \"latency_p99_ms\":%.1f,\"shed_ratio\":%.4f,\"shed_ids\":%s,\
         \"time_s\":%.4f}\n"
        (Core.Report.quote r.ov_mode)
        r.ov_offered r.ov_done r.ov_shed r.ov_quarantined r.ov_lost
        r.ov_p50_ms r.ov_p99_ms r.ov_shed_ratio
        (Core.Report.quote r.ov_shed_ids)
        r.ov_time_s)
    (overload_rows ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per figure                 *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header "Bechamel micro-benchmarks (monotonic clock, OLS fit, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let subject =
    match Suite.find "bc" with Some p -> p | None -> List.hd casting
  in
  let prog = prog_of subject in
  let solve s () = ignore (Core.Solver.run ~strategy:s prog) in
  (* one Test.make per table/figure of the paper *)
  let tests =
    [
      (* Figure 3's instrumented run is a Collapse-on-Cast solve *)
      Test.make ~name:"fig3-instrumented-coc"
        (Staged.stage (solve (module Core.Collapse_on_cast)));
      (* Figure 4/6 compare all four instances; benchmark the extremes *)
      Test.make ~name:"fig4-collapse-always"
        (Staged.stage (solve (module Core.Collapse_always)));
      Test.make ~name:"fig4-cis"
        (Staged.stage (solve (module Core.Common_init_seq)));
      (* Figure 5's denominator: the Offsets solve *)
      Test.make ~name:"fig5-offsets"
        (Staged.stage (solve (module Core.Offsets)));
      (* Figure 6's edge counting over a solved graph *)
      Test.make ~name:"fig6-metrics"
        (Staged.stage (fun () ->
             let solver =
               Core.Solver.run ~strategy:(module Core.Offsets) prog
             in
             ignore (Core.Metrics.summarize solver)));
    ]
  in
  let test = Test.make_grouped ~name:"structcast" tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test_name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "%-40s %-16s %12.0f ns/run\n" test_name name est
          | _ -> Printf.printf "%-40s %-16s %12s\n" test_name name "n/a")
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* CSV export (for plotting the figures)                               *)
(* ------------------------------------------------------------------ *)

let csv () =
  header "CSV export: writing figure4.csv / figure5.csv / figure6.csv";
  let write name header_row rows =
    let oc = open_out name in
    output_string oc (header_row ^ "\n");
    List.iter (fun r -> output_string oc (r ^ "\n")) rows;
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" name (List.length rows)
  in
  let row4 p =
    let avg s =
      (result_of p s).Core.Analysis.metrics.Core.Metrics.avg_deref_size
    in
    Printf.sprintf "%s,%.4f,%.4f,%.4f,%.4f" p.Suite.name
      (avg (module Core.Collapse_always))
      (avg (module Core.Collapse_on_cast))
      (avg (module Core.Common_init_seq))
      (avg (module Core.Offsets))
  in
  write "figure4.csv" "program,collapse_always,collapse_on_cast,cis,offsets"
    (List.map row4 casting);
  let row5 p =
    let t s = time_of p s in
    Printf.sprintf "%s,%.6f,%.6f,%.6f,%.6f" p.Suite.name
      (t (module Core.Collapse_always))
      (t (module Core.Collapse_on_cast))
      (t (module Core.Common_init_seq))
      (t (module Core.Offsets))
  in
  write "figure5.csv"
    "program,collapse_always_s,collapse_on_cast_s,cis_s,offsets_s"
    (List.map row5 casting);
  let row6 p =
    let e s =
      (result_of p s).Core.Analysis.metrics.Core.Metrics.total_edges
    in
    Printf.sprintf "%s,%d,%d,%d,%d" p.Suite.name
      (e (module Core.Collapse_always))
      (e (module Core.Collapse_on_cast))
      (e (module Core.Common_init_seq))
      (e (module Core.Offsets))
  in
  write "figure6.csv" "program,collapse_always,collapse_on_cast,cis,offsets"
    (List.map row6 casting)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections : (string * (unit -> unit)) list =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("ext-a", ext_a);
    ("ext-b", ext_b);
    ("ext-c", ext_c);
    ("ext-d", ext_d);
    ("ext-e", ext_e);
    ("ext-e-json", ext_e_json);
    ("solver", solver);
    ("solver-json", solver_json);
    ("edit-replay", edit_replay);
    ("edit-replay-json", edit_replay_json);
    ("store", store_bench);
    ("store-json", store_bench_json);
    ("overload", overload);
    ("overload-json", overload_json);
    ("bechamel", bechamel);
    ("csv", csv);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (* -json sections emit a machine-readable stream on stdout; keep the
     banner out of it when only such sections were requested. *)
  let json_only =
    requested <> []
    && List.for_all
         (fun n -> Filename.check_suffix n "-json")
         requested
  in
  if not json_only then
    print_endline
      "structcast benchmark harness — reproduces the evaluation of\n\
       Yong, Horwitz & Reps, \"Pointer Analysis for Programs with\n\
       Structures and Casting\" (PLDI 1999). See EXPERIMENTS.md.";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (have: %s)\n" name
            (String.concat ", " (List.map fst sections)))
    requested
