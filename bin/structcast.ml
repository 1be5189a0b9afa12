(** [structcast] — command-line driver for the pointer-analysis framework.

    - [structcast analyze FILE.c] — run one strategy and print points-to
      sets, normalized statements, metrics, or the call graph.
    - [structcast compare FILE.c] — run all four instances side by side.
    - [structcast corpus] — list the embedded benchmark corpus; a corpus
      program's name can be used instead of a file everywhere.
    - [structcast batch SPEC…] — run many jobs through the crash-contained
      supervisor (forked workers, retry/backoff, crash-safe journal).
    - [structcast serve] — request/response loop over stdin/stdout backed
      by the same worker pool.
    - [structcast reanalyze BASE EDITED] — solve BASE, then answer for
      EDITED (diff; warm start for additions, scratch solve otherwise).
    - [structcast watch FILE] — keep a solved fixpoint live and re-answer
      incrementally each time a line arrives on stdin. *)

open Cfront
open Norm
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let layout_of_name = function
  | "ilp32" -> Layout.ilp32
  | "lp64" -> Layout.lp64
  | "word16" -> Layout.word16
  | s -> failwith (Printf.sprintf "unknown layout %s (ilp32|lp64|word16)" s)

(* --workers auto sizes the pool to the runtime's recommended domain
   count: one worker process per core. *)
let workers_of_flag = function
  | "auto" -> max 1 (Domain.recommended_domain_count ())
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          failwith
            (Printf.sprintf "bad --workers %s (auto or a positive integer)" s))

let strategy_of_name name : (module Core.Strategy.S) =
  match Core.Analysis.strategy_of_id name with
  | Some s -> s
  | None ->
      failwith
        (Printf.sprintf "unknown strategy %s (have: %s)" name
           (String.concat ", " Core.Analysis.strategy_ids))

(* a corpus program name, or a path to a C file *)
let compile_spec ~layout ~diags spec : string * Nast.program =
  let src = Server.Source.load spec in
  let name = src.Server.Source.name in
  ( name,
    Lower.compile ~layout ~resolve:(Server.Source.resolve src) ~diags
      ~file:name src.Server.Source.text )

(* ------------------------------------------------------------------ *)
(* Budgets and exit codes                                              *)
(* ------------------------------------------------------------------ *)

(* Exit codes, in decreasing precedence:
     3  internal error (unexpected exception escaped — trust nothing)
     2  budget-degraded (the answer is sound but coarser than asked for)
     1  diagnostics reported (front-end errors; analysis of the rest ran)
     0  clean
   When a run has several of these, the highest-precedence code wins:
   an internal error makes degradation moot, and degradation wins over
   diagnostics because a truncated answer is the more important fact
   about the run. Tested in test/test_cli.ml. *)

let limits_of_flags max_steps timeout_ms max_cells_per_object max_total_cells
    : Core.Budget.limits =
  let opt n = if n <= 0 then None else Some n in
  {
    Core.Budget.max_steps = opt max_steps;
    timeout_s =
      (if timeout_ms <= 0 then None
       else Some (float_of_int timeout_ms /. 1000.));
    max_cells_per_object = opt max_cells_per_object;
    max_total_cells = opt max_total_cells;
  }

let report_diags (d : Diag.ctx) =
  List.iter
    (fun (p : Diag.payload) -> Fmt.epr "%a@." Diag.pp_payload p)
    (Diag.diagnostics d)

(* One line on stderr summarizing what precision was given up. *)
let report_degradation (events : Core.Budget.event list) =
  match events with
  | [] -> ()
  | e0 :: _ ->
      let collapsed =
        List.length (List.filter (fun e -> e.Core.Budget.obj <> None) events)
      in
      let what =
        if collapsed = 0 then "all objects treated as collapsed"
        else Printf.sprintf "%d object%s collapsed" collapsed
               (if collapsed = 1 then "" else "s")
      in
      Fmt.epr "budget: precision degraded — %s (first trip: %a at step %d, \
               %.2fs)@."
        what Core.Budget.pp_reason e0.Core.Budget.reason
        e0.Core.Budget.at_step e0.Core.Budget.at_time

let exit_code ~diags ~degraded =
  if degraded then 2 else if Diag.has_errors diags then 1 else 0

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

(* Every fact-bearing cell with its targets, in [Cell.compare] order:
   printed output must not follow the graph's id-keyed tables, whose
   order depends on interning history. *)
let sorted_sources (r : Core.Analysis.result) =
  Core.Graph.fold_sources r.Core.Analysis.solver.Core.Solver.graph
    (fun c s acc -> (c, s) :: acc)
    []
  |> List.sort (fun (a, _) (b, _) -> Core.Cell.compare a b)

let print_points_to (r : Core.Analysis.result) ~only_var =
  List.iter
    (fun ((c : Core.Cell.t), targets) ->
      let name = Cvar.qualified_name c.Core.Cell.base in
      let keep =
        match only_var with
        | Some v -> name = v || c.Core.Cell.base.Cvar.vname = v
        | None ->
            (* hide compiler temporaries by default *)
            not
              (String.length c.Core.Cell.base.Cvar.vname > 2
              && String.sub c.Core.Cell.base.Cvar.vname 0 2 = "$t")
      in
      if keep && not (Core.Cell.Set.is_empty targets) then
        Fmt.pr "%a -> {%a}@." Core.Cell.pp c
          (Fmt.list ~sep:(Fmt.any ", ") Core.Cell.pp)
          (Core.Cell.Set.elements targets))
    (sorted_sources r)

let print_metrics name (r : Core.Analysis.result) =
  let m = r.Core.Analysis.metrics in
  let f = m.Core.Metrics.figures3 in
  Fmt.pr "program:              %s@." name;
  Fmt.pr "strategy:             %s@." m.Core.Metrics.strategy_name;
  Fmt.pr "deref sites:          %d@." m.Core.Metrics.deref_sites;
  Fmt.pr "avg deref pts size:   %.2f@." m.Core.Metrics.avg_deref_size;
  Fmt.pr "max deref pts size:   %d@." m.Core.Metrics.max_deref_size;
  Fmt.pr "points-to edges:      %d@." m.Core.Metrics.total_edges;
  Fmt.pr "lookup calls:         %d (%.1f%% struct, %.1f%% of those mismatch)@."
    m.Core.Metrics.lookup_calls f.Core.Actx.pct_lookup_struct
    f.Core.Actx.pct_lookup_mismatch;
  Fmt.pr "resolve calls:        %d (%.1f%% struct, %.1f%% of those mismatch)@."
    m.Core.Metrics.resolve_calls f.Core.Actx.pct_resolve_struct
    f.Core.Actx.pct_resolve_mismatch;
  Fmt.pr "solver engine:        %s@." m.Core.Metrics.engine;
  Fmt.pr "solver visits:        %d@." m.Core.Metrics.solver_visits;
  Fmt.pr "facts consumed:       %d (delta %d of %d full; %d copy edges)@."
    m.Core.Metrics.facts_consumed m.Core.Metrics.delta_facts
    m.Core.Metrics.full_facts m.Core.Metrics.copy_edges;
  Fmt.pr "cycle elimination:    %d cycles, %d cells unified, %d wasted props@."
    m.Core.Metrics.cycles_found m.Core.Metrics.cells_unified
    m.Core.Metrics.wasted_propagations;
  Fmt.pr "analysis time:        %.4f s@." r.Core.Analysis.time_s;
  (* incremental counters exist only after a warm re-analysis; a plain
     analyze run keeps them at zero and prints nothing extra *)
  if
    m.Core.Metrics.incr_stmts_added + m.Core.Metrics.incr_stmts_removed
    + m.Core.Metrics.incr_warm_visits
    > 0
  then begin
    Fmt.pr "incremental edit:     +%d/-%d statements@."
      m.Core.Metrics.incr_stmts_added m.Core.Metrics.incr_stmts_removed;
    Fmt.pr "statements replayed:  %d@." m.Core.Metrics.incr_stmts_replayed;
    Fmt.pr "warm visits:          %d (vs %d for the whole fixpoint)@."
      m.Core.Metrics.incr_warm_visits m.Core.Metrics.solver_visits
  end;
  if m.Core.Metrics.unknown_externs <> [] then
    Fmt.pr "unknown externs:      %s@."
      (String.concat ", " m.Core.Metrics.unknown_externs)

let print_callgraph (r : Core.Analysis.result) =
  let q = Clients.Queries.of_result r in
  List.iter
    (fun (fname, callees) ->
      if callees = [] then Fmt.pr "%s -> (none)@." fname
      else
        Fmt.pr "%s -> %a@." fname
          (Fmt.list ~sep:(Fmt.any ", ") Clients.Queries.pp_callee)
          callees)
    (Clients.Queries.call_graph q)

let print_modref (r : Core.Analysis.result) =
  let q = Clients.Queries.of_result r in
  let prog = Clients.Queries.prog q in
  List.iter
    (fun (f : Nast.func) ->
      Fmt.pr "%s:@." f.Nast.fname;
      Fmt.pr "  MOD  = {%s}@."
        (String.concat ", "
           (Clients.Queries.cell_set_to_strings (Clients.Queries.mod_set q f)));
      Fmt.pr "  REF  = {%s}@."
        (String.concat ", "
           (Clients.Queries.cell_set_to_strings (Clients.Queries.ref_set q f)));
      Fmt.pr "  MOD* = {%s}@."
        (String.concat ", "
           (Clients.Queries.cell_set_to_strings
              (Clients.Queries.mod_set_transitive q f.Nast.fname))))
    prog.Nast.pfuncs

(* Graphviz exports: pipe into `dot -Tsvg` *)
let print_dot (r : Core.Analysis.result) =
  Fmt.pr "digraph points_to {@.  rankdir=LR;@.  node [shape=box];@.";
  List.iter
    (fun ((c : Core.Cell.t), targets) ->
      let skip =
        String.length c.Core.Cell.base.Cvar.vname > 2
        && String.sub c.Core.Cell.base.Cvar.vname 0 2 = "$t"
      in
      if not skip then
        Core.Cell.Set.iter
          (fun w ->
            Fmt.pr "  \"%s\" -> \"%s\";@." (Core.Cell.to_string c)
              (Core.Cell.to_string w))
          targets)
    (sorted_sources r);
  Fmt.pr "}@."

let print_dot_callgraph (r : Core.Analysis.result) =
  let q = Clients.Queries.of_result r in
  Fmt.pr "digraph call_graph {@.  node [shape=oval];@.";
  List.iter
    (fun (caller, callees) ->
      List.iter
        (fun callee ->
          match callee with
          | Clients.Queries.Static n ->
              Fmt.pr "  \"%s\" -> \"%s\";@." caller n
          | Clients.Queries.Resolved n ->
              Fmt.pr "  \"%s\" -> \"%s\" [style=dashed];@." caller n)
        callees)
    (Clients.Queries.call_graph q);
  Fmt.pr "}@."

(* analyze, routed through the report store (--store DIR). JSON mode
   is the same request a --store serve job makes (Server.Answer): an
   exact repeat of (source bytes, includes, configuration) is answered
   from its report record before any front-end work, a repeat of the
   normalized program from its snapshot; anything else solves cold. The
   output is the stats-free rendering (a pure function of the input,
   byte-identical whatever the cache did) with the store counter block
   spliced in. Text mode needs a live solver, which no stored report
   holds, so it solves every time and prints what plain analyze
   prints. *)
let analyze_store_cmd ~dir ~store_max_mb ~store_faults spec strategy layout_id
    what var budget engine format =
  ignore (strategy_of_name strategy);
  let layout = layout_of_name layout_id in
  let plan =
    Server.Faults.store_of_env ()
    @
    match store_faults with
    | None -> []
    | Some s -> (
        match Server.Faults.store_parse s with
        | Ok p -> p
        | Error e -> failwith e)
  in
  let st =
    Store.open_store
      ~max_bytes:(max 1 store_max_mb * 1024 * 1024)
      ~inject:(Server.Faults.store_hook plan)
      ~log:(fun m -> Fmt.epr "store: %s@." m)
      dir
  in
  match format with
  | "json" ->
      let a =
        Server.Answer.run st ~layout ~layout_id ~strategy_id:strategy ~engine
          ~budget (Server.Source.load spec)
      in
      print_string a.Server.Answer.json;
      print_newline ();
      report_degradation a.Server.Answer.degraded;
      if a.Server.Answer.degraded <> [] then 2
      else if a.Server.Answer.diag_errors then 1
      else 0
  | "text" ->
      let diags = Diag.create () in
      let name, prog = compile_spec ~layout ~diags spec in
      let served =
        Store.serve st ~want:`Solver
          ~diags:(Diag.diagnostics diags) ~name ~strategy_id:strategy ~engine
          ~layout ~layout_id ~budget prog
      in
      let r =
        match served.Store.sv_result with
        | Some r -> r
        | None -> assert false (* `Solver mode always builds a solver *)
      in
      (match what with
      | "points-to" -> print_points_to r ~only_var:var
      | "metrics" -> print_metrics name r
      | "norm" -> Fmt.pr "%a" Nast.pp_program prog
      | "callgraph" -> print_callgraph r
      | "modref" -> print_modref r
      | "dot" -> print_dot r
      | "dot-callgraph" -> print_dot_callgraph r
      | w -> failwith (Printf.sprintf "unknown --print %s" w));
      report_diags diags;
      Fmt.epr "%a@." Core.Metrics.pp_store (Store.counters st);
      let degraded = r.Core.Analysis.degraded in
      report_degradation degraded;
      exit_code ~diags ~degraded:(degraded <> [])
  | f -> failwith (Printf.sprintf "unknown --format %s (text|json)" f)

let analyze_cmd spec strategy layout what var budget engine format
    store store_max_mb store_faults =
  match store with
  | Some dir ->
      analyze_store_cmd ~dir ~store_max_mb ~store_faults spec strategy layout
        what var budget engine format
  | None ->
  let layout = layout_of_name layout in
  let diags = Diag.create () in
  let name, prog = compile_spec ~layout ~diags spec in
  let r =
    Core.Analysis.run ~layout ~budget ~engine
      ~strategy:(strategy_of_name strategy)
      prog
  in
  (match format with
  | "json" ->
      (* one machine-readable object on stdout, nothing on stderr: the
         result, metrics, degradation events, and diagnostics all live
         in the JSON *)
      let r = { r with Core.Analysis.diags = Diag.diagnostics diags } in
      print_string (Core.Report.json_of_result ~name r);
      print_newline ()
  | "text" ->
      (match what with
      | "points-to" -> print_points_to r ~only_var:var
      | "metrics" -> print_metrics name r
      | "norm" -> Fmt.pr "%a" Nast.pp_program prog
      | "callgraph" -> print_callgraph r
      | "modref" -> print_modref r
      | "dot" -> print_dot r
      | "dot-callgraph" -> print_dot_callgraph r
      | w -> failwith (Printf.sprintf "unknown --print %s" w));
      report_diags diags;
      report_degradation r.Core.Analysis.degraded
  | f -> failwith (Printf.sprintf "unknown --format %s (text|json)" f));
  exit_code ~diags ~degraded:(r.Core.Analysis.degraded <> [])

(* ------------------------------------------------------------------ *)
(* reanalyze / watch                                                   *)
(* ------------------------------------------------------------------ *)

let mk_result ~time_s ~diags (t : Core.Solver.t) : Core.Analysis.result =
  {
    Core.Analysis.solver = t;
    metrics = Core.Metrics.summarize t;
    time_s;
    degraded = Core.Solver.degradations t;
    diags = Diag.diagnostics diags;
  }

let print_warm_result ~format ~name ~diags ~(st : Incr.Engine.stats)
    (r : Core.Analysis.result) =
  match format with
  | "json" ->
      print_string (Core.Report.json_of_result ~name r);
      print_newline ();
      flush stdout
  | "text" ->
      Fmt.pr "%s: +%d/-%d statements, %d warm visits%s@." name
        st.Incr.Engine.stmts_added st.Incr.Engine.stmts_removed
        st.Incr.Engine.warm_visits
        (if st.Incr.Engine.fallback then "  (solved from scratch)" else "");
      report_diags diags
  | f -> failwith (Printf.sprintf "unknown --format %s (text|json)" f)

let reanalyze_cmd base_spec edited_spec strategy layout budget engine
    format =
  let layout = layout_of_name layout in
  let strategy = strategy_of_name strategy in
  let diags = Diag.create () in
  let _, base = compile_spec ~layout ~diags base_spec in
  let t = Core.Solver.run ~layout ~budget ~engine ~strategy base in
  (* the edit alone, on the wall clock like [analyze] and [watch] *)
  let t0 = Core.Unix_time.now () in
  let name, edited = compile_spec ~layout ~diags edited_spec in
  let t, st = Incr.Engine.reanalyze t edited in
  let time_s = Core.Unix_time.now () -. t0 in
  print_warm_result ~format ~name ~diags ~st (mk_result ~time_s ~diags t);
  exit_code ~diags ~degraded:(Core.Solver.degraded t)

(* One solved fixpoint kept live: every line on stdin (e.g. from an
   editor hook or `inotifywait`) re-reads FILE and re-answers from the
   warm state. EOF ends the session. *)
let watch_cmd spec strategy layout budget engine format journal =
  let layout = layout_of_name layout in
  let strategy = strategy_of_name strategy in
  let jnl = Option.map Server.Journal.open_append journal in
  let journal_entry ~i ~name ~diags (r : Core.Analysis.result) =
    match jnl with
    | None -> ()
    | Some j ->
        Server.Journal.append j
          (Server.Journal.Done
             {
               id = Printf.sprintf "watch%d" i;
               attempt = 1;
               rung = 0;
               degraded = Core.Solver.degraded r.Core.Analysis.solver;
               diag_errors = Diag.has_errors diags;
               output = Core.Report.json_of_result ~timing:false ~name r;
             })
  in
  (* SIGINT is a clean end-of-session, exactly like EOF: the handler's
     exception unwinds the blocking read and the final record below
     still lands in the journal *)
  let prev_sigint =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> raise Exit))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_sigint;
      Option.iter Server.Journal.close jnl)
    (fun () ->
      let diags = Diag.create () in
      let name, base = compile_spec ~layout ~diags spec in
      let t0 = Core.Unix_time.now () in
      let t = ref (Core.Solver.run ~layout ~budget ~engine ~strategy base) in
      let time_s = Core.Unix_time.now () -. t0 in
      Fmt.epr "watch: %s solved (%d statements); send a line to re-analyze, \
               EOF to stop@."
        name (Nast.stmt_count base);
      if Option.is_some jnl then
        journal_entry ~i:0 ~name ~diags (mk_result ~time_s ~diags !t);
      let worst = ref (exit_code ~diags ~degraded:(Core.Solver.degraded !t)) in
      let edits = ref 0 in
      let rec loop i =
        match input_line stdin with
        | exception End_of_file -> ()
        | _ ->
            incr edits;
            (let diags = Diag.create () in
             match
               let t0 = Core.Unix_time.now () in
               let _, edited = compile_spec ~layout ~diags spec in
               let t', st = Incr.Engine.reanalyze !t edited in
               (t', st, Core.Unix_time.now () -. t0)
             with
             | t', st, time_s ->
                 t := t';
                 (* one summary per edit, shared by answer and journal *)
                 let r = mk_result ~time_s ~diags !t in
                 print_warm_result ~format ~name ~diags ~st r;
                 journal_entry ~i ~name ~diags r;
                 worst :=
                   max !worst
                     (exit_code ~diags ~degraded:(Core.Solver.degraded !t))
             | exception Diag.Error p ->
                 (* a broken intermediate save: report, keep the old
                    fixpoint, keep watching *)
                 Fmt.epr "%a@." Diag.pp_payload p;
                 worst := max !worst 1);
            loop (i + 1)
      in
      (try loop 1 with Exit -> ());
      (* a final terminal record: a journal ending in [watch-done] is a
         session that closed cleanly (EOF or SIGINT), not one that died
         mid-edit — resume tooling can tell the difference *)
      (match jnl with
      | None -> ()
      | Some j ->
          Server.Journal.append j
            (Server.Journal.Done
               {
                 id = "watch-done";
                 attempt = 1;
                 rung = 0;
                 degraded = false;
                 diag_errors = false;
                 output =
                   Printf.sprintf
                     "{\"status\":\"session-closed\",\"edits\":%d}" !edits;
               }));
      !worst)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd spec layout budget =
  let layout = layout_of_name layout in
  let diags = Diag.create () in
  let name, prog = compile_spec ~layout ~diags spec in
  Fmt.pr "%s: %d normalized statements@.@." name (Nast.stmt_count prog);
  Fmt.pr "%-24s %12s %10s %10s %10s@." "strategy" "avg-deref" "max" "edges"
    "time(s)";
  let all_events = ref [] in
  List.iter
    (fun s ->
      let r = Core.Analysis.run ~layout ~budget ~strategy:s prog in
      let m = r.Core.Analysis.metrics in
      all_events := !all_events @ r.Core.Analysis.degraded;
      Fmt.pr "%-24s %12.2f %10d %10d %10.4f%s@." m.Core.Metrics.strategy_name
        m.Core.Metrics.avg_deref_size m.Core.Metrics.max_deref_size
        m.Core.Metrics.total_edges r.Core.Analysis.time_s
        (if r.Core.Analysis.degraded <> [] then "  (degraded)" else ""))
    Core.Analysis.strategies;
  (* unification baselines for context *)
  List.iter
    (fun (flavor, label) ->
      let t = Steens.Steensgaard.run ~flavor prog in
      Fmt.pr "%-24s %12.2f %10s %10s %10.4f@." label
        (Steens.Steensgaard.avg_deref_size t)
        "-" "-" t.Steens.Steensgaard.time_s)
    [
      (Steens.Steensgaard.Collapsed, "steensgaard (collapsed)");
      (Steens.Steensgaard.Fields, "steensgaard (fields)");
    ];
  report_diags diags;
  report_degradation !all_events;
  exit_code ~diags ~degraded:(!all_events <> [])

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)
(* ------------------------------------------------------------------ *)

let corpus_cmd () =
  Fmt.pr "%-10s %6s %6s  %s@." "name" "lines" "casts" "description";
  List.iter
    (fun p ->
      Fmt.pr "%-10s %6d %6s  %s@." p.Suite.name (Suite.line_count p)
        (if p.Suite.has_struct_cast then "yes" else "no")
        p.Suite.description)
    Suite.programs

(* ------------------------------------------------------------------ *)
(* batch / serve                                                       *)
(* ------------------------------------------------------------------ *)

(* Batch exit codes extend the single-run contract fleet-wide; the
   worst (numerically highest) outcome wins: 5 drained by signal
   (serve only, applied by the caller), 4 if any request was shed
   (queue full, deadline expired, or drain cut it off), 3 if any job
   was quarantined (or an internal error), 2 if any completed degraded
   (budget events or a retry rung > 0), 1 if any carried error
   diagnostics, 0 otherwise. *)
let outcome_exit_code (o : Server.Supervisor.outcome) : int =
  match o with
  | Server.Supervisor.Shed _ -> 4
  | Server.Supervisor.Quarantined _ -> 3
  | Server.Supervisor.Done { degraded; diag_errors; _ } ->
      if degraded then 2 else if diag_errors then 1 else 0

let batch_exit_code (results : (Server.Job.t * Server.Supervisor.outcome) list)
    : int =
  List.fold_left (fun acc (_, o) -> max acc (outcome_exit_code o)) 0 results

let print_outcome ~format (job : Server.Job.t)
    (o : Server.Supervisor.outcome) =
  match (format, o) with
  | "json", Server.Supervisor.Done { output; _ }
  | "json", Server.Supervisor.Quarantined { output; _ }
  | "json", Server.Supervisor.Shed { output; _ } ->
      print_string output;
      print_newline ()
  | _, Server.Supervisor.Done { attempt; rung; degraded; diag_errors; _ } ->
      Fmt.pr "%-8s %-12s done         attempt=%d rung=%d%s%s@."
        job.Server.Job.id job.Server.Job.spec attempt rung
        (if degraded then " (degraded)" else "")
        (if diag_errors then " (diagnostics)" else "")
  | _, Server.Supervisor.Quarantined { attempts; reason; _ } ->
      Fmt.pr "%-8s %-12s quarantined  attempts=%d — %s@." job.Server.Job.id
        job.Server.Job.spec attempts reason
  | _, Server.Supervisor.Shed { reason; _ } ->
      Fmt.pr "%-8s %-12s shed         — %s@." job.Server.Job.id
        job.Server.Job.spec reason

let read_manifest path : (string * string option * string option) list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        with
        | [] -> go acc
        | [ spec ] -> go ((spec, None, None) :: acc)
        | [ spec; s ] -> go ((spec, Some s, None) :: acc)
        | spec :: s :: l :: _ -> go ((spec, Some s, Some l) :: acc))
  in
  go []

let supervisor_config workers attempts job_timeout_ms backoff_ms faults
    journal resume ~max_pending ~high_watermark ~low_watermark ~brownout_ticks
    ~worker_max_rss_mb ~drain_deadline_ms : Server.Supervisor.config =
  let fault_plan =
    Server.Faults.merge
      (Server.Faults.of_env ())
      (match faults with
      | None -> Server.Faults.none
      | Some s -> (
          match Server.Faults.parse s with
          | Ok p -> p
          | Error e -> failwith e))
  in
  let opt n = if n <= 0 then None else Some n in
  {
    Server.Supervisor.workers;
    max_attempts = max 1 attempts;
    job_timeout_s = float_of_int (max 1 job_timeout_ms) /. 1000.;
    backoff_base_ms = max 1 backoff_ms;
    faults = fault_plan;
    journal_path = journal;
    resume;
    admission =
      {
        Server.Admission.max_pending = opt max_pending;
        high_watermark = max 0 high_watermark;
        low_watermark = max 0 low_watermark;
        brownout_ticks = max 1 brownout_ticks;
        max_rung = Server.Job.max_rung;
      };
    worker_max_rss_mb = opt worker_max_rss_mb;
    drain_grace_s = float_of_int (max 1 drain_deadline_ms) /. 1000.;
    shutdown_grace_s = 2.0;
  }

(* Overload-control flags shared by batch and serve; see the Arg docs
   below for semantics. All off by default (unbounded queue, no
   brownout, no RSS cap, no deadline). *)
type overload_flags = {
  max_pending : int;
  high_watermark : int;
  low_watermark : int;
  brownout_ticks : int;
  worker_max_rss_mb : int;
  drain_deadline_ms : int;
  deadline_ms : int;  (** default per-request deadline; 0 = none *)
}

let batch_cmd specs manifest strategy layout budget workers attempts
    job_timeout_ms backoff_ms faults journal resume format store
    engine (ov : overload_flags) =
  let workers = workers_of_flag workers in
  let from_manifest =
    match manifest with Some p -> read_manifest p | None -> []
  in
  let entries =
    List.map (fun s -> (s, None, None)) specs @ from_manifest
  in
  if entries = [] then
    failwith "no jobs: give input specs or --jobs MANIFEST";
  let deadline_ms = if ov.deadline_ms > 0 then Some ov.deadline_ms else None in
  let jobs =
    List.mapi
      (fun i (spec, s, l) ->
        Server.Job.make ~idx:(i + 1)
          ~strategy:(Option.value s ~default:strategy)
          ~layout:(Option.value l ~default:layout)
          ~budget ?store_dir:store ?deadline_ms
          ~engine:(Core.Solver.engine_name engine)
          spec)
      entries
  in
  let cfg =
    supervisor_config workers attempts job_timeout_ms backoff_ms faults
      journal resume ~max_pending:ov.max_pending
      ~high_watermark:ov.high_watermark ~low_watermark:ov.low_watermark
      ~brownout_ticks:ov.brownout_ticks
      ~worker_max_rss_mb:ov.worker_max_rss_mb
      ~drain_deadline_ms:ov.drain_deadline_ms
  in
  let results, fleet = Server.Supervisor.run_batch cfg jobs in
  List.iter (fun (j, o) -> print_outcome ~format j o) results;
  (match format with
  | "json" -> Fmt.epr "%s@." (Core.Metrics.fleet_json fleet)
  | _ -> Fmt.epr "%a@." Core.Metrics.pp_fleet fleet);
  batch_exit_code results

(* Request/response loop: one `SPEC [STRATEGY] [LAYOUT] [deadline=MS]`
   per stdin line, one JSON result line per request (in request order),
   backed by the persistent worker pool. Unlike the old
   one-request-at-a-time loop, stdin and the worker pipes are
   multiplexed through {!Server.Supervisor.step}: requests keep being
   admitted (or shed) while earlier ones run, which is what makes
   admission control and deadlines meaningful. SIGTERM/SIGINT flip the
   fleet into a graceful drain: queued and new requests are shed,
   in-flight ones finish within --drain-deadline-ms, and the process
   exits with code 5. *)
let serve_cmd strategy layout budget workers attempts job_timeout_ms
    backoff_ms faults journal store engine (ov : overload_flags) =
  let workers = workers_of_flag workers in
  let cfg =
    supervisor_config workers attempts job_timeout_ms backoff_ms faults
      journal false ~max_pending:ov.max_pending
      ~high_watermark:ov.high_watermark ~low_watermark:ov.low_watermark
      ~brownout_ticks:ov.brownout_ticks
      ~worker_max_rss_mb:ov.worker_max_rss_mb
      ~drain_deadline_ms:ov.drain_deadline_ms
  in
  let t = Server.Supervisor.create cfg in
  let drain_signal = ref false in
  let on_signal _ =
    drain_signal := true;
    Server.Supervisor.request_drain t
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Fun.protect
    ~finally:(fun () -> Server.Supervisor.shutdown t)
    (fun () ->
      let worst = ref 0 in
      let idx = ref 0 in
      (* unanswered requests, oldest first: responses are printed in
         request order as outcomes become available *)
      let unprinted = ref [] in
      let print_ready () =
        let rec go = function
          | [] -> []
          | (job : Server.Job.t) :: rest -> (
              match Server.Supervisor.find_outcome t job.Server.Job.id with
              | Some o ->
                  print_outcome ~format:"json" job o;
                  flush stdout;
                  worst := max !worst (outcome_exit_code o);
                  go rest
              | None -> job :: rest)
        in
        unprinted := go !unprinted
      in
      let submit_line line =
        let toks =
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        in
        (* tokens containing '=' are options; the rest are positional *)
        let opts, pos =
          List.partition (fun s -> String.contains s '=') toks
        in
        match pos with
        | [] -> ()
        | spec :: rest ->
            let s = match rest with x :: _ -> x | [] -> strategy in
            let l = match rest with _ :: x :: _ -> x | _ -> layout in
            let deadline_ms =
              List.fold_left
                (fun acc o ->
                  match String.index_opt o '=' with
                  | Some i when String.sub o 0 i = "deadline" -> (
                      let v =
                        String.sub o (i + 1) (String.length o - i - 1)
                      in
                      match int_of_string_opt v with
                      | Some ms when ms > 0 -> Some ms
                      | _ -> failwith ("serve: bad deadline option " ^ o))
                  | _ -> acc)
                (if ov.deadline_ms > 0 then Some ov.deadline_ms else None)
                opts
            in
            incr idx;
            let job =
              Server.Job.make ~idx:!idx ~strategy:s ~layout:l ~budget
                ?store_dir:store ?deadline_ms
                ~engine:(Core.Solver.engine_name engine)
                spec
            in
            Server.Supervisor.submit t job;
            unprinted := !unprinted @ [ job ]
      in
      let inbuf = ref "" in
      let eof = ref false in
      let read_stdin () =
        let chunk = Bytes.create 4096 in
        match Unix.read Unix.stdin chunk 0 4096 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 -> eof := true
        | n ->
            let data = !inbuf ^ Bytes.sub_string chunk 0 n in
            let parts = String.split_on_char '\n' data in
            let rec go = function
              | [] -> inbuf := ""
              | [ tail ] -> inbuf := tail
              | line :: rest ->
                  submit_line line;
                  go rest
            in
            go parts
      in
      let rec loop () =
        print_ready ();
        if !eof || Server.Supervisor.draining t then ()
        else begin
          let readable = Server.Supervisor.step ~extra:[ Unix.stdin ] t in
          if List.mem Unix.stdin readable then read_stdin ();
          loop ()
        end
      in
      loop ();
      (* EOF or drain: no more requests — finish (or cut off) what's in
         flight and answer everything still unanswered *)
      Server.Supervisor.drain t;
      print_ready ();
      Fmt.epr "%a@." Core.Metrics.pp_fleet (Server.Supervisor.fleet t);
      if !drain_signal then 5 else !worst)

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE|PROGRAM" ~doc:"C source file or corpus program name.")

let strategy_arg =
  Arg.(
    value & opt string "cis"
    & info [ "s"; "strategy" ] ~docv:"ID"
        ~doc:
          "Analysis instance: collapse-always, collapse-on-cast, cis, or \
           offsets.")

let layout_arg =
  Arg.(
    value & opt string "ilp32"
    & info [ "l"; "layout" ] ~docv:"LAYOUT"
        ~doc:"Structure layout for the Offsets instance: ilp32, lp64, word16.")

let print_arg =
  Arg.(
    value & opt string "points-to"
    & info [ "p"; "print" ] ~docv:"WHAT"
        ~doc:
          "What to print: points-to, metrics, norm, callgraph, modref, dot \
           (graphviz points-to graph), or dot-callgraph.")

let var_arg =
  Arg.(
    value & opt (some string) None
    & info [ "var" ] ~docv:"NAME" ~doc:"Restrict points-to output to one variable.")

(* Budget flags; 0 disables the corresponding limit. Defaults come from
   Budget.default so every CLI run is bounded out of the box. *)

let default_steps =
  Option.value Core.Budget.default.Core.Budget.max_steps ~default:0

let default_timeout_ms =
  match Core.Budget.default.Core.Budget.timeout_s with
  | None -> 0
  | Some s -> int_of_float (s *. 1000.)

let default_obj_cells =
  Option.value Core.Budget.default.Core.Budget.max_cells_per_object ~default:0

let default_total_cells =
  Option.value Core.Budget.default.Core.Budget.max_total_cells ~default:0

let max_steps_arg =
  Arg.(
    value & opt int default_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Solver step budget; past it, precision degrades (objects collapse \
           to single cells) instead of running on. 0 = unlimited.")

let timeout_ms_arg =
  Arg.(
    value & opt int default_timeout_ms
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget for the solve, in milliseconds; past it, \
           precision degrades. 0 = unlimited. Under batch/serve the value \
           crosses the job wire in whole milliseconds with a 1 ms floor \
           (a sub-millisecond budget is clamped up to 1 ms, never to \
           unlimited), and retry rung 1 additionally caps it at 2000 ms.")

let max_cells_per_object_arg =
  Arg.(
    value & opt int default_obj_cells
    & info [ "max-cells-per-object" ] ~docv:"N"
        ~doc:
          "Cell budget per object; an object tracked at finer granularity \
           than this collapses to one cell. 0 = unlimited.")

let max_total_cells_arg =
  Arg.(
    value & opt int default_total_cells
    & info [ "max-total-cells" ] ~docv:"N"
        ~doc:
          "Cell budget across all objects; past it, precision degrades. \
           0 = unlimited.")

let budget_term =
  Term.(
    const limits_of_flags $ max_steps_arg $ timeout_ms_arg
    $ max_cells_per_object_arg $ max_total_cells_arg)

(* Any name outside the engine table is a usage error (exit 124). *)
let engine_conv = Arg.enum Core.Solver.engines

let engine_arg =
  Arg.(
    value & opt engine_conv `Delta
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Solver engine: delta (difference propagation with online cycle \
           elimination, default), delta-nocycle (difference propagation \
           only; the ablation baseline) or naive (reference full-reread \
           worklist). All three reach the same fixpoint; they differ only \
           in how much work it costs.")

(* reanalyze and watch keep one solver warm across edits. The naive
   engine has no warm path, so the flag refuses it as a usage error. *)
let warm_engine_arg =
  let parse s =
    match Arg.conv_parser engine_conv s with
    | Ok `Naive ->
        Error
          (`Msg
             "naive is a scratch-only oracle; reanalyze and watch take delta \
              or delta-nocycle")
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer engine_conv)) `Delta
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Solver engine: delta (default) or delta-nocycle, as for analyze. \
           The naive oracle has no warm path and is refused.")

let format_arg =
  Arg.(
    value & opt string "text"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: text, or json (one machine-readable object with \
           result, metrics, degradation events, and diagnostics).")

(* batch / serve flags *)

let specs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE|PROGRAM"
        ~doc:"Inputs to analyze, one job each (see also --jobs).")

let jobs_arg =
  Arg.(
    value & opt (some string) None
    & info [ "jobs" ] ~docv:"MANIFEST"
        ~doc:
          "Job manifest: one job per line, 'SPEC [STRATEGY [LAYOUT]]'; '#' \
           starts a comment.")

let workers_arg =
  Arg.(
    value & opt string "auto"
    & info [ "workers" ] ~docv:"N|auto"
        ~doc:
          "Worker processes in the pool (each job runs in one). The \
           default, auto, sizes the pool to the runtime's recommended \
           domain count for this machine.")

let attempts_arg =
  Arg.(
    value & opt int 3
    & info [ "attempts" ] ~docv:"N"
        ~doc:
          "Attempts per job before quarantine; each retry escalates one \
           degradation rung (full → tight budget → collapse-all).")

let job_timeout_ms_arg =
  Arg.(
    value & opt int 30_000
    & info [ "job-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt wall clock; a worker past it is killed and the job \
           counts as hung.")

let backoff_ms_arg =
  Arg.(
    value & opt int 100
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Retry backoff base: attempt n waits base*2^(n-1) plus \
           deterministic jitter.")

let faults_arg =
  Arg.(
    value & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Fault-injection plan, e.g. 'crash\\@job2#1,hang\\@job5' \
           (kinds: crash, exit, hang, raise, allocbomb, burst, slowread, \
           allochold); merged with \\$STRUCTCAST_FAULTS. Testing only.")

let journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append every job state transition to this fsync'd journal; with \
           --resume, finished jobs are replayed from it byte-for-byte.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume an interrupted batch from --journal: finished jobs are \
           replayed, only unfinished ones run.")

(* overload-control flags (batch and serve) *)

let max_pending_arg =
  Arg.(
    value & opt int 0
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission control: bound on the pending-request queue. A request \
           arriving when N are already queued is shed — answered with a \
           distinct '\"status\":\"shed\"' JSON line (exit code 4), never \
           silently dropped. Shedding depends only on queue occupancy, so \
           the same arrival order sheds the same requests every run. 0 = \
           unbounded (no shedding).")

let high_watermark_arg =
  Arg.(
    value & opt int 0
    & info [ "high-watermark" ] ~docv:"N"
        ~doc:
          "Brownout: queue depth that counts as sustained pressure. Depth \
           above N for --brownout-ticks consecutive supervisor ticks \
           escalates the rung new dispatches start at (tight budgets, then \
           collapse-always) — sound but coarser answers, served faster. \
           0 disables brownout.")

let low_watermark_arg =
  Arg.(
    value & opt int 0
    & info [ "low-watermark" ] ~docv:"N"
        ~doc:
          "Brownout: queue depth at or below which pressure counts as gone; \
           --brownout-ticks consecutive calm ticks step the brownout rung \
           back down.")

let brownout_ticks_arg =
  Arg.(
    value & opt int 8
    & info [ "brownout-ticks" ] ~docv:"N"
        ~doc:
          "Consecutive supervisor ticks above (below) the watermark before \
           the brownout rung escalates (steps down).")

let worker_max_rss_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "worker-max-rss-mb" ] ~docv:"MB"
        ~doc:
          "Memory watchdog: per-worker resident-set cap, sampled from \
           /proc/<pid>/statm each supervisor tick. A worker over the cap is \
           SIGKILLed and its job re-enters the retry ladder (where tighter \
           rung budgets usually let it finish). 0 = no cap.")

let drain_deadline_ms_arg =
  Arg.(
    value & opt int 5000
    & info [ "drain-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Graceful drain: how long in-flight jobs may keep running after \
           SIGTERM/SIGINT before they are killed and shed. Queued requests \
           are shed immediately; every request still gets exactly one \
           journaled outcome.")

let deadline_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default request deadline, from submission. A request whose \
           deadline expires while queued is shed without running; at \
           dispatch the remaining deadline tightens the job's wall-clock \
           budget; a worker still running one supervisor tick past it is \
           killed and the request shed (not retried). serve requests may \
           override per request with a 'deadline=MS' token. 0 = none.")

let overload_term =
  let mk max_pending high_watermark low_watermark brownout_ticks
      worker_max_rss_mb drain_deadline_ms deadline_ms =
    {
      max_pending;
      high_watermark;
      low_watermark;
      brownout_ticks;
      worker_max_rss_mb;
      drain_deadline_ms;
      deadline_ms;
    }
  in
  Term.(
    const mk $ max_pending_arg $ high_watermark_arg $ low_watermark_arg
    $ brownout_ticks_arg $ worker_max_rss_mb_arg $ drain_deadline_ms_arg
    $ deadline_ms_arg)

let batch_format_arg =
  Arg.(
    value & opt string "json"
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: json (default; one line per job) or text.")

(* fixpoint-store flags *)

let store_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Content-addressed report store: cache the stats-free report \
           of every clean result. With --format json an exact repeat of \
           the source bytes and configuration is answered from a report \
           record before any front-end work, once every #include it \
           lists is re-checked against its recorded MD5; otherwise the \
           compiled program is looked up among the snapshots, and a \
           miss solves cold. --format text needs a live solver, so it \
           always solves. A corrupt store can cost time but never \
           change a report: records and snapshots are checksum-verified \
           and quarantined on any mismatch, degrading to a scratch \
           solve. With --format json the report is the stats-free \
           rendering plus a 'store' counter block.")

let store_max_mb_arg =
  Arg.(
    value & opt int 256
    & info [ "store-max-mb" ] ~docv:"MB"
        ~doc:
          "Size budget for --store; least-recently-used snapshots are \
           evicted past it.")

let store_faults_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store-faults" ] ~docv:"PLAN"
        ~doc:
          "Store-I/O fault-injection plan: comma-separated KIND@N \
           entries, e.g. 'shortwrite@2,enospc@1' (KIND is one of \
           shortwrite, bitflip, enospc, crash; N is the 1-based store \
           write ordinal); merged with \\$STRUCTCAST_STORE_FAULTS. \
           Testing only.")

let watch_journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append one crash-safe 'done' record per re-analysis (same \
           format as batch --journal), carrying the JSON result line.")

(* [f] returns the exit code (0 ok, 1 diagnostics, 2 degraded); expected
   failures map to 1, anything escaping unexpectedly is an internal
   error: 3. *)
let wrap f =
  try f () with
  | Failure msg | Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      1
  | Diag.Error p ->
      Fmt.epr "%a@." Diag.pp_payload p;
      1
  | e ->
      Fmt.epr "internal error: %s@." (Printexc.to_string e);
      3

let analyze_t =
  let run spec strategy layout what var budget engine format store
      store_max_mb store_faults =
    wrap (fun () ->
        analyze_cmd spec strategy layout what var budget engine format
          store store_max_mb store_faults)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze a C file with one framework instance.")
    Term.(
      const run $ spec_arg $ strategy_arg $ layout_arg $ print_arg $ var_arg
      $ budget_term $ engine_arg $ format_arg $ store_arg
      $ store_max_mb_arg $ store_faults_arg)

let compare_t =
  let run spec layout budget = wrap (fun () -> compare_cmd spec layout budget) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run all framework instances (and unification baselines).")
    Term.(const run $ spec_arg $ layout_arg $ budget_term)

let corpus_t =
  let run () =
    wrap (fun () ->
        corpus_cmd ();
        0)
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List the embedded benchmark corpus.")
    Term.(const run $ const ())

let batch_t =
  let run specs manifest strategy layout budget workers attempts
      job_timeout_ms backoff_ms faults journal resume format store
      engine overload =
    wrap (fun () ->
        batch_cmd specs manifest strategy layout budget workers attempts
          job_timeout_ms backoff_ms faults journal resume format store
          engine overload)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many inputs through the crash-contained supervisor: forked \
          workers, retry with backoff and degradation, per-input circuit \
          breaker, crash-safe journal (--journal/--resume), and the \
          overload controls (admission, deadlines, brownout, memory \
          watchdog). Exit code is the worst outcome: 0 clean, 1 \
          diagnostics, 2 degraded, 3 quarantined, 4 shed.")
    Term.(
      const run $ specs_arg $ jobs_arg $ strategy_arg $ layout_arg
      $ budget_term $ workers_arg $ attempts_arg $ job_timeout_ms_arg
      $ backoff_ms_arg $ faults_arg $ journal_arg $ resume_arg
      $ batch_format_arg $ store_arg $ engine_arg
      $ overload_term)

let serve_t =
  let run strategy layout budget workers attempts job_timeout_ms backoff_ms
      faults journal store engine overload =
    wrap (fun () ->
        serve_cmd strategy layout budget workers attempts job_timeout_ms
          backoff_ms faults journal store engine overload)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve analysis requests read from stdin ('SPEC [STRATEGY [LAYOUT] \
          [deadline=MS]]' per line), one JSON result line per request in \
          request order, backed by the crash-contained worker pool. \
          Requests are admitted (or shed) while earlier ones run; \
          --max-pending bounds the queue, --deadline-ms bounds each \
          request, SIGTERM/SIGINT drain gracefully (in-flight requests \
          finish within --drain-deadline-ms, everything else is shed, exit \
          code 5).")
    Term.(
      const run $ strategy_arg $ layout_arg $ budget_term $ workers_arg
      $ attempts_arg $ job_timeout_ms_arg $ backoff_ms_arg $ faults_arg
      $ journal_arg $ store_arg $ engine_arg $ overload_term)

let base_spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASE" ~doc:"Base version: C file or corpus program.")

let edited_spec_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"EDITED" ~doc:"Edited version of the same program.")

let reanalyze_t =
  let run base edited strategy layout budget engine format =
    wrap (fun () ->
        reanalyze_cmd base edited strategy layout budget engine format)
  in
  Cmd.v
    (Cmd.info "reanalyze"
       ~doc:
         "Solve BASE, diff EDITED against it, and answer for EDITED: an \
          edit that only adds statements over BASE's variables \
          warm-starts the solved state; any other edit is solved from \
          scratch. The result is identical to analyzing EDITED.")
    Term.(
      const run $ base_spec_arg $ edited_spec_arg $ strategy_arg $ layout_arg
      $ budget_term $ warm_engine_arg $ format_arg)

let watch_t =
  let run spec strategy layout budget engine format journal =
    wrap (fun () ->
        watch_cmd spec strategy layout budget engine format journal)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Solve FILE once and keep the fixpoint live: every line on stdin \
          (wire up your editor's save hook or inotifywait) re-reads FILE \
          and re-answers incrementally, printing one result per edit. EOF \
          ends the session.")
    Term.(
      const run $ spec_arg $ strategy_arg $ layout_arg $ budget_term
      $ warm_engine_arg $ format_arg $ watch_journal_arg)

let main =
  Cmd.group
    (Cmd.info "structcast" ~version:"1.0.0"
       ~doc:
         "Tunable pointer analysis for C with structures and casting (Yong, \
          Horwitz & Reps, PLDI 1999).")
    [ analyze_t; compare_t; corpus_t; batch_t; serve_t; reanalyze_t; watch_t ]

let () = exit (Cmd.eval' main)
