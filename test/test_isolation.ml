(** Back-to-back [Analysis] runs in one process must not leak state:
    the batch/serve worker pool reuses a forked worker for many jobs, so
    anything a run leaves behind — diagnostics, budget events, metric
    counters — would corrupt every later job in that worker.

    The deterministic JSON rendering ([Report.json_of_result
    ~timing:false]) doubles as a deep equality check over the whole
    result: points-to metrics, degradation ledger, and diagnostics. *)

open Helpers

let clean_src = "int *p; int x; void main(void) { p = &x; }"

let diag_src = "int *p; int x; void main(void) { p = &x; q = 3; }"

(* Cast-heavy nested struct that trips a 2-cells-per-object budget
   under the Offsets instance. *)
let heavy_src =
  "struct L1 { int *a; int *b; };\n\
   struct L2 { struct L1 x; struct L1 y; };\n\
   struct L3 { struct L2 x; struct L2 y; } s;\n\
   int v0, v1, v2, v3, v4, v5, v6, v7;\n\
   int *out;\n\
   void main(void) {\n\
  \  s.x.x.a = &v0; s.x.x.b = &v1; s.x.y.a = &v2; s.x.y.b = &v3;\n\
  \  s.y.x.a = &v4; s.y.x.b = &v5; s.y.y.a = &v6; s.y.y.b = &v7;\n\
  \  out = s.x.x.a;\n\
   }"

let tight : Core.Budget.limits =
  { Core.Budget.unlimited with Core.Budget.max_cells_per_object = Some 2 }

let run ?budget ?diags ~id src =
  Core.Analysis.run_source ?budget ?diags ~strategy:(strategy id)
    ~file:"<isolation>" src

let render r = Core.Report.json_of_result ~timing:false ~name:"<isolation>" r

let test_identical_reruns () =
  let r1 = run ~id:"cis" clean_src in
  let r2 = run ~id:"cis" clean_src in
  Alcotest.(check string) "identical back-to-back results" (render r1)
    (render r2)

(* A run that reported diagnostics must not taint the next run's
   context, nor the next run's result. *)
let test_diag_ctx_isolation () =
  let d1 = Cfront.Diag.create () in
  let r1 = run ~diags:d1 ~id:"cis" diag_src in
  Alcotest.(check bool) "first run has errors" true (Cfront.Diag.has_errors d1);
  Alcotest.(check bool) "first result carries diags" true
    (r1.Core.Analysis.diags <> []);
  let d2 = Cfront.Diag.create () in
  let r2 = run ~diags:d2 ~id:"cis" clean_src in
  Alcotest.(check int) "second context is empty" 0
    (List.length (Cfront.Diag.diagnostics d2));
  Alcotest.(check (list string)) "second result carries no diags" []
    (List.map (fun (p : Cfront.Diag.payload) -> p.Cfront.Diag.message)
       r2.Core.Analysis.diags)

(* A budget-degraded run must not leave degradation events (or tripped
   budget flags) behind for the next run. *)
let test_budget_isolation () =
  let r1 = run ~budget:tight ~id:"offsets" heavy_src in
  Alcotest.(check bool) "tight run degrades" true
    (r1.Core.Analysis.degraded <> []);
  let r2 = run ~id:"offsets" heavy_src in
  Alcotest.(check int) "unlimited rerun is full precision" 0
    (List.length r2.Core.Analysis.degraded);
  let r3 = run ~budget:tight ~id:"offsets" heavy_src in
  Alcotest.(check string) "degraded rerun is reproducible" (render r1)
    (render r3)

(* Instrumentation counters (Actx lookup/resolve calls) are per-run, not
   accumulated across runs. *)
let test_metrics_reset () =
  let r1 = run ~id:"offsets" heavy_src in
  let r2 = run ~id:"offsets" heavy_src in
  let m1 = r1.Core.Analysis.metrics and m2 = r2.Core.Analysis.metrics in
  Alcotest.(check int) "lookup_calls stable" m1.Core.Metrics.lookup_calls
    m2.Core.Metrics.lookup_calls;
  Alcotest.(check int) "resolve_calls stable" m1.Core.Metrics.resolve_calls
    m2.Core.Metrics.resolve_calls;
  Alcotest.(check int) "total_edges stable" m1.Core.Metrics.total_edges
    m2.Core.Metrics.total_edges

(* The worker-pool pattern: many different jobs interleaved in one
   process; the first and last occurrence of each must agree. *)
let test_interleaved_jobs () =
  let jobs =
    [
      ("cis", clean_src, None);
      ("offsets", heavy_src, Some tight);
      ("collapse-always", heavy_src, None);
      ("cis", diag_src, None);
    ]
  in
  let round () =
    List.map
      (fun (id, src, budget) ->
        let diags = Cfront.Diag.create () in
        render (run ?budget ~diags ~id src))
      jobs
  in
  let first = round () in
  for _ = 1 to 4 do
    ignore (round ())
  done;
  let last = round () in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "job %d stable over reuse" i) a b)
    (List.combine first last)

(* Identity-hashed id tables make table iteration follow cell ids, so
   pin the contract that reports do not: interning a few thousand
   unrelated cells between two solves must change no report byte. The
   same compiled program solved again reuses its cells, so
   [Graph.equal] applies; a recompile of the same source mints fresh
   variables whose cells land past the unrelated ones, and must still
   print the same report and points-to text. *)
let test_reports_ignore_cell_ids () =
  let cgen_src =
    Cgen.generate
      ~cfg:
        { Cgen.n_stmts = 300; n_structs = 4; cast_rate = 0.3; with_calls = true }
      ~seed:2026 ()
  in
  let corpus name = (Option.get (Suite.find name)).Suite.source in
  let programs =
    [ ("cgen300", cgen_src); ("li", corpus "li"); ("tbl", corpus "tbl") ]
  in
  let junk = ref 0 in
  let intern_unrelated () =
    let v =
      Cfront.Cvar.fresh ~name:"unrelated" ~ty:Cfront.Ctype.Void
        ~kind:Cfront.Cvar.Global
    in
    for i = 0 to 3000 do
      ignore (Core.Cell.v v (Core.Cell.Off (i + !junk)))
    done;
    junk := !junk + 3001
  in
  let points_to (r : Core.Analysis.result) =
    Fmt.str "%a" Core.Graph.pp r.Core.Analysis.solver.Core.Solver.graph
  in
  let report (r : Core.Analysis.result) =
    Core.Report.json_of_result ~timing:false ~solver_stats:false ~name:"p" r
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun id ->
          List.iter
            (fun engine ->
              let label =
                Printf.sprintf "%s/%s/%s" name id
                  (Core.Solver.engine_name engine)
              in
              let solve prog =
                Core.Analysis.run ~engine ~strategy:(strategy id) prog
              in
              let prog = compile src in
              let r1 = solve prog in
              intern_unrelated ();
              let r2 = solve prog in
              intern_unrelated ();
              let r3 = solve (compile src) in
              Alcotest.(check bool) (label ^ ": same graph") true
                (Core.Graph.equal r1.Core.Analysis.solver.Core.Solver.graph
                   r2.Core.Analysis.solver.Core.Solver.graph);
              List.iter
                (fun (what, r) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: report (%s)" label what)
                    (report r1) (report r);
                  Alcotest.(check string)
                    (Printf.sprintf "%s: points-to (%s)" label what)
                    (points_to r1) (points_to r))
                [ ("re-solve", r2); ("recompile", r3) ])
            [ `Delta; `Delta_nocycle ])
        [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ])
    programs

let suite =
  [
    tc "identical back-to-back runs" test_identical_reruns;
    tc "Diag.ctx isolation across runs" test_diag_ctx_isolation;
    tc "budget/degradation isolation across runs" test_budget_isolation;
    tc "metrics counters reset per run" test_metrics_reset;
    tc "interleaved jobs stable under process reuse" test_interleaved_jobs;
    tc "reports do not depend on cell ids" test_reports_ignore_cell_ids;
  ]
