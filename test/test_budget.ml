(** Resilience tests: solver budgets, graceful precision degradation,
    and front-end error recovery.

    The contract under test: tripping any budget must leave the solver
    terminating promptly with a *sound over-approximation* of the
    unbudgeted result, and the degradation must be visible in
    [result.degraded]. Front-end recovery must surface every independent
    syntax error while still analyzing the functions that parse. *)

open Cfront
open Helpers

let analyze_budgeted ?layout ~budget ~strategy:id src :
    Core.Analysis.result =
  Core.Analysis.run_source ?layout ~budget ~strategy:(strategy id)
    ~file:"<budget>" src

let limits ?max_steps ?timeout_s ?max_cells_per_object ?max_total_cells () :
    Core.Budget.limits =
  { Core.Budget.max_steps; timeout_s; max_cells_per_object; max_total_cells }

let has_reason (r : Core.Analysis.result) pred =
  List.exists
    (fun (e : Core.Budget.event) -> pred e.Core.Budget.reason)
    r.Core.Analysis.degraded

let check_degraded name (r : Core.Analysis.result) pred =
  if r.Core.Analysis.degraded = [] then
    Alcotest.failf "%s: expected a degradation event, got none" name;
  if not (has_reason r pred) then
    Alcotest.failf "%s: no event with the expected trip reason (got: %s)"
      name
      (String.concat "; "
         (List.map Core.Budget.event_to_string r.Core.Analysis.degraded))

(** [sub] must be contained in [super] — degraded results may only add
    targets, never lose them. *)
let check_subset name ~precise ~degraded =
  List.iter
    (fun b ->
      if not (List.mem b degraded) then
        Alcotest.failf "%s: degraded result lost target %s (has: %s)" name b
          (String.concat "," degraded))
    precise

(* ------------------------------------------------------------------ *)
(* Adversarial inputs                                                  *)
(* ------------------------------------------------------------------ *)

(* A self-referential cast loop: pointers into [a] are stored into [a]
   itself at scattered offsets, so the Offsets instance materializes many
   cells for one object. *)
let cast_loop_src =
  {|
    struct A { char c[64]; } a;
    char *p;
    int **q;
    int x;
    void main(void) {
      p = (char *)&a;
      p = p + 1;
      q = (int **)p;
      *q = (int *)p;
      *q = (int *)&x;
    }
  |}

(* A wide two-level struct: eight pointer leaves, each a distinct cell
   under the field-sensitive instances. *)
let deep_struct_src =
  {|
    struct L1 { int *a; int *b; };
    struct L2 { struct L1 x; struct L1 y; };
    struct L3 { struct L2 x; struct L2 y; } s;
    int v0, v1, v2, v3, v4, v5, v6, v7;
    int *out;
    void main(void) {
      s.x.x.a = &v0;
      s.x.x.b = &v1;
      s.x.y.a = &v2;
      s.x.y.b = &v3;
      s.y.x.a = &v4;
      s.y.x.b = &v5;
      s.y.y.a = &v6;
      s.y.y.b = &v7;
      out = s.x.x.a;
    }
  |}

(* Enough straight-line statements that the worklist passes the sparse
   clock-sampling threshold (every 256 steps). *)
let long_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int x;\n";
  for i = 0 to 299 do
    Buffer.add_string b (Printf.sprintf "int *p%d;\n" i)
  done;
  Buffer.add_string b "void main(void) {\n";
  for i = 0 to 299 do
    Buffer.add_string b (Printf.sprintf "  p%d = &x;\n" i)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Budget trips                                                        *)
(* ------------------------------------------------------------------ *)

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]

let test_step_budget_trips () =
  List.iter
    (fun id ->
      let r =
        analyze_budgeted ~budget:(limits ~max_steps:1 ()) ~strategy:id
          cast_loop_src
      in
      check_degraded
        (id ^ " steps")
        r
        (function Core.Budget.Steps 1 -> true | _ -> false))
    all_ids

let test_timeout_budget_trips () =
  (* a zero-second budget is over as soon as the clock is sampled *)
  let r =
    analyze_budgeted ~budget:(limits ~timeout_s:0.0 ()) ~strategy:"cis"
      long_src
  in
  check_degraded "timeout" r (function
    | Core.Budget.Timeout _ -> true
    | _ -> false)

let test_object_cell_budget_trips () =
  List.iter
    (fun id ->
      let r =
        analyze_budgeted
          ~budget:(limits ~max_cells_per_object:2 ())
          ~strategy:id deep_struct_src
      in
      check_degraded
        (id ^ " object cells")
        r
        (function Core.Budget.Object_cells 2 -> true | _ -> false);
      (* the collapsed object is named in the event *)
      let named =
        List.exists
          (fun (e : Core.Budget.event) ->
            match e.Core.Budget.obj with
            | Some v -> v.Cvar.vname = "s"
            | None -> false)
          r.Core.Analysis.degraded
      in
      Alcotest.(check bool) (id ^ ": event names s") true named)
    [ "cis"; "offsets" ]

let test_total_cell_budget_trips () =
  let r =
    analyze_budgeted ~budget:(limits ~max_total_cells:2 ()) ~strategy:"offsets"
      deep_struct_src
  in
  check_degraded "total cells" r (function
    | Core.Budget.Total_cells 2 -> true
    | _ -> false)

let test_cast_loop_terminates_under_default () =
  (* the ISSUE's acceptance check, library-level: an adversarial
     cast-heavy input finishes under the default budget *)
  List.iter
    (fun id ->
      let r =
        analyze_budgeted ~budget:Core.Budget.default ~strategy:id cast_loop_src
      in
      ignore r.Core.Analysis.metrics)
    all_ids

(* ------------------------------------------------------------------ *)
(* Degraded results are sound supersets                                *)
(* ------------------------------------------------------------------ *)

let paper_cases =
  [
    ("intro", Test_paper_examples.intro_src, "p");
    ("problem1", Test_paper_examples.problem1_src, "r");
    ("problem1-reverse", Test_paper_examples.problem1_reverse_src, "r");
  ]

let test_degraded_superset_steps () =
  List.iter
    (fun id ->
      List.iter
        (fun (name, src, var) ->
          let precise =
            target_bases
              (analyze_budgeted ~budget:Core.Budget.unlimited ~strategy:id src)
              var
          in
          let degraded =
            target_bases
              (analyze_budgeted ~budget:(limits ~max_steps:1 ()) ~strategy:id
                 src)
              var
          in
          check_subset
            (Printf.sprintf "%s/%s (steps)" id name)
            ~precise ~degraded)
        paper_cases)
    all_ids

let test_degraded_superset_object_cells () =
  List.iter
    (fun id ->
      List.iter
        (fun (name, src, var) ->
          let precise =
            target_bases
              (analyze_budgeted ~budget:Core.Budget.unlimited ~strategy:id src)
              var
          in
          let degraded =
            target_bases
              (analyze_budgeted
                 ~budget:(limits ~max_cells_per_object:1 ())
                 ~strategy:id src)
              var
          in
          check_subset
            (Printf.sprintf "%s/%s (object cells)" id name)
            ~precise ~degraded)
        paper_cases)
    all_ids

let test_deep_struct_superset () =
  (* under a tight per-object budget every leaf target must survive the
     collapse of [s] *)
  let r =
    analyze_budgeted ~budget:(limits ~max_cells_per_object:2 ())
      ~strategy:"offsets" deep_struct_src
  in
  check_subset "deep-struct out" ~precise:[ "v0" ]
    ~degraded:(target_bases r "out")

let test_unbudgeted_runs_stay_precise () =
  (* the degradation machinery must be invisible without a budget *)
  let r = analyze ~strategy:(strategy "cis") Test_paper_examples.intro_src in
  Alcotest.(check bool) "no events" true (r.Core.Analysis.degraded = []);
  check_bases r "p" [ "x" ]

(* ------------------------------------------------------------------ *)
(* Front-end error recovery                                            *)
(* ------------------------------------------------------------------ *)

let two_errors_src =
  {|
    int x;
    int *p;
    void main(void) {
      p = &x;
    }
    void bad1(void) {
      x = ;
    }
    void bad2(void) {
      p = & ;
    }
  |}

let test_parser_recovery_two_errors () =
  let diags = Diag.create () in
  let r =
    Core.Analysis.run_source ~diags ~strategy:(strategy "cis")
      ~file:"<recovery>" two_errors_src
  in
  let n = List.length (Diag.errors diags) in
  if n < 2 then
    Alcotest.failf "expected >= 2 diagnostics, got %d: %s" n
      (String.concat "; "
         (List.map
            (fun (p : Diag.payload) -> p.Diag.message)
            (Diag.diagnostics diags)));
  Alcotest.(check bool) "diags surfaced in result" true
    (List.length r.Core.Analysis.diags >= 2);
  (* the valid function still produced points-to facts *)
  check_bases r "p" [ "x" ]

let test_recovery_mid_function () =
  (* a bad statement inside a function must not take down its siblings *)
  let diags = Diag.create () in
  let src =
    {|
      int x, y;
      int *p, *q;
      void main(void) {
        p = &x;
        q = & ;
        q = &y;
      }
    |}
  in
  let r =
    Core.Analysis.run_source ~diags ~strategy:(strategy "cis")
      ~file:"<recovery>" src
  in
  Alcotest.(check bool) "an error was recorded" true (Diag.has_errors diags);
  check_bases r "p" [ "x" ];
  check_bases r "q" [ "y" ]

let test_without_ctx_still_raises () =
  (* the historical contract: no context means fail-fast *)
  match
    Core.Analysis.run_source ~strategy:(strategy "cis") ~file:"<raise>"
      two_errors_src
  with
  | exception Diag.Error _ -> ()
  | _ -> Alcotest.fail "expected Diag.Error without a diagnostics context"

let test_diag_cap_is_fatal () =
  (* the accumulating context must not grow without bound *)
  let diags = Diag.create ~max_diags:3 () in
  match
    for i = 0 to 9 do
      Diag.report diags "error %d" i
    done
  with
  | exception Diag.Error _ ->
      Alcotest.(check int) "capped" 3 (Diag.error_count diags)
  | () -> Alcotest.fail "expected the diagnostics cap to raise"

(* ------------------------------------------------------------------ *)
(* Clocks: [now] is wall time, [cpu] is CPU time                       *)
(* ------------------------------------------------------------------ *)

(* Time budgets are wall-clock deadlines. A sleep advances the wall
   clock but (nearly) no CPU time, so a CPU-clock [now] would let a
   solve that waits outlive its deadline. *)
let test_clock_split () =
  let w0 = Core.Unix_time.now () in
  let c0 = Core.Unix_time.cpu () in
  Unix.sleepf 0.06;
  let dw = Core.Unix_time.now () -. w0 in
  let dc = Core.Unix_time.cpu () -. c0 in
  if dw < 0.04 then
    Alcotest.failf "now () advanced only %.4f s across a 60 ms sleep" dw;
  if dc > 0.04 then
    Alcotest.failf "cpu () advanced %.4f s across a sleep — wall clock?" dc

let test_clock_monotone () =
  let prev = ref (Core.Unix_time.now ()) in
  for _ = 1 to 1000 do
    let t = Core.Unix_time.now () in
    if t < !prev then Alcotest.fail "now () went backwards";
    prev := t
  done

(* A ~1 ms timeout trips at a wall-clock-dependent point, so nothing
   about the result is reproducible — but the solve must still land on
   a consistent graph, not hang, and record the degradation. *)
let test_timeout_consistent () =
  let cfg =
    { Cgen.default with Cgen.n_stmts = 400; n_structs = 4; cast_rate = 0.5 }
  in
  let prog =
    Norm.Lower.compile ~file:"<timeout>" (Cgen.generate ~cfg ~seed:7 ())
  in
  let t =
    Core.Solver.run ~budget:(limits ~timeout_s:0.001 ())
      ~strategy:(strategy "offsets") prog
  in
  if Core.Solver.degradations t = [] then
    Alcotest.fail "a 1 ms timeout never tripped on a 400-statement solve";
  match Core.Graph.check_counts t.Core.Solver.graph with
  | Some msg -> Alcotest.failf "graph audit: %s" msg
  | None -> ()

let suite =
  [
    tc "step budget trips and degrades" test_step_budget_trips;
    tc "timeout budget trips and degrades" test_timeout_budget_trips;
    tc "per-object cell budget collapses the object"
      test_object_cell_budget_trips;
    tc "total cell budget degrades the run" test_total_cell_budget_trips;
    tc "adversarial cast loop terminates under default budget"
      test_cast_loop_terminates_under_default;
    tc "degraded (steps) is a superset on paper examples"
      test_degraded_superset_steps;
    tc "degraded (object cells) is a superset on paper examples"
      test_degraded_superset_object_cells;
    tc "deep struct keeps every target through collapse"
      test_deep_struct_superset;
    tc "unbudgeted runs see no degradation" test_unbudgeted_runs_stay_precise;
    tc "parser recovery reports both errors and still analyzes"
      test_parser_recovery_two_errors;
    tc "recovery inside a function body" test_recovery_mid_function;
    tc "no context means fail-fast as before" test_without_ctx_still_raises;
    tc "diagnostics cap raises instead of growing" test_diag_cap_is_fatal;
    tc "now() is wall time, cpu() is not" test_clock_split;
    tc "now() is monotone" test_clock_monotone;
    tc "timeout abort leaves a consistent graph" test_timeout_consistent;
  ]
