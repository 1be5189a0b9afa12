(** The benchmark corpus must compile, normalize, and analyze cleanly
    under every strategy, with no unknown external functions. *)

open Cfront
open Norm

let compile_program (p : Suite.program) : Nast.program =
  try Lower.compile ~file:p.Suite.name p.Suite.source
  with Diag.Error e ->
    Alcotest.failf "%s: %s" p.Suite.name (Fmt.str "%a" Diag.pp_payload e)

let test_compiles () =
  List.iter
    (fun p ->
      let prog = compile_program p in
      if Nast.stmt_count prog = 0 then
        Alcotest.failf "%s: no statements produced" p.Suite.name)
    Suite.programs

let test_analyzes_everywhere () =
  List.iter
    (fun p ->
      let prog = compile_program p in
      List.iter
        (fun strategy ->
          let r = Core.Analysis.run ~strategy prog in
          let m = r.Core.Analysis.metrics in
          if m.Core.Metrics.unknown_externs <> [] then
            Alcotest.failf "%s: unknown externs %s" p.Suite.name
              (String.concat ", " m.Core.Metrics.unknown_externs);
          if m.Core.Metrics.deref_sites = 0 then
            Alcotest.failf "%s: no deref sites measured" p.Suite.name)
        Core.Analysis.strategies)
    Suite.programs

let test_shape () =
  (* the corpus mirrors the paper: 8 cast-free programs, 12 with casts *)
  Alcotest.(check int) "cast-free programs" 8 (List.length Suite.non_casting);
  Alcotest.(check int) "casting programs" 12 (List.length Suite.casting)

let test_casting_flag_consistent () =
  (* programs marked cast-free must show no struct-involving type
     mismatches under Collapse-on-Cast instrumentation *)
  List.iter
    (fun p ->
      let prog = compile_program p in
      let r =
        Core.Analysis.run ~strategy:(module Core.Collapse_on_cast) prog
      in
      let f = r.Core.Analysis.metrics.Core.Metrics.figures3 in
      if
        (not p.Suite.has_struct_cast)
        && f.Core.Actx.pct_lookup_mismatch > 0.0
      then
        Alcotest.failf "%s marked cast-free but has %.1f%% lookup mismatches"
          p.Suite.name f.Core.Actx.pct_lookup_mismatch)
    Suite.programs

let test_soundness_on_corpus () =
  (* run the concrete interpreter over each corpus program and check the
     CIS instance covers every observed pointer *)
  List.iter
    (fun p ->
      let prog = compile_program p in
      let solver =
        Core.Solver.run ~strategy:(module Core.Common_init_seq) prog
      in
      let observed = Interp.Eval.run prog in
      match Interp.Oracle.uncovered solver observed with
      | [] -> ()
      | missing ->
          Alcotest.failf "%s: %d uncovered facts, e.g. %s" p.Suite.name
            (List.length missing)
            (Fmt.str "%a" Interp.Oracle.pp_observation (List.hd missing)))
    Suite.programs

(* On programs with no structure casting, all casting-aware instances
   should agree at the granularity of pointed-to base objects: every
   lookup/resolve is exact, so only the cell naming differs. *)
let test_cast_free_instances_agree () =
  let base_sets strategy prog =
    let solver = Core.Solver.run ~strategy prog in
    List.map
      (fun (_, p) ->
        Core.Metrics.expanded_pts solver p
        |> Core.Cell.Set.elements
        |> List.map (fun (c : Core.Cell.t) ->
               Cvar.qualified_name c.Core.Cell.base)
        |> List.sort_uniq compare)
      (Core.Metrics.deref_sites prog)
  in
  List.iter
    (fun p ->
      let prog = compile_program p in
      let coc = base_sets (module Core.Collapse_on_cast) prog in
      let cis = base_sets (module Core.Common_init_seq) prog in
      let off = base_sets (module Core.Offsets) prog in
      if not (coc = cis && cis = off) then
        Alcotest.failf "%s: instances disagree on a cast-free program"
          p.Suite.name)
    Suite.non_casting

(* [Metrics.summarize] measures on the solver's id sets; the reference
   here is the plain definition — per deref site, a [Cell.Set] of every
   target's [expand_for_metrics] cells. Run under the default
   arithmetic, under [`Unknown] (which makes [corrupt_derefs] count
   something) and under a budget tight enough to degrade, where the
   expansions of one collapsed object's targets overlap. *)
let reference_summary (solver : Core.Solver.t) =
  let module S = (val solver.Core.Solver.strategy : Core.Strategy.S) in
  let ctx = solver.Core.Solver.ctx in
  let sets =
    List.map
      (fun (_, p) ->
        Core.Cell.Set.fold
          (fun c acc ->
            List.fold_left
              (fun acc e -> Core.Cell.Set.add e acc)
              acc
              (S.expand_for_metrics ctx c))
          (Core.Graph.pts solver.Core.Solver.graph (S.normalize ctx p []))
          Core.Cell.Set.empty)
      (Core.Metrics.deref_sites solver.Core.Solver.prog)
  in
  let sizes = List.map Core.Cell.Set.cardinal sets in
  let n = List.length sizes in
  let avg =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int n
  in
  let corrupt =
    List.length
      (List.filter
         (Core.Cell.Set.exists (fun (c : Core.Cell.t) ->
              Cvar.equal c.Core.Cell.base solver.Core.Solver.unknown_obj))
         sets)
  in
  (n, avg, List.fold_left max 0 sizes, corrupt)

let test_summarize_matches_reference () =
  let tight =
    { Core.Budget.unlimited with Core.Budget.max_cells_per_object = Some 1 }
  in
  let corrupt_seen = ref 0 and degraded_seen = ref 0 in
  List.iter
    (fun p ->
      let prog = compile_program p in
      List.iter
        (fun strategy ->
          let module S = (val strategy : Core.Strategy.S) in
          List.iter
            (fun (mode, solver) ->
              let m = Core.Metrics.summarize solver in
              let n, avg, mx, corrupt = reference_summary solver in
              let where = Printf.sprintf "%s %s %s" p.Suite.name S.id mode in
              Alcotest.(check int) (where ^ ": deref sites") n
                m.Core.Metrics.deref_sites;
              Alcotest.(check (float 0.0)) (where ^ ": avg size") avg
                m.Core.Metrics.avg_deref_size;
              Alcotest.(check int) (where ^ ": max size") mx
                m.Core.Metrics.max_deref_size;
              Alcotest.(check int) (where ^ ": corrupt derefs") corrupt
                m.Core.Metrics.corrupt_derefs;
              corrupt_seen := !corrupt_seen + corrupt;
              if Core.Solver.degraded solver then incr degraded_seen)
            [
              ("spread", Core.Solver.run ~strategy prog);
              ("unknown", Core.Solver.run ~arith:`Unknown ~strategy prog);
              ("degraded", Core.Solver.run ~budget:tight ~strategy prog);
            ])
        Core.Analysis.strategies)
    Suite.programs;
  Alcotest.(check bool) "Unknown arithmetic corrupts some deref" true
    (!corrupt_seen > 0);
  Alcotest.(check bool) "the tight budget degrades some run" true
    (!degraded_seen > 0)

let suite =
  [
    Helpers.tc "all corpus programs compile" test_compiles;
    Helpers.tc "cast-free programs: instances agree"
      test_cast_free_instances_agree;
    Helpers.tc "all programs analyze under all strategies"
      test_analyzes_everywhere;
    Helpers.tc "corpus shape matches the paper (8 + 12)" test_shape;
    Helpers.tc "cast-free programs show no struct mismatches"
      test_casting_flag_consistent;
    Helpers.tc "CIS covers concrete execution of the corpus"
      test_soundness_on_corpus;
    Helpers.tc "Metrics.summarize equals the Cell.Set reference"
      test_summarize_matches_reference;
  ]
