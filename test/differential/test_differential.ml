(** Differential property test: the three solver engines — delta
    (difference propagation with online cycle elimination),
    delta-nocycle (the ablation baseline) and the naive reference
    worklist — must produce the exact same points-to graph, edge-set equality via
    {!Core.Graph.equal}, on the whole embedded corpus and on
    fuzz-generated programs, for all four framework instances. The
    stats-free JSON rendering ([~solver_stats:false]) of each engine's
    result must agree byte-for-byte.

    Runs are unbudgeted: the engines trip budgets at different moments
    and would legitimately degrade different objects, so only
    full-precision fixpoints are comparable. Degradation × delta
    interplay is exercised separately (the fuzz suite runs tight budgets
    with the delta engine and audits the graph bookkeeping, and the
    cycle suite spans a collapse across a unification). *)

open Norm
open Helpers

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]

let base_seed =
  match Sys.getenv_opt "STRUCTCAST_FUZZ_SEED" with
  | None | Some "" -> 1
  | Some s -> int_of_string (String.trim s)

(* Solve [prog] under all three engines and compare fixpoints. Cost
   ordering is part of the contract:
   - the nocycle delta engine may not do MORE statement visits than
     naive (it re-visits strictly less: only when a consumed cell or
     subscribed object grew).
   Cycle elimination's win over delta-nocycle (no more visits, fewer
   fact reads) is asserted on workloads big enough to show it
   ([test_delta_consumes_less] and the ext-e bench gate in CI) — on a
   tiny program a collapse's one-off costs (cursor re-drains, a shared
   class waking every member's subscribers at once) can exceed what the
   cycle ever wasted by a handful of visits. *)
let check_program ~label (prog : Nast.program) =
  List.iter
    (fun id ->
      let run engine = Core.Analysis.run ~engine ~strategy:(strategy id) prog in
      let d = run `Delta and dn = run `Delta_nocycle and n = run `Naive in
      let graph (r : Core.Analysis.result) = r.Core.Analysis.solver.Core.Solver.graph in
      let check_eq ename (r : Core.Analysis.result) =
        if not (Core.Graph.equal (graph r) (graph n)) then
          Alcotest.failf "%s / %s: %s fixpoint (%d edges) <> naive (%d edges)"
            label id ename
            (Core.Graph.edge_count (graph r))
            (Core.Graph.edge_count (graph n));
        match Core.Graph.check_counts (graph r) with
        | Some msg -> Alcotest.failf "%s / %s (%s): %s" label id ename msg
        | None -> ()
      in
      check_eq "delta" d;
      check_eq "delta-nocycle" dn;
      let visits (r : Core.Analysis.result) =
        r.Core.Analysis.solver.Core.Solver.rounds
      in
      if visits dn > visits n then
        Alcotest.failf "%s / %s: delta-nocycle did %d visits, naive only %d"
          label id (visits dn) (visits n);
      (* identical fixpoint ⇒ identical stats-free report, byte for
         byte — the fields left after [~solver_stats:false] are a pure
         function of the fixpoint *)
      let json (r : Core.Analysis.result) =
        Core.Report.json_of_result ~timing:false ~solver_stats:false
          ~name:label r
      in
      let jn = json n in
      List.iter
        (fun (ename, r) ->
          let j = json r in
          if j <> jn then
            Alcotest.failf "%s / %s: %s stats-free report differs:\n%s\n%s"
              label id ename j jn)
        [ ("delta", d); ("delta-nocycle", dn) ])
    all_ids

let test_corpus () =
  List.iter
    (fun (p : Suite.program) ->
      let prog = Lower.compile ~file:p.Suite.name p.Suite.source in
      check_program ~label:p.Suite.name prog)
    Suite.programs

let test_fuzz_plain () =
  let cfg =
    { Cgen.default with Cgen.n_structs = 4; n_stmts = 40; cast_rate = 0.5 }
  in
  for i = 0 to 29 do
    let seed = base_seed + i in
    let src = Cgen.generate ~cfg ~seed () in
    let prog = Lower.compile ~file:(Printf.sprintf "<diff-%d>" seed) src in
    check_program ~label:(Printf.sprintf "seed %d" seed) prog
  done

let test_fuzz_calls () =
  let cfg =
    { Cgen.n_structs = 3; n_stmts = 25; cast_rate = 0.5; with_calls = true }
  in
  for i = 0 to 9 do
    let seed = base_seed + i in
    let src = Cgen.generate ~cfg ~seed () in
    let prog = Lower.compile ~file:(Printf.sprintf "<diffc-%d>" seed) src in
    check_program ~label:(Printf.sprintf "calls seed %d" seed) prog
  done

(* The win the delta engines exist for, asserted on a workload big
   enough to show it: fewer facts consumed than the naive full re-reads,
   and fewer again once cycle elimination is on. *)
let test_delta_consumes_less () =
  let cfg =
    { Cgen.default with Cgen.n_stmts = 200; n_structs = 4; cast_rate = 0.5 }
  in
  let src = Cgen.generate ~cfg ~seed:base_seed () in
  let prog = Lower.compile ~file:"<diff-big>" src in
  List.iter
    (fun id ->
      let run engine = Core.Solver.run ~engine ~strategy:(strategy id) prog in
      let d = run `Delta and dn = run `Delta_nocycle and n = run `Naive in
      if dn.Core.Solver.facts_consumed >= n.Core.Solver.facts_consumed then
        Alcotest.failf
          "%s: delta-nocycle consumed %d facts, naive %d — no \
           difference-propagation win"
          id dn.Core.Solver.facts_consumed n.Core.Solver.facts_consumed;
      if d.Core.Solver.facts_consumed > dn.Core.Solver.facts_consumed then
        Alcotest.failf
          "%s: cycle elimination consumed %d facts, nocycle only %d — \
           cycles cost work"
          id d.Core.Solver.facts_consumed dn.Core.Solver.facts_consumed;
      if d.Core.Solver.rounds > dn.Core.Solver.rounds then
        Alcotest.failf
          "%s: cycle elimination did %d visits, nocycle only %d" id
          d.Core.Solver.rounds dn.Core.Solver.rounds;
      (* the suffix/full ratio is the same claim per-visit *)
      if d.Core.Solver.delta_facts > d.Core.Solver.full_facts then
        Alcotest.failf "%s: delta iterated more facts than the sets held" id)
    all_ids

let suite =
  [
    tc "delta == delta-nocycle == naive on the corpus" test_corpus;
    tc "engine matrix on 30 fuzz programs" test_fuzz_plain;
    tc "engine matrix on fuzz programs with calls" test_fuzz_calls;
    tc "delta consumes strictly fewer facts" test_delta_consumes_less;
  ]
