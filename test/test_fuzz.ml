(** Fuzz smoke test: ~200 generated programs through the whole pipeline
    under tight budgets, across all four instances. Nothing may escape —
    every run must terminate with a result (possibly degraded).

    The run is deterministic: seeds are [base_seed .. base_seed+n-1]
    with a fixed default base, overridable via [STRUCTCAST_FUZZ_SEED].
    Failures print both the base seed (to re-run the whole suite
    identically in CI) and the individual failing seeds (to reproduce
    one crash with [Cgen.generate ~seed ()]). *)

open Helpers

let n_seeds = 200

let base_seed =
  match Sys.getenv_opt "STRUCTCAST_FUZZ_SEED" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          failwith (Printf.sprintf "STRUCTCAST_FUZZ_SEED: not an integer: %S" s))

let fail_with_seeds failures =
  Alcotest.failf
    "%d escaping exception(s) (base seed %d; rerun with \
     STRUCTCAST_FUZZ_SEED=%d):\n\
     %s"
    (List.length failures) base_seed base_seed
    (String.concat "\n" (List.rev failures))

let cfg =
  { Cgen.default with Cgen.n_structs = 4; n_stmts = 20; cast_rate = 0.5 }

let tight : Core.Budget.limits =
  {
    Core.Budget.max_steps = Some 500;
    timeout_s = Some 1.0;
    max_cells_per_object = Some 3;
    max_total_cells = Some 400;
  }

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]

(* After every solve — these run tight budgets, so most trip them and go
   through degradation merges (collapse merges edges onto a
   representative, then removes the fine-grained sources) — the graph's
   bookkeeping must still audit clean (the edge_count counter equals the
   summed per-source set sizes and the per-object index is exact), and
   so must the copy lists (no intra-class copy edge at the fixpoint,
   every list keyed by a class representative). *)
let check_bookkeeping ~seed ~id failures (r : Core.Analysis.result) =
  ignore r.Core.Analysis.metrics;
  match audit r.Core.Analysis.solver with
  | None -> ()
  | Some msg ->
      failures := Printf.sprintf "seed %d / %s: %s" seed id msg :: !failures

let test_generated_programs () =
  let failures = ref [] in
  for i = 0 to n_seeds - 1 do
    let seed = base_seed + i in
    let src = Cgen.generate ~cfg ~seed () in
    List.iter
      (fun id ->
        match
          Core.Analysis.run_source ~budget:tight ~strategy:(strategy id)
            ~file:(Printf.sprintf "<fuzz-%d>" seed)
            src
        with
        | r -> check_bookkeeping ~seed ~id failures r
        | exception e ->
            failures :=
              Printf.sprintf "seed %d / %s: %s" seed id (Printexc.to_string e)
              :: !failures)
      all_ids
  done;
  if !failures <> [] then fail_with_seeds !failures

let test_generated_with_calls () =
  let cfg = { cfg with Cgen.with_calls = true; n_stmts = 15 } in
  let failures = ref [] in
  for i = 0 to 49 do
    let seed = base_seed + i in
    let src = Cgen.generate ~cfg ~seed () in
    List.iter
      (fun id ->
        match
          Core.Analysis.run_source ~budget:tight ~strategy:(strategy id)
            ~file:(Printf.sprintf "<fuzz-calls-%d>" seed)
            src
        with
        | r -> check_bookkeeping ~seed ~id failures r
        | exception e ->
            failures :=
              Printf.sprintf "seed %d / %s: %s" seed id (Printexc.to_string e)
              :: !failures)
      all_ids
  done;
  if !failures <> [] then fail_with_seeds !failures

(* Truncated generated programs exercise the recovering parser: the only
   acceptable outcomes are a (possibly partial) result or a recorded
   diagnostic — never an escaping exception. *)
let test_truncated_inputs_recover () =
  let failures = ref [] in
  for i = 0 to 49 do
    let seed = base_seed + i in
    let src = Cgen.generate ~cfg ~seed () in
    let cut = String.length src * (1 + (seed mod 3)) / 4 in
    let src = String.sub src 0 cut in
    let diags = Cfront.Diag.create () in
    (match
       Core.Analysis.run_source ~budget:tight ~diags
         ~strategy:(strategy "cis")
         ~file:(Printf.sprintf "<fuzz-cut-%d>" seed)
         src
     with
    | r -> ignore r.Core.Analysis.metrics
    | exception Cfront.Diag.Error _ ->
        (* a fatal front-end error (e.g. the diagnostics cap) is fine *)
        ()
    | exception e ->
        failures :=
          Printf.sprintf "seed %d: %s" seed (Printexc.to_string e)
          :: !failures);
    ignore (Cfront.Diag.diagnostics diags)
  done;
  if !failures <> [] then fail_with_seeds !failures

(* Random edit scripts drive the incremental-vs-scratch differential
   oracle: 10 generated base programs x 4 chained single-statement edits
   x 4 instances = 160 warm solves, each of which must reach exactly the
   fixpoint a from-scratch solve of the edited program reaches
   ({!Core.Graph.equal} plus clean graph and copy-list audits). Fallbacks to
   scratch are legal — the cascade budget is policy — but trivially
   satisfy the oracle, so we also require that some edits warm-start. *)
let test_random_edit_scripts () =
  let failures = ref [] in
  let warms = ref 0 in
  for i = 0 to 9 do
    let seed = base_seed + i in
    let cfg = { cfg with Cgen.n_stmts = 25 } in
    let src = Cgen.generate ~cfg ~seed () in
    List.iter
      (fun id ->
        match
          Norm.Lower.compile ~file:(Printf.sprintf "<fuzz-edit-%d>" seed) src
        with
        | exception e ->
            failures :=
              Printf.sprintf "seed %d / %s: compile: %s" seed id
                (Printexc.to_string e)
              :: !failures
        | base -> (
            let rand = Random.State.make [| base_seed; seed; 17 |] in
            match
              let t =
                ref
                  (Core.Solver.run ~track:true ~strategy:(strategy id) base)
              in
              for _edit = 1 to 4 do
                match Incr.Edit.random_op ~rand !t.Core.Solver.prog with
                | None -> ()
                | Some op ->
                    let edited = Incr.Edit.apply !t.Core.Solver.prog [ op ] in
                    let t', st = Incr.Engine.reanalyze !t edited in
                    t := t';
                    if not st.Incr.Engine.fallback then incr warms;
                    let scratch =
                      Core.Solver.run ~strategy:(strategy id)
                        !t.Core.Solver.prog
                    in
                    if
                      not
                        (Core.Graph.equal !t.Core.Solver.graph
                           scratch.Core.Solver.graph)
                    then
                      failures :=
                        Printf.sprintf
                          "seed %d / %s: warm <> scratch after [%s]" seed id
                          (Format.asprintf "%a" Incr.Edit.pp_op op)
                        :: !failures;
                    match audit !t with
                    | Some msg ->
                        failures :=
                          Printf.sprintf "seed %d / %s: %s" seed id msg
                          :: !failures
                    | None -> ()
              done
            with
            | () -> ()
            | exception e ->
                failures :=
                  Printf.sprintf "seed %d / %s: %s" seed id
                    (Printexc.to_string e)
                  :: !failures))
      all_ids
  done;
  if !warms = 0 then
    failures := "no edit script warm-started (all fell back)" :: !failures;
  if !failures <> [] then fail_with_seeds !failures

let suite =
  [
    tc "200 generated programs, 4 instances, tight budgets"
      test_generated_programs;
    tc "generated programs with calls" test_generated_with_calls;
    tc "truncated inputs recover or diagnose" test_truncated_inputs_recover;
    tc "40 random edit scripts, incremental == scratch"
      test_random_edit_scripts;
  ]
