(** Smoke tests driving the [structcast] command-line executable.

    The tests locate the built binary inside dune's sandbox (it is listed
    as a test dependency in [test/dune]) and check each subcommand and
    print mode produces plausible output and exit codes. *)

let exe = "../bin/structcast.exe"

let run_capture args : int * string =
  let cmd = Filename.quote_command exe args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, Buffer.contents buf)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_contains name out needle =
  if not (contains out needle) then
    Alcotest.failf "%s: output lacks %S:\n%s" name needle out

let test_corpus_listing () =
  let code, out = run_capture [ "corpus" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "corpus" out "anagram";
  check_contains "corpus" out "description"

let test_analyze_metrics () =
  let code, out = run_capture [ "analyze"; "bc"; "-p"; "metrics"; "-s"; "cis" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "metrics" out "avg deref pts size";
  check_contains "metrics" out "Common Initial Sequence"

let test_analyze_points_to () =
  let code, out =
    run_capture [ "analyze"; "wc"; "-p"; "points-to"; "-s"; "offsets" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "points-to" out "->"

let test_analyze_dot () =
  let code, out = run_capture [ "analyze"; "li"; "-p"; "dot" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "dot" out "digraph points_to"

let test_compare () =
  let code, out = run_capture [ "compare"; "sc" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "compare" out "Collapse Always";
  check_contains "compare" out "steensgaard"

let test_bad_strategy_fails () =
  let code, out = run_capture [ "analyze"; "bc"; "-s"; "nope" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains "error" out "unknown strategy"

let test_bad_file_fails () =
  let code, _ = run_capture [ "analyze"; "/no/such/file.c" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

(* ------------------------------------------------------------------ *)
(* Exit-code precedence: 3 internal error > 2 degraded > 1 diagnostics
   > 0 clean. Each rung of the ladder gets a dedicated input.           *)
(* ------------------------------------------------------------------ *)

let with_temp_source src f =
  let path = Filename.temp_file "structcast-cli" ".c" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [--print dot] lists edges in [Cell.compare] order (source, then
   target), never in the graph's id-table order, which follows interning
   history. The cells behind each printed name come from the same
   analysis run in process; a Cgen program's cells print under distinct
   names, which the test checks first. *)
let test_dot_edges_sorted () =
  let src =
    Cgen.generate
      ~cfg:
        { Cgen.n_stmts = 300; n_structs = 4; cast_rate = 0.3; with_calls = true }
      ~seed:2026 ()
  in
  with_temp_source src (fun path ->
      List.iter
        (fun id ->
          let code, out = run_capture [ "analyze"; path; "-p"; "dot"; "-s"; id ] in
          Alcotest.(check int) (id ^ ": exit code") 0 code;
          let r =
            Core.Analysis.run_source ~strategy:(Helpers.strategy id) ~file:path
              src
          in
          let cells = Hashtbl.create 256 in
          let name c =
            let n = Core.Cell.to_string c in
            (match Hashtbl.find_opt cells n with
            | Some c' when not (Core.Cell.equal c c') ->
                Alcotest.failf "%s: two cells print as %S" id n
            | _ -> ());
            Hashtbl.replace cells n c
          in
          Core.Graph.fold_sources r.Core.Analysis.solver.Core.Solver.graph
            (fun c s () ->
              name c;
              Core.Cell.Set.iter name s)
            ();
          let cell n =
            match Hashtbl.find_opt cells n with
            | Some c -> c
            | None -> Alcotest.failf "%s: dot names unknown cell %S" id n
          in
          let edges =
            String.split_on_char '\n' out
            |> List.filter_map (fun line ->
                   match String.split_on_char '"' line with
                   | [ "  "; a; " -> "; b; ";" ] -> Some (cell a, cell b)
                   | _ -> None)
          in
          Alcotest.(check bool) (id ^ ": edges printed") true
            (List.length edges > 100);
          let cmp (a1, a2) (b1, b2) =
            match Core.Cell.compare a1 b1 with
            | 0 -> Core.Cell.compare a2 b2
            | c -> c
          in
          let rec check_sorted = function
            | e1 :: (e2 :: _ as rest) ->
                if cmp e1 e2 >= 0 then
                  Alcotest.failf "%s: dot edge %s -> %s printed before %s -> %s"
                    id
                    (Core.Cell.to_string (fst e1))
                    (Core.Cell.to_string (snd e1))
                    (Core.Cell.to_string (fst e2))
                    (Core.Cell.to_string (snd e2));
                check_sorted rest
            | _ -> ()
          in
          check_sorted edges)
        [ "cis"; "offsets" ])

let diag_src = "int *p; int x; void main(void) { p = &x; q = 3; }"

let heavy_src =
  "struct L1 { int *a; int *b; };\n\
   struct L2 { struct L1 x; struct L1 y; };\n\
   struct L3 { struct L2 x; struct L2 y; } s;\n\
   int v0, v1, v2, v3, v4, v5, v6, v7;\n\
   void main(void) {\n\
  \  s.x.x.a = &v0; s.x.x.b = &v1; s.x.y.a = &v2; s.x.y.b = &v3;\n\
  \  s.y.x.a = &v4; s.y.x.b = &v5; s.y.y.a = &v6; s.y.y.b = &v7;\n\
   }"

let both_src = heavy_src ^ "\nint *r; void f(void) { r = s.x.x.a; q2 = 1; }"

let test_exit_clean () =
  let code, _ = run_capture [ "analyze"; "wc" ] in
  Alcotest.(check int) "clean run exits 0" 0 code

let test_exit_diagnostics () =
  with_temp_source diag_src (fun path ->
      let code, out = run_capture [ "analyze"; path ] in
      Alcotest.(check int) "diagnostics-only exits 1" 1 code;
      check_contains "diag" out "q")

let test_exit_degraded () =
  with_temp_source heavy_src (fun path ->
      let code, out =
        run_capture
          [ "analyze"; path; "-s"; "offsets"; "--max-cells-per-object"; "2" ]
      in
      Alcotest.(check int) "budget-degraded exits 2" 2 code;
      check_contains "degraded" out "degraded")

let test_exit_degraded_beats_diagnostics () =
  with_temp_source both_src (fun path ->
      let code, _ =
        run_capture
          [ "analyze"; path; "-s"; "offsets"; "--max-cells-per-object"; "2" ]
      in
      Alcotest.(check int) "degradation outranks diagnostics" 2 code)

(* Expected failures (bad input, front-end fatal) are 1, not 3: exit 3
   is reserved for exceptions escaping unexpectedly — and, fleet-wide,
   for quarantined batch jobs (tested below). *)
let test_exit_expected_failure () =
  let code, out = run_capture [ "analyze"; "/no/such/file.c" ] in
  Alcotest.(check int) "expected failure exits 1" 1 code;
  check_contains "error" out "error"

(* ------------------------------------------------------------------ *)
(* --format json                                                       *)
(* ------------------------------------------------------------------ *)

let test_json_format () =
  let code, out = run_capture [ "analyze"; "wc"; "--format"; "json" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "json" out "\"avg_deref_size\"";
  check_contains "json" out "\"strategy\"";
  check_contains "json" out "\"deref_sites\"";
  (* machine output is a single JSON object on one line *)
  let line = String.trim out in
  Alcotest.(check bool) "single line" true
    (not (String.contains line '\n'));
  Alcotest.(check bool) "object braces" true
    (String.length line > 2
    && line.[0] = '{'
    && line.[String.length line - 1] = '}')

let test_json_format_keeps_exit_code () =
  with_temp_source both_src (fun path ->
      let code, out =
        run_capture
          [
            "analyze"; path; "-s"; "offsets"; "--max-cells-per-object"; "2";
            "--format"; "json";
          ]
      in
      Alcotest.(check int) "json mode preserves exit precedence" 2 code;
      check_contains "json" out "\"degraded\"")

(* ------------------------------------------------------------------ *)
(* --store: the exit code and the stats-free bytes on a miss and a hit *)
(* ------------------------------------------------------------------ *)

(* Run [cmd] (a shell command line) with stdout and stderr captured
   apart. *)
let run_split cmd : int * string * string =
  let out = Filename.temp_file "structcast-cli" ".out" in
  let err = Filename.temp_file "structcast-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* Drop the ,"store":{...} counter block: observability, outside the
   determinism contract. *)
let strip_store json =
  let marker = ",\"store\":{" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length json then None
    else if String.sub json i m = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> json
  | Some i ->
      let close = String.index_from json (i + m) '}' in
      String.sub json 0 i
      ^ String.sub json (close + 1) (String.length json - close - 1)

let fresh_store () = Helpers.temp_dir "structcast-cli-store"

let test_store_analyze_miss_then_hit () =
  with_temp_source diag_src (fun path ->
      let store = fresh_store () in
      let cmd =
        Filename.quote_command exe
          [ "analyze"; path; "--store"; store; "--format"; "json" ]
      in
      let code1, out1, _ = run_split cmd in
      let code2, out2, _ = run_split cmd in
      Alcotest.(check int) "miss: diagnostics exit" 1 code1;
      Alcotest.(check int) "hit: same exit code" code1 code2;
      check_contains "hit" out2 "\"hits\":1";
      Alcotest.(check string) "same stats-free bytes" (strip_store out1)
        (strip_store out2))

(* --format text needs a live solver, so a --store run solves every
   time and prints exactly what plain analyze prints (the metrics'
   wall-clock time line aside), on a miss and on the repeat; the clean
   report it stores then answers a JSON request. *)
let test_store_analyze_text_is_analyze () =
  let drop_time out =
    String.split_on_char '\n' out
    |> List.filter (fun l -> not (contains l "analysis time:"))
    |> String.concat "\n"
  in
  let store = fresh_store () in
  List.iter
    (fun what ->
      let run extra =
        let code, out, _ =
          run_split
            (Filename.quote_command exe
               ([ "analyze"; "wc"; "-s"; "cis"; "--print"; what ] @ extra))
        in
        Alcotest.(check int) (what ^ ": exit code") 0 code;
        drop_time out
      in
      let plain = run [] in
      let with_store = [ "--store"; store; "--format"; "text" ] in
      Alcotest.(check string) (what ^ ": miss == analyze") plain
        (run with_store);
      Alcotest.(check string) (what ^ ": repeat == analyze") plain
        (run with_store))
    [ "points-to"; "metrics" ];
  let _, out, _ =
    run_split
      (Filename.quote_command exe
         [ "analyze"; "wc"; "-s"; "cis"; "--store"; store; "--format"; "json" ])
  in
  check_contains "json after text" out "\"hits\":1"

(* A degraded answer is never stored: the repeat solves again, exits 2
   again and prints the same budget line on stderr. *)
let test_store_analyze_degraded () =
  with_temp_source heavy_src (fun path ->
      let store = fresh_store () in
      let cmd =
        Filename.quote_command exe
          [
            "analyze"; path; "--store"; store; "--format"; "json"; "-s";
            "offsets"; "--max-cells-per-object"; "2";
          ]
      in
      let code1, out1, err1 = run_split cmd in
      let code2, out2, err2 = run_split cmd in
      Alcotest.(check int) "degraded exits 2" 2 code1;
      Alcotest.(check int) "repeat exits 2" 2 code2;
      check_contains "stderr" err1 "budget: precision degraded";
      check_contains "repeat stderr" err2 "budget: precision degraded";
      Alcotest.(check string) "same stats-free bytes" (strip_store out1)
        (strip_store out2))

let test_store_serve_miss_then_hit () =
  with_temp_source diag_src (fun path ->
      let store = fresh_store () in
      (* one request per serve process: its exit code is that job's
         degraded / diag_errors wire flags (2 / 1 / 0) *)
      let cmd =
        Printf.sprintf "echo %s | %s" (Filename.quote path)
          (Filename.quote_command exe
             [ "serve"; "--store"; store; "--workers"; "1"; "--backoff-ms"; "1" ])
      in
      let code1, out1, _ = run_split cmd in
      let code2, out2, _ = run_split cmd in
      Alcotest.(check int) "miss: diag_errors set, not degraded" 1 code1;
      Alcotest.(check int) "hit: the same flags" code1 code2;
      check_contains "hit" out2 "\"hits\":1";
      Alcotest.(check string) "same stats-free bytes" (strip_store out1)
        (strip_store out2))

(* Two forked workers write the same snapshot and record into one store
   at once: each writes through its own temp, and neither's open-time
   sweep removes the other's in-flight temp, so no write fails. The race
   window is a few milliseconds, hence several fresh stores. *)
let test_store_serve_two_workers () =
  with_temp_source "int x; int *p; void main(void) { p = &x; }" (fun path ->
      for _ = 1 to 5 do
        let store = fresh_store () in
        let cmd =
          Printf.sprintf "printf '%%s\\n' %s %s | %s" (Filename.quote path)
            (Filename.quote path)
            (Filename.quote_command exe
               [ "serve"; "--store"; store; "--workers"; "2" ])
        in
        let code, out, _ = run_split cmd in
        Alcotest.(check int) "serve exits clean" 0 code;
        let answers =
          List.filter
            (fun l -> contains l "\"id\":\"job")
            (String.split_on_char '\n' out)
        in
        Alcotest.(check int) "both jobs answered" 2 (List.length answers);
        List.iter
          (fun l ->
            if not (contains l "\"write_failures\":0}") then
              Alcotest.failf "a write failed:\n%s" out)
          answers
      done)

let test_store_faults_help () =
  let code, out, err =
    run_split (Filename.quote_command exe [ "analyze"; "--help=plain" ])
  in
  Alcotest.(check int) "help exits 0" 0 code;
  Alcotest.(check bool) "no cmdliner error on stderr" false
    (contains err "cmdliner error");
  check_contains "help" out "shortwrite@2"

(* ------------------------------------------------------------------ *)
(* batch / serve                                                       *)
(* ------------------------------------------------------------------ *)

let test_batch_smoke () =
  let code, out =
    run_capture [ "batch"; "wc"; "anagram"; "--backoff-ms"; "1" ]
  in
  Alcotest.(check int) "clean batch exits 0" 0 code;
  check_contains "batch" out "\"id\":\"job1\"";
  check_contains "batch" out "\"id\":\"job2\"";
  check_contains "batch" out "\"status\":\"done\"";
  check_contains "batch" out "\"breaker_skips\""

let test_batch_crash_fault_exits_3 () =
  let code, out =
    run_capture
      [ "batch"; "wc"; "--backoff-ms"; "1"; "--faults"; "crash@job1" ]
  in
  Alcotest.(check int) "quarantine exits 3" 3 code;
  check_contains "batch" out "\"status\":\"quarantined\""

let test_serve_smoke () =
  let cmd =
    Printf.sprintf "printf 'wc\\nanagram cis\\n' | %s serve --backoff-ms 1 2>&1"
      (Filename.quote exe)
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with Unix.WEXITED n -> n | _ -> -1
  in
  let out = Buffer.contents buf in
  Alcotest.(check int) "serve exits clean" 0 code;
  check_contains "serve" out "\"id\":\"job1\"";
  check_contains "serve" out "\"id\":\"job2\"";
  check_contains "serve" out "\"status\":\"done\""

(* The index just past the first [marker] in [s]; fails the test when
   there is none. *)
let after_marker s marker =
  let n = String.length marker in
  let rec find i =
    if i + n > String.length s then
      Alcotest.failf "no %s in:\n%s" marker s
    else if String.sub s i n = marker then i + n
    else find (i + 1)
  in
  find 0

(* The number that follows [marker] in [s]. *)
let number_after fmt s marker =
  let at = after_marker s marker in
  Scanf.sscanf (String.sub s at (String.length s - at)) fmt Fun.id

(* [reanalyze] times the edit on the wall clock, and only the edit: the
   base solve used to be counted as well, which does not fit inside the
   wall time of the whole command. *)
let test_reanalyze_time_is_wall () =
  let t0 = Unix.gettimeofday () in
  let code, out, _ =
    run_split
      (Filename.quote_command exe
         [ "reanalyze"; "li"; "li"; "--format"; "json" ])
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "exit code" 0 code;
  let time_s = number_after "%f" out "\"time_s\":" in
  if time_s > wall then
    Alcotest.failf "time_s %.6f exceeds the command's wall time %.6f" time_s
      wall

(* The engine table has no [summary] entry (that engine was removed):
   naming it is a cmdliner usage error that lists the accepted engines,
   raised before the store is opened, so DIR is never created. *)
let test_store_removed_engine_li () =
  let store = fresh_store () in
  let code, _, err =
    run_split
      (Filename.quote_command exe
         [ "analyze"; "li"; "--engine"; "summary"; "--store"; store ])
  in
  Alcotest.(check int) "usage error" 124 code;
  check_contains "accepted engines listed" err "delta-nocycle";
  Alcotest.(check bool) "store never created" false (Sys.file_exists store)

(* Every command that takes --engine checks it against the same table:
   an unknown name, the removed [summary] included, exits 124 with the
   accepted values instead of running with some other engine. *)
let test_unknown_engine_usage_error () =
  List.iter
    (fun (label, args) ->
      let code, _, err =
        run_split
          (Printf.sprintf "echo | %s" (Filename.quote_command exe args))
      in
      Alcotest.(check int) (label ^ " exits 124") 124 code;
      check_contains label err "delta-nocycle")
    [
      ("analyze bogus", [ "analyze"; "wc"; "--engine"; "bogus" ]);
      ("analyze summary", [ "analyze"; "wc"; "--engine"; "summary" ]);
      ("reanalyze", [ "reanalyze"; "wc"; "wc"; "--engine"; "summary" ]);
      ("watch", [ "watch"; "wc"; "--engine"; "summary" ]);
      ("batch", [ "batch"; "wc"; "--engine"; "summary" ]);
      ("serve", [ "serve"; "--engine"; "summary" ]);
    ]

(* A serve worker solves with the engine analyze uses: the full report,
   solver stats included, matches [analyze --format json] of the same
   input once analyze's trailing [time_s] field is dropped (serve renders
   without timing). Visits, copy edges and cycles are schedule-dependent
   counters, so a worker that widened to another engine would show up
   here. *)
let test_serve_worker_engine_is_analyze () =
  let _, analyzed, _ =
    run_split (Filename.quote_command exe [ "analyze"; "li"; "--format"; "json" ])
  in
  let code, served, _ =
    run_split
      (Printf.sprintf "echo li | %s"
         (Filename.quote_command exe [ "serve"; "--workers"; "1" ]))
  in
  Alcotest.(check int) "serve exits clean" 0 code;
  let at = after_marker served "\"result\":" in
  (* the result object runs to the line's closing brace *)
  let line_end = String.index_from served at '\n' in
  let result = String.sub served at (line_end - at - 1) in
  let time_field = ",\"time_s\":" in
  let time_at = after_marker analyzed time_field - String.length time_field in
  Alcotest.(check string) "same report, solver stats included"
    (String.sub analyzed 0 time_at ^ "}")
    result

(* The naive engine is a scratch-only oracle: its retraction kept stale
   facts on this five-statement program (12 edges warm against 8 from
   scratch under collapse-always). reanalyze and watch refuse it as a
   usage error; the delta engines answer the edit correctly. *)
let naive_retraction_base =
  "struct G0 { int f0; int * f1; int f2; };\n\
   struct G2 { int f0; struct G0 f1; };\n\
   struct G3 { int f0; char f1; int f2; int * f3; char f4; };\n\
   double d0; struct G2 g2_a; struct G2 g2_b; struct G3 g3_b;\n\
   void main(void) {\n\
  \  g3_b = *(struct G3 *)&d0;\n\
  \  d0 = *(double *)&g2_a.f1;\n\
  \  *g3_b.f3 = g2_b.f1.f0;\n\
  \  g2_b.f1.f1 = (int *)(&g2_a.f0);\n"

let test_naive_refused_warm () =
  let close = "}\n" in
  let removed = "  g2_a.f1 = *(struct G0 *)&g2_b;\n" in
  with_temp_source (naive_retraction_base ^ removed ^ close) (fun base ->
      with_temp_source (naive_retraction_base ^ close) (fun edited ->
          let ca = [ "-s"; "collapse-always"; "--format"; "json" ] in
          let code, out =
            run_capture ([ "reanalyze"; base; edited; "--engine"; "naive" ] @ ca)
          in
          Alcotest.(check int) "reanalyze refuses naive" 124 code;
          check_contains "reanalyze" out "scratch-only oracle";
          let code, _, err =
            run_split
              (Printf.sprintf "echo | %s"
                 (Filename.quote_command exe
                    [ "watch"; base; "--engine"; "naive" ]))
          in
          Alcotest.(check int) "watch refuses naive" 124 code;
          check_contains "watch" err "scratch-only oracle";
          let edges args =
            let _, out = run_capture (args @ ca) in
            number_after "%d" out "\"total_edges\":"
          in
          let scratch = edges [ "analyze"; edited ] in
          Alcotest.(check int) "scratch edges" 8 scratch;
          List.iter
            (fun engine ->
              Alcotest.(check int) (engine ^ " warm = scratch") scratch
                (edges [ "reanalyze"; base; edited; "--engine"; engine ]))
            [ "delta"; "delta-nocycle" ]))

let suite =
  if Sys.file_exists exe then
    [
      Helpers.tc "corpus listing" test_corpus_listing;
      Helpers.tc "analyze --print metrics" test_analyze_metrics;
      Helpers.tc "analyze --print points-to" test_analyze_points_to;
      Helpers.tc "analyze --print dot" test_analyze_dot;
      Helpers.tc "compare" test_compare;
      Helpers.tc "unknown strategy fails" test_bad_strategy_fails;
      Helpers.tc "missing file fails" test_bad_file_fails;
      Helpers.tc "exit 0: clean" test_exit_clean;
      Helpers.tc "exit 1: diagnostics only" test_exit_diagnostics;
      Helpers.tc "exit 2: budget-degraded" test_exit_degraded;
      Helpers.tc "exit 2 beats 1 when both" test_exit_degraded_beats_diagnostics;
      Helpers.tc "exit 1: expected failure" test_exit_expected_failure;
      Helpers.tc "--format json shape" test_json_format;
      Helpers.tc "--format json keeps exit code" test_json_format_keeps_exit_code;
      Helpers.tc "batch smoke" test_batch_smoke;
      Helpers.tc "batch crash fault exits 3" test_batch_crash_fault_exits_3;
      Helpers.tc "serve smoke" test_serve_smoke;
      Helpers.tc "--store analyze: miss and hit agree"
        test_store_analyze_miss_then_hit;
      Helpers.tc "--store analyze --format text prints what analyze prints"
        test_store_analyze_text_is_analyze;
      Helpers.tc "--store analyze: degraded is reported, never stored"
        test_store_analyze_degraded;
      Helpers.tc "--store serve: miss and hit agree"
        test_store_serve_miss_then_hit;
      Helpers.tc "--store-faults help renders" test_store_faults_help;
      Helpers.tc "--store serve: two workers share one store"
        test_store_serve_two_workers;
      Helpers.tc "reanalyze times the edit on the wall clock"
        test_reanalyze_time_is_wall;
      Helpers.tc "--store analyze li --engine summary: usage error"
        test_store_removed_engine_li;
      Helpers.tc "unknown engines are usage errors on every command"
        test_unknown_engine_usage_error;
      Helpers.tc "serve worker answers like analyze, solver stats included"
        test_serve_worker_engine_is_analyze;
      Helpers.tc "reanalyze/watch refuse the naive engine"
        test_naive_refused_warm;
      Helpers.tc "--print dot edges in cell order" test_dot_edges_sorted;
    ]
  else
    [ Alcotest.test_case "cli binary not built; skipped" `Quick (fun () -> ()) ]
