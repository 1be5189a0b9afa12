(** Fault-injection tests for the crash-contained supervisor.

    Containment is proved, not hoped for: workers are told to crash,
    hang, exit, raise, and alloc-bomb on exact (job, attempt) pairs, and
    the tests assert the supervisor survives, retries per policy
    (backoff + degradation-rung escalation), and quarantines rather than
    loops. The kill -9 test drives the real binary: SIGKILL the
    supervisor mid-batch, resume from the journal, and require the final
    output to be byte-identical to an uninterrupted run. *)

open Server

let cfg ?(workers = 2) ?(attempts = 3) ?(job_timeout_ms = 5_000)
    ?(faults = Faults.none) ?journal ?(resume = false)
    ?(admission = Admission.default) ?worker_max_rss_mb
    ?(drain_grace_ms = 5_000) () : Supervisor.config =
  {
    Supervisor.workers;
    max_attempts = attempts;
    job_timeout_s = float_of_int job_timeout_ms /. 1000.;
    backoff_base_ms = 1;
    faults;
    journal_path = journal;
    resume;
    admission;
    worker_max_rss_mb;
    drain_grace_s = float_of_int drain_grace_ms /. 1000.;
    shutdown_grace_s = 2.0;
  }

let adm ?max_pending ?(high = 0) ?(low = 0) ?(ticks = 4) () :
    Admission.config =
  {
    Admission.max_pending;
    high_watermark = high;
    low_watermark = low;
    brownout_ticks = ticks;
    max_rung = Job.max_rung;
  }

let jobs_of specs = List.mapi (fun i s -> Job.make ~idx:(i + 1) s) specs

let plan s =
  match Faults.parse s with Ok p -> p | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let outcome_done = function Supervisor.Done _ -> true | _ -> false

let find_outcome results id =
  match
    List.find_opt (fun ((j : Job.t), _) -> j.Job.id = id) results
  with
  | Some (_, o) -> o
  | None -> Alcotest.failf "no outcome for %s" id

let temp_path name =
  let p = Filename.temp_file "structcast-test" name in
  Sys.remove p;
  p

let file_contains path needle =
  Sys.file_exists path
  &&
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  contains s needle

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let test_clean_batch () =
  let results, fleet =
    Supervisor.run_batch (cfg ()) (jobs_of [ "wc"; "anagram"; "bc"; "li" ])
  in
  Alcotest.(check int) "all jobs have outcomes" 4 (List.length results);
  Alcotest.(check bool) "all done" true
    (List.for_all (fun (_, o) -> outcome_done o) results);
  Alcotest.(check int) "fleet completed" 4 fleet.Core.Metrics.completed;
  Alcotest.(check int) "no crashes" 0 fleet.Core.Metrics.crashes;
  (* submission order is preserved in results *)
  Alcotest.(check (list string)) "order" [ "job1"; "job2"; "job3"; "job4" ]
    (List.map (fun ((j : Job.t), _) -> j.Job.id) results)

let test_crash_retried_then_done () =
  let results, fleet =
    Supervisor.run_batch
      (cfg ~faults:(plan "crash@job2#1") ())
      (jobs_of [ "wc"; "anagram" ])
  in
  (match find_outcome results "job2" with
  | Supervisor.Done { attempt; rung; degraded; _ } ->
      Alcotest.(check int) "second attempt" 2 attempt;
      Alcotest.(check int) "escalated one rung" 1 rung;
      Alcotest.(check bool) "rung > 0 counts as degraded" true degraded
  | _ -> Alcotest.fail "job2 should have recovered");
  Alcotest.(check int) "one crash" 1 fleet.Core.Metrics.crashes;
  Alcotest.(check int) "one retry" 1 fleet.Core.Metrics.retries;
  Alcotest.(check int) "max rung" 1 fleet.Core.Metrics.max_rung;
  Alcotest.(check bool) "job1 untouched" true
    (outcome_done (find_outcome results "job1"))

let test_crash_always_quarantines () =
  let results, fleet =
    Supervisor.run_batch
      (cfg ~faults:(plan "crash@job1") ())
      (jobs_of [ "wc"; "anagram" ])
  in
  (match find_outcome results "job1" with
  | Supervisor.Quarantined { attempts; reason; _ } ->
      Alcotest.(check int) "attempt cap honored, no looping" 3 attempts;
      Alcotest.(check bool) "reason names the signal" true
        (contains reason "SIGABRT" || contains reason "signal")
  | _ -> Alcotest.fail "job1 should be quarantined");
  Alcotest.(check int) "three crashes" 3 fleet.Core.Metrics.crashes;
  Alcotest.(check int) "quarantined" 1 fleet.Core.Metrics.quarantined;
  (* the supervisor survived and other jobs completed *)
  Alcotest.(check bool) "job2 done" true
    (outcome_done (find_outcome results "job2"))

let test_unexpected_exit_contained () =
  let _, fleet =
    Supervisor.run_batch
      (cfg ~faults:(plan "exit@job1#1") ())
      (jobs_of [ "wc" ])
  in
  Alcotest.(check int) "exit counted as crash" 1 fleet.Core.Metrics.crashes;
  Alcotest.(check int) "completed on retry" 1 fleet.Core.Metrics.completed

let test_hang_killed_and_quarantined () =
  let results, fleet =
    Supervisor.run_batch
      (cfg ~attempts:2 ~job_timeout_ms:300 ~faults:(plan "hang@job1") ())
      (jobs_of [ "wc"; "anagram" ])
  in
  (match find_outcome results "job1" with
  | Supervisor.Quarantined { reason; _ } ->
      Alcotest.(check bool) "reason says hang" true
        (contains reason "hang")
  | _ -> Alcotest.fail "hung job should be quarantined");
  Alcotest.(check int) "both attempts hung" 2 fleet.Core.Metrics.hangs;
  Alcotest.(check bool) "sibling unaffected" true
    (outcome_done (find_outcome results "job2"))

let test_raise_and_allocbomb_contained_in_worker () =
  (* these faults are caught by the worker itself: a clean error
     response, no process death *)
  let _, fleet =
    Supervisor.run_batch
      (cfg ~faults:(plan "raise@job1#1,allocbomb@job2#1") ())
      (jobs_of [ "wc"; "anagram" ])
  in
  Alcotest.(check int) "no process deaths" 0 fleet.Core.Metrics.crashes;
  Alcotest.(check int) "two clean errors" 2 fleet.Core.Metrics.job_errors;
  Alcotest.(check int) "both recovered" 2 fleet.Core.Metrics.completed

let test_malformed_input_quarantined () =
  let results, fleet =
    Supervisor.run_batch (cfg ()) (jobs_of [ "/no/such/input.c"; "wc" ])
  in
  (match find_outcome results "job1" with
  | Supervisor.Quarantined { attempts; _ } ->
      Alcotest.(check int) "retried per policy, then stopped" 3 attempts
  | _ -> Alcotest.fail "bogus input should be quarantined");
  Alcotest.(check int) "errors counted" 3 fleet.Core.Metrics.job_errors;
  Alcotest.(check bool) "supervisor alive, sibling done" true
    (outcome_done (find_outcome results "job2"))

let test_circuit_breaker () =
  (* same bad input twice: the second job must fail fast once the first
     quarantine opens the breaker, not burn its own attempts *)
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1 ())
      (jobs_of [ "/no/such/input.c"; "/no/such/input.c"; "wc" ])
  in
  Alcotest.(check int) "breaker skipped at least one dispatch" 1
    fleet.Core.Metrics.breaker_skips;
  (match find_outcome results "job2" with
  | Supervisor.Quarantined { reason; _ } ->
      Alcotest.(check bool) "reason names the breaker" true
        (contains reason "circuit breaker")
  | _ -> Alcotest.fail "job2 should be breaker-quarantined");
  Alcotest.(check bool) "good input still analyzed" true
    (outcome_done (find_outcome results "job3"))

(* ------------------------------------------------------------------ *)
(* Journal: determinism and resume                                     *)
(* ------------------------------------------------------------------ *)

let outputs results =
  List.map
    (fun (_, o) ->
      match o with
      | Supervisor.Done { output; _ } -> output
      | Supervisor.Quarantined { output; _ } -> output
      | Supervisor.Shed { output; _ } -> output)
    results

let test_journal_replay_identical () =
  let j = temp_path ".journal" in
  let specs = [ "wc"; "anagram"; "bc" ] in
  let r1, _ = Supervisor.run_batch (cfg ~journal:j ()) (jobs_of specs) in
  (* resume over a fully-finished journal replays everything *)
  let r2, fleet2 =
    Supervisor.run_batch (cfg ~journal:j ~resume:true ()) (jobs_of specs)
  in
  Alcotest.(check (list string)) "replayed outputs byte-identical"
    (outputs r1) (outputs r2);
  Alcotest.(check int) "all replayed, none re-run" 3
    fleet2.Core.Metrics.replayed;
  Alcotest.(check int) "nothing executed" 0 fleet2.Core.Metrics.completed;
  Sys.remove j

let test_journal_tolerates_torn_tail () =
  let j = temp_path ".journal" in
  let specs = [ "wc"; "anagram" ] in
  let r1, _ = Supervisor.run_batch (cfg ~journal:j ()) (jobs_of specs) in
  (* simulate a torn write: chop the file mid-last-line *)
  let len = (Unix.stat j).Unix.st_size in
  let fd = Unix.openfile j [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 7);
  Unix.close fd;
  let r2, fleet2 =
    Supervisor.run_batch (cfg ~journal:j ~resume:true ()) (jobs_of specs)
  in
  (* the torn record (job2's done line) is dropped; job2 re-runs and
     reproduces the same bytes *)
  Alcotest.(check (list string)) "same outputs after torn-tail recovery"
    (outputs r1) (outputs r2);
  Alcotest.(check int) "one job re-ran" 1 fleet2.Core.Metrics.completed;
  Sys.remove j

(* ------------------------------------------------------------------ *)
(* Overload controls: wire clamps, admission, deadlines, brownout,      *)
(* memory watchdog, drain                                               *)
(* ------------------------------------------------------------------ *)

let timeout_opt = Alcotest.(option (float 1e-9))

let test_wire_timeout_clamps () =
  (* a sub-millisecond timeout crosses the wire as 1 ms, never as
     "unlimited" (the failure mode a naive ms truncation would have) *)
  let tight =
    { Core.Budget.default with Core.Budget.timeout_s = Some 0.0004 }
  in
  let j = Job.make ~idx:1 ~budget:tight ~deadline_ms:750 "wc" in
  (match Job.of_wire (Job.to_wire j ~attempt:1 ~rung:0) with
  | Ok (j', attempt, rung) ->
      Alcotest.(check int) "attempt" 1 attempt;
      Alcotest.(check int) "rung" 0 rung;
      Alcotest.check timeout_opt "1 ms wire floor" (Some 0.001)
        j'.Job.budget.Core.Budget.timeout_s;
      Alcotest.(check (option int)) "deadline roundtrips" (Some 750)
        j'.Job.deadline_ms
  | Error e -> Alcotest.fail e);
  (* the rung-1 tight preset caps the timeout at 2 s... *)
  let ten = { Core.Budget.default with Core.Budget.timeout_s = Some 10.0 } in
  Alcotest.check timeout_opt "rung-1 caps 10 s at 2 s" (Some 2.0)
    (Job.budget_for_rung ten 1).Core.Budget.timeout_s;
  (* ...but never lengthens one already shorter *)
  let short = { Core.Budget.default with Core.Budget.timeout_s = Some 0.5 } in
  Alcotest.check timeout_opt "rung-1 keeps a shorter timeout" (Some 0.5)
    (Job.budget_for_rung short 1).Core.Budget.timeout_s

(* The engine table has no [summary] entry (that engine was removed). A
   job naming it, whether built here or decoded from a request line an
   older binary wrote, is refused by [Job.validate], and a worker handed
   one answers with an error instead of solving under another engine. *)
let test_removed_engine_refused () =
  let unknown_engine j =
    match Job.validate j with
    | Ok () -> Alcotest.fail "a summary job validated"
    | Error e ->
        if not (contains e "unknown engine summary") then
          Alcotest.failf "unexpected refusal: %s" e
  in
  let j = Job.make ~idx:1 ~engine:"summary" "wc" in
  unknown_engine j;
  Alcotest.(check bool) "no engine resolves" true (Job.engine_of j = None);
  let line =
    String.concat "\t"
      [ "2"; "job7"; "1"; "0"; "cis"; "ilp32"; "0"; "0"; "0"; "0"; ""; "0";
        "summary"; "wc" ]
  in
  (match Job.of_wire line with
  | Ok (j', _, _) ->
      Alcotest.(check string) "engine field kept" "summary" j'.Job.engine;
      unknown_engine j'
  | Error e -> Alcotest.fail e);
  match
    Worker.response_of_wire (Worker.execute j ~attempt:1 ~rung:0 ~faults:[])
  with
  | Ok (_, _, `Error m) ->
      Alcotest.(check string) "worker error" "unknown engine summary" m
  | Ok (_, _, `Ok _) -> Alcotest.fail "the worker solved a summary job"
  | Error e -> Alcotest.fail e

let shed_reason = function
  | Supervisor.Shed { reason; _ } -> reason
  | Supervisor.Done _ -> Alcotest.fail "expected shed, got done"
  | Supervisor.Quarantined _ -> Alcotest.fail "expected shed, got quarantine"

let test_admission_shed_deterministic () =
  (* one worker, queue bound 2, six jobs submitted in one burst: the
     jobs beyond capacity are shed, the same ones every run *)
  let run () =
    let results, fleet =
      Supervisor.run_batch
        (cfg ~workers:1 ~admission:(adm ~max_pending:2 ()) ())
        (jobs_of [ "wc"; "anagram"; "bc"; "li"; "wc"; "anagram" ])
    in
    let tag (j, o) =
      ( j.Job.id,
        match o with
        | Supervisor.Done _ -> "done"
        | Supervisor.Shed { output; _ } ->
            Alcotest.(check bool) "shed output is a shed record" true
              (contains output "\"status\":\"shed\"");
            "shed"
        | Supervisor.Quarantined _ -> "quarantined" )
    in
    (List.map tag results, fleet)
  in
  let tags1, fleet1 = run () in
  let tags2, _ = run () in
  Alcotest.(check (list (pair string string)))
    "shed decisions deterministic across runs" tags1 tags2;
  Alcotest.(check (list (pair string string)))
    "first two admitted, overflow shed"
    [
      ("job1", "done"); ("job2", "done"); ("job3", "shed"); ("job4", "shed");
      ("job5", "shed"); ("job6", "shed");
    ]
    tags1;
  Alcotest.(check int) "shed counter" 4 fleet1.Core.Metrics.shed;
  Alcotest.(check bool) "queue peak recorded" true
    (fleet1.Core.Metrics.queue_peak >= 2);
  Alcotest.(check bool) "latencies recorded for answered jobs" true
    (List.length fleet1.Core.Metrics.latencies_ms >= 2)

let test_deadline_expires_in_queue () =
  (* job1 occupies the only worker (burst fault holds it ~200 ms);
     job2's 50 ms deadline expires while it waits in the queue *)
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1 ~faults:(plan "burst@job1") ())
      [ Job.make ~idx:1 "wc"; Job.make ~idx:2 ~deadline_ms:50 "anagram" ]
  in
  let reason = shed_reason (find_outcome results "job2") in
  Alcotest.(check bool) "reason says expired while queued" true
    (contains reason "deadline" && contains reason "queued");
  Alcotest.(check bool) "job1 unaffected" true
    (outcome_done (find_outcome results "job1"));
  Alcotest.(check int) "deadline_expired counter" 1
    fleet.Core.Metrics.deadline_expired;
  Alcotest.(check int) "counted in shed too" 1 fleet.Core.Metrics.shed

let test_deadline_bounds_running_job () =
  (* the worker hangs (immune to the in-worker budget timeout); the
     300 ms request deadline — not the 60 s job timeout — kills it *)
  let t0 = Unix.gettimeofday () in
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1 ~job_timeout_ms:60_000 ~faults:(plan "hang@job1") ())
      [ Job.make ~idx:1 ~deadline_ms:300 "wc" ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "killed by the deadline, not the job timeout" true
    (elapsed < 10.0);
  let reason = shed_reason (find_outcome results "job1") in
  Alcotest.(check bool) "reason says expired while running" true
    (contains reason "deadline" && contains reason "running");
  Alcotest.(check int) "deadline_expired counter" 1
    fleet.Core.Metrics.deadline_expired

let test_brownout_ladder_state_machine () =
  let a =
    Admission.create
      {
        Admission.max_pending = None;
        high_watermark = 2;
        low_watermark = 1;
        brownout_ticks = 3;
        max_rung = 2;
      }
  in
  let steady = function `Steady -> true | _ -> false in
  (* pressure must be sustained: two high ticks then a calm one reset
     the streak *)
  Alcotest.(check bool) "tick 1 high" true (steady (Admission.tick a ~depth:5));
  Alcotest.(check bool) "tick 2 high" true (steady (Admission.tick a ~depth:5));
  Alcotest.(check bool) "calm tick resets" true
    (steady (Admission.tick a ~depth:0));
  Alcotest.(check int) "still rung 0" 0 (Admission.rung a);
  (* three consecutive high ticks escalate one rung at a time *)
  ignore (Admission.tick a ~depth:5);
  ignore (Admission.tick a ~depth:5);
  (match Admission.tick a ~depth:5 with
  | `Escalated 1 -> ()
  | _ -> Alcotest.fail "expected escalation to rung 1");
  ignore (Admission.tick a ~depth:5);
  ignore (Admission.tick a ~depth:5);
  (match Admission.tick a ~depth:5 with
  | `Escalated 2 -> ()
  | _ -> Alcotest.fail "expected escalation to rung 2");
  (* capped at max_rung: more pressure changes nothing *)
  ignore (Admission.tick a ~depth:9);
  ignore (Admission.tick a ~depth:9);
  Alcotest.(check bool) "capped at max rung" true
    (steady (Admission.tick a ~depth:9));
  Alcotest.(check int) "rung 2" 2 (Admission.rung a);
  (* sustained calm steps back down, also one rung at a time *)
  ignore (Admission.tick a ~depth:1);
  ignore (Admission.tick a ~depth:1);
  (match Admission.tick a ~depth:0 with
  | `Stepped_down 1 -> ()
  | _ -> Alcotest.fail "expected step down to rung 1");
  ignore (Admission.tick a ~depth:0);
  ignore (Admission.tick a ~depth:1);
  (match Admission.tick a ~depth:1 with
  | `Stepped_down 0 -> ()
  | _ -> Alcotest.fail "expected step down to rung 0");
  Alcotest.(check int) "back at rung 0" 0 (Admission.rung a)

let test_brownout_degrades_dispatches () =
  (* six slow jobs through one worker with an aggressive ladder: once
     the queue has sat above the watermark, later dispatches start at a
     brownout rung — degraded on their first attempt *)
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1
         ~admission:(adm ~high:1 ~low:0 ~ticks:1 ())
         ~faults:
           (plan
              "burst@job1,burst@job2,burst@job3,burst@job4,burst@job5,burst@job6")
         ())
      (jobs_of [ "wc"; "anagram"; "bc"; "li"; "wc"; "anagram" ])
  in
  Alcotest.(check int) "all answered" 6 (List.length results);
  Alcotest.(check bool) "ladder escalated" true
    (fleet.Core.Metrics.brownout_escalations >= 1);
  Alcotest.(check bool) "max brownout rung recorded" true
    (fleet.Core.Metrics.brownout_max_rung >= 1);
  let first_attempt_degraded =
    List.exists
      (fun (_, o) ->
        match o with
        | Supervisor.Done { attempt = 1; rung; _ } -> rung > 0
        | _ -> false)
      results
  in
  Alcotest.(check bool) "some job ran degraded on its first attempt" true
    first_attempt_degraded

let test_rss_watchdog_kills_and_retries () =
  (* attempt 1 allocates and holds ~48 MB then spins; the watchdog must
     SIGKILL it at the 40 MB cap, and the retry (no fault) succeeds *)
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1 ~faults:(plan "allochold@job1#1") ~worker_max_rss_mb:40
         ~job_timeout_ms:60_000 ())
      (jobs_of [ "wc" ])
  in
  (match find_outcome results "job1" with
  | Supervisor.Done { attempt; _ } ->
      Alcotest.(check int) "recovered on attempt 2" 2 attempt
  | _ -> Alcotest.fail "job1 should recover after the RSS kill");
  Alcotest.(check bool) "rss kill counted" true
    (fleet.Core.Metrics.rss_kills >= 1)

let test_slowread_response_reassembled () =
  (* the worker dribbles its response a few bytes at a time; the
     supervisor's buffered reader must reassemble it, not truncate *)
  let results, fleet =
    Supervisor.run_batch
      (cfg ~workers:1 ~faults:(plan "slowread@job1") ())
      (jobs_of [ "wc" ])
  in
  Alcotest.(check bool) "job done despite dribbled response" true
    (outcome_done (find_outcome results "job1"));
  Alcotest.(check int) "no crashes" 0 fleet.Core.Metrics.crashes

let test_drain_completes_inflight_sheds_pending () =
  let j = temp_path ".journal" in
  let c = cfg ~workers:1 ~faults:(plan "burst@job1") ~journal:j () in
  let t = Supervisor.create c in
  Supervisor.submit t (Job.make ~idx:1 "wc");
  Supervisor.submit t (Job.make ~idx:2 "anagram");
  (* one step dispatches job1; job2 is still queued when drain hits *)
  ignore (Supervisor.step t);
  Supervisor.request_drain t;
  Supervisor.drain t;
  let results = Supervisor.results t in
  let fleet = Supervisor.fleet t in
  Supervisor.shutdown t;
  Alcotest.(check bool) "in-flight job finished" true
    (outcome_done (find_outcome results "job1"));
  let reason = shed_reason (find_outcome results "job2") in
  Alcotest.(check bool) "queued job shed by the drain" true
    (contains reason "drain");
  Alcotest.(check int) "one shed" 1 fleet.Core.Metrics.shed;
  Alcotest.(check bool) "drain marker journaled" true
    (file_contains j "\tdraining");
  Alcotest.(check bool) "drained summary journaled" true
    (file_contains j "\tdrained\t");
  Alcotest.(check bool) "shed journaled, not dropped" true
    (file_contains j "\tshed\tjob2\t");
  Sys.remove j

let test_drain_deadline_cuts_off_hung_inflight () =
  let t0 = Unix.gettimeofday () in
  let c =
    cfg ~workers:1 ~faults:(plan "hang@job1") ~job_timeout_ms:60_000
      ~drain_grace_ms:300 ()
  in
  let t = Supervisor.create c in
  Supervisor.submit t (Job.make ~idx:1 "wc");
  ignore (Supervisor.step t);
  Supervisor.request_drain t;
  Supervisor.drain t;
  let results = Supervisor.results t in
  let fleet = Supervisor.fleet t in
  Supervisor.shutdown t;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "drain bounded by its grace period" true
    (elapsed < 10.0);
  let reason = shed_reason (find_outcome results "job1") in
  Alcotest.(check bool) "cut-off job shed with a drain reason" true
    (contains reason "drain");
  Alcotest.(check int) "drain_incomplete counted" 1
    fleet.Core.Metrics.drain_incomplete

let test_shed_replayed_byte_identical () =
  let j = temp_path ".journal" in
  let specs = [ "wc"; "anagram"; "bc" ] in
  (* queue bound 1: job1 runs, job2 and job3 are shed — and journaled *)
  let r1, fleet1 =
    Supervisor.run_batch
      (cfg ~workers:1 ~admission:(adm ~max_pending:1 ()) ~journal:j ())
      (jobs_of specs)
  in
  Alcotest.(check int) "two shed" 2 fleet1.Core.Metrics.shed;
  let r2, fleet2 =
    Supervisor.run_batch
      (cfg ~workers:1 ~admission:(adm ~max_pending:1 ()) ~journal:j
         ~resume:true ())
      (jobs_of specs)
  in
  Alcotest.(check (list string)) "shed outcomes replay byte-identically"
    (outputs r1) (outputs r2);
  Alcotest.(check int) "all three replayed" 3 fleet2.Core.Metrics.replayed;
  Alcotest.(check int) "nothing re-ran" 0 fleet2.Core.Metrics.completed;
  Alcotest.(check int) "replayed sheds not double-counted" 0
    fleet2.Core.Metrics.shed;
  Sys.remove j

let test_percentiles () =
  let xs = [ 50.0; 10.0; 40.0; 30.0; 20.0 ] in
  Alcotest.(check (float 1e-9)) "p50 nearest rank" 30.0
    (Core.Metrics.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p99 is the max here" 50.0
    (Core.Metrics.percentile xs 99.0);
  Alcotest.(check (float 1e-9)) "empty sample" 0.0
    (Core.Metrics.percentile [] 50.0)

(* ------------------------------------------------------------------ *)
(* kill -9 the real supervisor mid-batch, resume, compare               *)
(* ------------------------------------------------------------------ *)

let exe = "../bin/structcast.exe"

let batch_args ?faults ?(timeout = "60000") ~journal () =
  [
    "batch"; "wc"; "anagram"; "bc"; "li"; "--workers"; "2"; "--backoff-ms";
    "1"; "--job-timeout-ms"; timeout; "--journal"; journal;
  ]
  @ (match faults with Some f -> [ "--faults"; f ] | None -> [])

let run_to_string args =
  let cmd = Filename.quote_command exe args in
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Buffer.contents buf

let test_kill9_resume_byte_identical () =
  let journal = temp_path ".journal" in
  let out = temp_path ".out" in
  (* interrupted run: job4 hangs forever (job timeout far away), so the
     batch is guaranteed to be mid-flight when we SIGKILL *)
  let out_fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.of_list (exe :: batch_args ~faults:"hang@job4" ~journal ())
  in
  let pid = Unix.create_process exe argv Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  (* wait until the first three jobs are journaled as done *)
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait_done () =
    if
      file_contains journal "\tdone\tjob3\t"
      && file_contains journal "\tdone\tjob1\t"
      && file_contains journal "\tdone\tjob2\t"
    then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "interrupted batch never reached job3"
    else begin
      Unix.sleepf 0.05;
      wait_done ()
    end
  in
  wait_done ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (* resume (no faults): only job4 should run *)
  let resumed = run_to_string (batch_args ~journal () @ [ "--resume" ]) in
  (* uninterrupted reference run, fresh journal *)
  let journal2 = temp_path ".journal" in
  let fresh = run_to_string (batch_args ~journal:journal2 ()) in
  Alcotest.(check string) "resumed output byte-identical to uninterrupted"
    fresh resumed;
  (* and the journal proves jobs 1-3 were replayed, not re-run: exactly
     one running record each *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " has a done record")
        true
        (file_contains journal ("\tdone\t" ^ id ^ "\t")))
    [ "job1"; "job2"; "job3"; "job4" ];
  Sys.remove journal;
  Sys.remove journal2;
  Sys.remove out

(* ------------------------------------------------------------------ *)
(* The real binary under signals: SIGTERM drain, kill -9 mid-drain,     *)
(* watch EOF                                                            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let count_occurrences s sub =
  let n = String.length sub in
  let rec go i acc =
    if n = 0 || i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let wait_until ?(timeout = 20.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let spawn_serve args =
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let argv = Array.of_list (exe :: "serve" :: args) in
  let pid = Unix.create_process exe argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  (pid, in_w, out_r)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let slurp_fd fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let terminal_records jtext id =
  count_occurrences jtext ("\tdone\t" ^ id ^ "\t")
  + count_occurrences jtext ("\tshed\t" ^ id ^ "\t")
  + count_occurrences jtext ("\tquarantined\t" ^ id ^ "\t")

let test_serve_sigterm_drains_exit_5 () =
  let journal = temp_path ".journal" in
  let pid, in_w, out_r =
    spawn_serve
      [
        "--workers"; "1"; "--journal"; journal; "--faults"; "burst@job1";
        "--backoff-ms"; "1";
      ]
  in
  write_all in_w "wc\nanagram cis\n";
  wait_until "serve never started job1" (fun () ->
      file_contains journal "\trunning\tjob1\t");
  Unix.kill pid Sys.sigterm;
  let out = slurp_fd out_r in
  Unix.close out_r;
  Unix.close in_w;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 5 -> ()
  | Unix.WEXITED n ->
      Alcotest.failf "drained serve should exit 5, exited %d" n
  | _ -> Alcotest.fail "drained serve did not exit normally");
  let jtext = read_file journal in
  Alcotest.(check bool) "drain marker journaled" true
    (contains jtext "\tdraining");
  (* zero lost requests: each submitted request has exactly one
     journaled terminal record, drained or not *)
  List.iter
    (fun id ->
      Alcotest.(check int)
        (id ^ " has exactly one terminal record")
        1
        (terminal_records jtext id))
    [ "job1"; "job2" ];
  Alcotest.(check bool) "the in-flight response was printed" true
    (contains out "\"id\":\"job1\"");
  Sys.remove journal

let test_kill9_mid_drain_resume_byte_identical () =
  let journal = temp_path ".journal" in
  (* job1 hangs and the drain deadline is far away, so after SIGTERM the
     process sits mid-drain (queued jobs shed, job1 still in flight) —
     that is when we SIGKILL it *)
  let pid, in_w, out_r =
    spawn_serve
      [
        "--workers"; "1"; "--journal"; journal; "--faults"; "hang@job1";
        "--job-timeout-ms"; "60000"; "--drain-deadline-ms"; "60000";
        "--backoff-ms"; "1";
      ]
  in
  write_all in_w "wc\nanagram\nbc\n";
  wait_until "serve never started job1" (fun () ->
      file_contains journal "\trunning\tjob1\t");
  Unix.kill pid Sys.sigterm;
  wait_until "drain never shed the queued jobs" (fun () ->
      file_contains journal "\tshed\tjob3\t");
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Unix.close in_w;
  Unix.close out_r;
  (* resume over the same journal (no fault this time): the sheds replay
     byte-for-byte, only the unfinished job re-runs — and doing it twice
     must give identical bytes *)
  let resume_args =
    [
      "batch"; "wc"; "anagram"; "bc"; "--workers"; "1"; "--backoff-ms"; "1";
      "--journal"; journal; "--resume";
    ]
  in
  let r1 = run_to_string resume_args in
  let r2 = run_to_string resume_args in
  Alcotest.(check string) "resume after kill -9 mid-drain is deterministic"
    r1 r2;
  Alcotest.(check bool) "unfinished job re-ran" true
    (contains r1 "\"id\":\"job1\"");
  Alcotest.(check bool) "shed outcomes replayed" true
    (contains r1 "\"id\":\"job2\"" && contains r1 "\"id\":\"job3\""
    && contains r1 "\"status\":\"shed\"");
  let jtext = read_file journal in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " reached a terminal record")
        true
        (terminal_records jtext id >= 1))
    [ "job1"; "job2"; "job3" ];
  Sys.remove journal

let test_watch_eof_writes_final_record () =
  let journal = temp_path ".journal" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = [| exe; "watch"; "wc"; "--journal"; journal |] in
  let pid = Unix.create_process exe argv devnull out Unix.stderr in
  Unix.close devnull;
  Unix.close out;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "watch on EOF should exit 0, got %d" n
  | _ -> Alcotest.fail "watch did not exit normally");
  Alcotest.(check bool) "final watch-done record written" true
    (file_contains journal "\tdone\twatch-done\t");
  Alcotest.(check bool) "session summary in the final record" true
    (file_contains journal "session-closed");
  Sys.remove journal

let tc = Helpers.tc

let in_process =
  [
    tc "clean batch completes in order" test_clean_batch;
    tc "crash retried with rung escalation" test_crash_retried_then_done;
    tc "persistent crash quarantined at attempt cap"
      test_crash_always_quarantines;
    tc "unexpected worker exit contained" test_unexpected_exit_contained;
    tc "hang killed at job timeout and quarantined"
      test_hang_killed_and_quarantined;
    tc "raise/allocbomb contained inside worker"
      test_raise_and_allocbomb_contained_in_worker;
    tc "malformed input retried then quarantined"
      test_malformed_input_quarantined;
    tc "per-input circuit breaker fails fast" test_circuit_breaker;
    tc "journal replay is byte-identical" test_journal_replay_identical;
    tc "journal tolerates a torn trailing line"
      test_journal_tolerates_torn_tail;
    tc "wire timeout clamps: 1 ms floor, rung-1 2 s cap"
      test_wire_timeout_clamps;
    tc "removed summary engine is refused, never solved"
      test_removed_engine_refused;
    tc "admission control sheds deterministically"
      test_admission_shed_deterministic;
    tc "request deadline expires while queued" test_deadline_expires_in_queue;
    tc "request deadline bounds a running job"
      test_deadline_bounds_running_job;
    tc "brownout ladder escalates and steps down"
      test_brownout_ladder_state_machine;
    tc "brownout degrades dispatches under pressure"
      test_brownout_degrades_dispatches;
    tc "memory watchdog kills and the retry recovers"
      test_rss_watchdog_kills_and_retries;
    tc "dribbled worker response reassembled" test_slowread_response_reassembled;
    tc "drain completes in-flight, sheds pending"
      test_drain_completes_inflight_sheds_pending;
    tc "drain deadline cuts off a hung in-flight job"
      test_drain_deadline_cuts_off_hung_inflight;
    tc "shed outcomes replay byte-identically" test_shed_replayed_byte_identical;
    tc "nearest-rank percentiles" test_percentiles;
  ]

let suite =
  if Sys.file_exists exe then
    in_process
    @ [
        tc "kill -9 mid-batch, resume byte-identical"
          test_kill9_resume_byte_identical;
        tc "serve: SIGTERM drains, exits 5, loses nothing"
          test_serve_sigterm_drains_exit_5;
        tc "serve: kill -9 mid-drain, resume byte-identical"
          test_kill9_mid_drain_resume_byte_identical;
        tc "watch: clean EOF writes a final journal record"
          test_watch_eof_writes_final_record;
      ]
  else in_process
