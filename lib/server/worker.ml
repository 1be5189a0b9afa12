(** The forked worker: executes jobs read from a pipe, one at a time.
    See the interface for the containment contract and wire format. *)

open Cfront

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let sanitize s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

(* The job's final output line: what batch prints, what the journal
   stores. Timing is omitted (Report ~timing:false) so the line is a
   pure function of the input — the byte-identical-resume guarantee.
   With a store attached the job goes through {!Answer.run}: a report
   record or snapshot answers repeats, and the emitted report is still
   the stats-free rendering a scratch solve produces, with the store's
   counter block spliced alongside. Store-I/O faults come from
   [STRUCTCAST_STORE_FAULTS]; write ordinals count per job. *)
let run_store ~store_dir ~layout ~layout_id ~strategy_id ~budget ~engine src
    : string * bool * bool =
  let store =
    Store.open_store
      ~inject:(Faults.store_hook (Faults.store_of_env ()))
      ~log:(fun m -> prerr_endline ("store: " ^ m))
      store_dir
  in
  let a =
    Answer.run store ~layout ~layout_id ~strategy_id ~engine ~budget src
  in
  (a.Answer.json, a.Answer.degraded <> [], a.Answer.diag_errors)

let run_job (job : Job.t) ~attempt ~rung :
    (string * bool * bool, string) result =
  try
    let layout =
      match Job.layout_of_id job.Job.layout_id with
      | Some l -> l
      | None -> failwith ("unknown layout " ^ job.Job.layout_id)
    in
    let strategy_id = Job.strategy_for_rung job.Job.strategy_id rung in
    let strategy =
      match Core.Analysis.strategy_of_id strategy_id with
      | Some s -> s
      | None -> failwith ("unknown strategy " ^ strategy_id)
    in
    let budget = Job.budget_for_rung job.Job.budget rung in
    let engine =
      match Job.engine_of job with
      | Some e -> e
      | None -> failwith ("unknown engine " ^ job.Job.engine)
    in
    let src = Source.load job.Job.spec in
    let name = src.Source.name in
    let result_json, solve_degraded, diag_errors =
      match job.Job.store_dir with
      | Some store_dir ->
          run_store ~store_dir ~layout ~layout_id:job.Job.layout_id
            ~strategy_id ~budget ~engine src
      | None ->
          let diags = Diag.create () in
          let r =
            Core.Analysis.run_source ~layout ~budget ~engine ~diags
              ~resolve:(Source.resolve src) ~strategy ~file:name
              src.Source.text
          in
          let diag_errors =
            List.exists
              (fun (p : Diag.payload) -> p.Diag.severity = Diag.Error_sev)
              r.Core.Analysis.diags
          in
          ( Core.Report.json_of_result ~timing:false ~name r,
            r.Core.Analysis.degraded <> [],
            diag_errors )
    in
    let output =
      Printf.sprintf
        "{\"id\":%s,\"spec\":%s,\"status\":\"done\",\"attempt\":%d,\"rung\":%d,\"result\":%s}"
        (Core.Report.quote job.Job.id)
        (Core.Report.quote job.Job.spec)
        attempt rung result_json
    in
    Ok (output, solve_degraded || rung > 0, diag_errors)
  with
  | Diag.Error p -> Error (Fmt.str "front-end error: %a" Diag.pp_payload p)
  | Failure m | Sys_error m -> Error m
  | Out_of_memory -> Error "out of memory"
  | Stack_overflow -> Error "stack overflow"
  | e -> Error ("exception: " ^ Printexc.to_string e)

let bool01 b = if b then "1" else "0"

let execute (job : Job.t) ~attempt ~rung ~(faults : Faults.plan) : string =
  let outcome =
    (* Crash/Exit/Hang never return from [inject]; Raise/Alloc_bomb
       raise and are contained exactly like a real in-job exception. *)
    try
      (match Faults.find faults ~job_id:job.Job.id ~attempt with
      | Some k -> Faults.inject k
      | None -> ());
      run_job job ~attempt ~rung
    with e -> Error ("exception: " ^ Printexc.to_string e)
  in
  match outcome with
  | Ok (output, degraded, diag_errors) ->
      Printf.sprintf "%s\t%d\tok\t%s\t%s\t%s" job.Job.id attempt
        (bool01 degraded) (bool01 diag_errors) output
  | Error msg ->
      Printf.sprintf "%s\t%d\terror\t%s" job.Job.id attempt (sanitize msg)

let response_of_wire (line : string) =
  let b01 = function "0" -> Some false | "1" -> Some true | _ -> None in
  match String.split_on_char '\t' line with
  | [ id; attempt; "ok"; d; e; output ] -> (
      match (int_of_string_opt attempt, b01 d, b01 e) with
      | Some attempt, Some degraded, Some diag_errors ->
          Ok (id, attempt, `Ok (degraded, diag_errors, output))
      | _ -> Error ("malformed ok response: " ^ line))
  | [ id; attempt; "error"; msg ] -> (
      match int_of_string_opt attempt with
      | Some attempt -> Ok (id, attempt, `Error msg)
      | None -> Error ("malformed error response: " ^ line))
  | _ -> Error ("malformed worker response: " ^ line)

(* ------------------------------------------------------------------ *)
(* Main loop (runs in the forked child)                                *)
(* ------------------------------------------------------------------ *)

(* A [slowread] fault acts here rather than inside the job: the
   response line is dribbled back in small chunks with pauses between
   them, so the supervisor's reader sees many partial reads of one
   logical line (total delay ≲ 200 ms). *)
let write_response oc ~slow response =
  let line = response ^ "\n" in
  if not slow then output_string oc line
  else begin
    let n = String.length line in
    let chunk = max 1 ((n + 15) / 16) in
    let off = ref 0 in
    while !off < n do
      let len = min chunk (n - !off) in
      output_substring oc line !off len;
      flush oc;
      off := !off + len;
      Unix.sleepf 0.01
    done
  end;
  flush oc

let run ~req ~resp ~faults : unit =
  let ic = Unix.in_channel_of_descr req in
  let oc = Unix.out_channel_of_descr resp in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let response, slow =
          match Job.of_wire line with
          | Ok (job, attempt, rung) ->
              let slow =
                Faults.find faults ~job_id:job.Job.id ~attempt
                = Some Faults.Slow_read
              in
              (execute job ~attempt ~rung ~faults, slow)
          | Error msg ->
              (Printf.sprintf "?\t0\terror\t%s" (sanitize msg), false)
        in
        write_response oc ~slow response;
        loop ()
  in
  loop ()
