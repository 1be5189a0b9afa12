(* pbtool — the benchmark's in-process helper.

   pbtool cgen N_STMTS SEED          print one generated C program
   pbtool diags FILE...              print "FILE N" (front-end diagnostics)
   pbtool ref ENGINE [--oracle|--oracle-wrong] LIST
                                     stats-free report per "SPEC INSTANCE",
                                     after "OBS UNCOVERED " with an oracle
   pbtool trace OPS PREFIX           replay an operation list three times
                                     (spans off, on, off); write PREFIX.trace.json
                                     and PREFIX.selftime.txt, print one
                                     JSON summary line

   Every analysis here runs the configuration the CLI runs by default:
   layout ilp32, the default budget, engine delta. *)

open Cfront
open Norm

external monotonic_ns : unit -> int64 = "pbtool_monotonic_ns"

let layout = Layout.ilp32
let layout_id = "ilp32"
let budget = Core.Budget.default
let engine = `Delta

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A spec is a corpus program name or a file path, exactly as on the
   structcast command line. *)
let load_source spec =
  match Suite.find spec with
  | Some p -> (p.Suite.name, p.Suite.source)
  | None -> (Filename.basename spec, read_file spec)

let resolve_includes path rel =
  let c = Filename.concat (Filename.dirname path) rel in
  if Sys.file_exists c then Some (read_file c) else None

let strategy id =
  match Core.Analysis.strategy_of_id id with
  | Some s -> s
  | None -> failwith ("unknown instance " ^ id)

let words l = String.split_on_char ' ' l |> List.filter (( <> ) "")

let list_file path =
  read_file path |> String.split_on_char '\n' |> List.map words
  |> List.filter (( <> ) [])

(* ------------------------------------------------------------------ *)
(* Reference analyses for the output checkers                          *)
(* ------------------------------------------------------------------ *)

let compile_plain spec =
  let name, src = load_source spec in
  let diags = Diag.create () in
  let prog =
    Lower.compile ~layout ~resolve:(resolve_includes spec) ~diags ~file:name
      src
  in
  (name, prog, diags)

(* One line per "SPEC INSTANCE": the stats-free report of a scratch
   analysis. With [oracle], the line starts with "OBS UNCOVERED ": the
   concrete interpreter's pointer observations of the program and how
   many in-bounds ones the same solve fails to cover. [`Wrong] empties
   the solved graph first: the answer a broken solver would give, which
   the oracle must reject. *)
let reference ?oracle engine_id path =
  let engine =
    match engine_id with
    | "delta" -> `Delta
    | "naive" -> `Naive
    | e -> failwith ("unknown engine " ^ e)
  in
  List.iter
    (function
      | [ spec; inst ] ->
          let name, prog, diags = compile_plain spec in
          let r =
            Core.Analysis.run ~layout ~budget ~engine ~strategy:(strategy inst)
              prog
          in
          let r = { r with Core.Analysis.diags = Diag.diagnostics diags } in
          let json =
            Core.Report.json_of_result ~timing:false ~solver_stats:false ~name r
          in
          (match oracle with
          | None -> ()
          | Some mode ->
              let t = r.Core.Analysis.solver in
              if mode = `Wrong then begin
                let g = t.Core.Solver.graph in
                Core.Graph.unshare g;
                Core.Graph.fold_sources g (fun c _ acc -> c :: acc) []
                |> List.iter (Core.Graph.remove_source g)
              end;
              let obs = Interp.Eval.run ~layout prog in
              Printf.printf "%d %d " (Interp.Eval.Obs.cardinal obs)
                (List.length (Interp.Oracle.uncovered t obs)));
          print_endline json
      | _ -> failwith "ref: expected SPEC INSTANCE")
    (list_file path)

let diags files =
  List.iter
    (fun f ->
      let _, _, d = compile_plain f in
      Printf.printf "%s %d\n" f (List.length (Diag.diagnostics d)))
    files

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  mutable sname : string;
  sid : int;
  sparent : int;
  sop : int;
  t0 : int64;
  mutable t1 : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let cur_op = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let counti name v =
  if !tracing then
    Hashtbl.replace counters name
      (float_of_int v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

(* [rename] picks the span's final name from the call's result, e.g. the
   store origin that answered. *)
let span ?rename name f =
  if not !tracing then f ()
  else begin
    let sparent = match !stack with s :: _ -> s.sid | [] -> -1 in
    incr next_id;
    let s =
      { sname = name; sid = !next_id; sparent; sop = !cur_op;
        t0 = monotonic_ns (); t1 = 0L }
    in
    stack := s :: !stack;
    let finish () =
      s.t1 <- monotonic_ns ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    match f () with
    | v ->
        finish ();
        Option.iter (fun r -> s.sname <- r v) rename;
        v
    | exception e ->
        finish ();
        raise e
  end

(* Work the replay does only to measure (scratch solves for ratios,
   key/decode probes): kept out of the operation's own time and out of
   its interned-cell growth. *)
let probe_cells = ref 0

let probe f =
  let c0 = Core.Cell.interned_count () in
  let v = span "probe" f in
  probe_cells := !probe_cells + (Core.Cell.interned_count () - c0);
  v

let ms ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Replayed operations                                                 *)
(* ------------------------------------------------------------------ *)

let compile ~spec ~name src =
  let diags = Diag.create () in
  let toks =
    span "cfront.preproc" (fun () ->
        Preproc.run ~resolve:(resolve_includes spec) ~file:name src)
  in
  counti "cfront.tokens" (List.length toks);
  let tu =
    span "cfront.parse" (fun () -> Parser.parse_tokens ~layout ~diags toks)
  in
  let tp =
    span "cfront.typecheck" (fun () ->
        Typecheck.check ~layout ~diags ~file:name tu)
  in
  let prog = span "norm.lower" (fun () -> Lower.lower tp) in
  counti "norm.stmts" (Nast.stmt_count prog);
  (prog, diags)

let solver_counters (m : Core.Metrics.summary) =
  counti "core.solver_visits" m.Core.Metrics.solver_visits;
  counti "core.facts_consumed" m.Core.Metrics.facts_consumed;
  counti "core.wasted_propagations" m.Core.Metrics.wasted_propagations;
  counti "core.copy_edges" m.Core.Metrics.copy_edges

let render ~name ~diags ~time_s solver =
  let metrics = span "core.summarize" (fun () -> Core.Metrics.summarize solver) in
  solver_counters metrics;
  let r =
    { Core.Analysis.solver; metrics; time_s;
      degraded = Core.Solver.degradations solver;
      diags = Diag.diagnostics diags }
  in
  let json = span "core.report" (fun () -> Core.Report.json_of_result ~name r) in
  counti "core.report_bytes" (String.length json)

let now () = Int64.to_float (monotonic_ns ()) /. 1e9

(* structcast analyze --format json -s INST SPEC *)
let analyze spec inst =
  let name, src = load_source spec in
  let prog, diags = compile ~spec ~name src in
  let t0 = now () in
  let solver =
    span "core.solve" (fun () ->
        Core.Solver.run ~layout ~budget ~engine ~strategy:(strategy inst) prog)
  in
  render ~name ~diags ~time_s:(now () -. t0) solver

(* structcast watch --format json -s INST NAME: the session's live
   solver; each edit re-reads NAME, whose content VERSION holds *)
let session : Core.Solver.t option ref = ref None

let watch_start inst name version =
  let prog, _ = compile ~spec:name ~name:(Filename.basename name) (read_file version) in
  session :=
    Some
      (span "core.solve" (fun () ->
           Core.Solver.run ~layout ~budget ~engine ~track:true
             ~strategy:(strategy inst) prog))

let watch_edit inst name version =
  let base = Option.get !session in
  let src = read_file version in
  let bname = Filename.basename name in
  let t0 = now () in
  let edited, diags = compile ~spec:name ~name:bname src in
  let t, st =
    span "incr.reanalyze" (fun () -> Incr.Engine.reanalyze ~diags base edited)
  in
  session := Some t;
  counti "incr.warm_visits" st.Incr.Engine.warm_visits;
  counti "incr.stmts_replayed" st.Incr.Engine.stmts_replayed;
  counti "incr.facts_retracted" st.Incr.Engine.facts_retracted;
  counti "incr.fallbacks" (if st.Incr.Engine.fallback then 1 else 0);
  render ~name:bname ~diags ~time_s:(now () -. t0) t;
  fun () ->
    if !tracing then
      probe (fun () ->
          let p = Lower.compile ~layout ~file:bname src in
          let s =
            span "probe.scratch_solve" (fun () ->
                Core.Solver.run ~layout ~budget ~engine ~track:true
                  ~strategy:(strategy inst) p)
          in
          counti "incr.scratch_visits" s.Core.Solver.rounds;
          (* the warm answer must render the scratch answer's fixpoint *)
          let stats_free t =
            Core.Report.json_of_result ~timing:false ~solver_stats:false
              ~name:bname
              (Core.Analysis.
                 { solver = t; metrics = Core.Metrics.summarize t; time_s = 0.;
                   degraded = Core.Solver.degradations t; diags = [] })
          in
          if stats_free t <> stats_free s then counti "check.warm_mismatches" 1)

let count_lines_from path off =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
      let n = in_channel_length ic in
      seek_in ic (min off n);
      let s = really_input_string ic (n - min off n) in
      close_in ic;
      List.length (String.split_on_char '\n' s) - 1

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* one serve request as the store-backed worker runs it: open the
   store, compile, Store.serve in JSON mode, splice the counters *)
let serve spec inst dir =
  let st = span "store.open" (fun () -> Store.open_store dir) in
  let name, src = load_source spec in
  let prog, diags = compile ~spec ~name src in
  let dlist = Diag.diagnostics diags in
  let index = Filename.concat dir "index.log" in
  let size0 = if !tracing then file_size index else 0 in
  let served =
    span "store.serve"
      ~rename:(fun s ->
        match s.Store.sv_origin with
        | `Hit -> "store.serve_hit"
        | `Ancestor _ -> "store.serve_ancestor"
        | `Cold -> "store.serve_cold")
      (fun () ->
        Store.serve st ~want:`Json ~diags:dlist ~name ~strategy_id:inst
          ~engine ~layout ~layout_id ~budget prog)
  in
  ignore (Store.with_counters st served.Store.sv_json);
  let c = Store.counters st in
  counti "store.hits" c.Core.Metrics.hits;
  counti "store.misses" c.Core.Metrics.misses;
  counti "store.ancestor_warm_starts" c.Core.Metrics.ancestor_warm_starts;
  counti "store.snapshots_written" c.Core.Metrics.snapshots_written;
  fun () ->
    if !tracing then begin
      counti "store.index_appends" (count_lines_from index size0);
      probe (fun () ->
          let cfg =
            { Store.Codec.strategy_id = inst; engine; layout_id;
              arith = `Spread; budget }
          in
          let diags_fp =
            String.concat "" (List.map Core.Report.json_of_diag dlist)
          in
          let key =
            span "store.key" (fun () -> Store.Codec.key cfg ~name ~diags_fp prog)
          in
          if served.Store.sv_origin = `Hit then begin
            let bytes = read_file (Store.snap_path st key) in
            counti "store.snapshot_bytes" (String.length bytes);
            match span "store.decode" (fun () -> Store.Codec.decode bytes) with
            | Ok _ -> ()
            | Error e -> failwith ("decode probe: " ^ e)
          end)
    end

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Run every operation once; return each operation's wall time (ms).
   A store directory gets the pass number appended so both passes start
   from an empty store. *)
let replay ~pass ops =
  let cells = ref 0 in
  let times =
    List.map
      (fun op ->
        incr cur_op;
        let c0 = Core.Cell.interned_count () in
        let p0 = !probe_cells in
        let kind = List.hd op in
        let t0 = monotonic_ns () in
        let after =
          span ("op." ^ kind) (fun () ->
              match op with
              | [ "analyze"; spec; inst ] ->
                  analyze spec inst;
                  ignore
              | [ "watch-start"; inst; name; version ] ->
                  watch_start inst name version;
                  ignore
              | "watch-edit" :: inst :: name :: version :: _ ->
                  watch_edit inst name version
              | [ "serve"; spec; inst; dir ] ->
                  serve spec inst (Printf.sprintf "%s.p%d" dir pass)
              | _ -> failwith ("trace: bad operation " ^ String.concat " " op))
        in
        let dt = ms (Int64.sub (monotonic_ns ()) t0) in
        after ();
        let grown = Core.Cell.interned_count () - c0 - (!probe_cells - p0) in
        cells := !cells + grown;
        counti "core.cells_interned" grown;
        dt)
      ops
  in
  (times, !cells)

let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.sparent >= 0 then
        Hashtbl.replace child s.sparent
          (Int64.add (Int64.sub s.t1 s.t0)
             (Option.value (Hashtbl.find_opt child s.sparent) ~default:0L)))
    !spans;
  (* name -> calls, total ns, self ns *)
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = Int64.sub s.t1 s.t0 in
      let self =
        Int64.sub dur (Option.value (Hashtbl.find_opt child s.sid) ~default:0L)
      in
      let n, tot, sf =
        Option.value (Hashtbl.find_opt tbl s.sname) ~default:(0, 0L, 0L)
      in
      Hashtbl.replace tbl s.sname (n + 1, Int64.add tot dur, Int64.add sf self))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let write_trace path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            (Core.Report.quote s.sname) (us s.t0)
            (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
            s.sop s.sid s.sparent)
        all;
      output_string oc "\n]}\n")

let write_table path rows =
  let total =
    List.fold_left (fun acc (_, (_, _, sf)) -> Int64.add acc sf) 0L rows
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%-26s %8s %12s %12s %7s\n" "span" "calls" "total_ms"
        "self_ms" "self%";
      List.iter
        (fun (name, (n, tot, sf)) ->
          Printf.fprintf oc "%-26s %8d %12.3f %12.3f %6.1f%%\n" name n (ms tot)
            (ms sf)
            (100. *. Int64.to_float sf /. Int64.to_float (max 1L total)))
        rows)

(* Spans off, on, off again: the traced pass is compared with the mean
   of the passes around it, so the interner's growth over the process
   does not count as tracing overhead. *)
let trace ops_path prefix =
  let ops = list_file ops_path in
  let before, _ = replay ~pass:0 ops in
  tracing := true;
  let traced, cells = replay ~pass:1 ops in
  tracing := false;
  let after, _ = replay ~pass:2 ops in
  let untraced = List.map2 (fun a b -> (a +. b) /. 2.) before after in
  let rows = self_times () in
  write_trace (prefix ^ ".trace.json");
  write_table (prefix ^ ".selftime.txt") rows;
  let floats l = String.concat "," (List.map (Printf.sprintf "%.4f") l) in
  let kinds = List.map (fun op -> Core.Report.quote (List.hd op)) ops in
  Printf.printf
    "{\"ops\":%d,\"kinds\":[%s],\"untraced_ms\":[%s],\"traced_ms\":[%s],\"cells_interned_total\":%d,\"spans\":{%s},\"counters\":{%s}}\n"
    (List.length ops) (String.concat "," kinds) (floats untraced)
    (floats traced) cells
    (String.concat ","
       (List.map
          (fun (name, (n, _, sf)) ->
            Printf.sprintf "%s:{\"calls\":%d,\"self_ms\":%.4f}"
              (Core.Report.quote name) n (ms sf))
          rows))
    (String.concat ","
       (Hashtbl.fold
          (fun k v acc -> Printf.sprintf "%s:%.1f" (Core.Report.quote k) v :: acc)
          counters []))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "cgen"; n; seed ] ->
      print_string
        (Cgen.generate
           ~cfg:
             { Cgen.n_stmts = int_of_string n; n_structs = 4; cast_rate = 0.3;
               with_calls = true }
           ~seed:(int_of_string seed) ())
  | "diags" :: files -> diags files
  | [ "ref"; engine_id; path ] -> reference engine_id path
  | [ "ref"; engine_id; "--oracle"; path ] ->
      reference ~oracle:`Right engine_id path
  | [ "ref"; engine_id; "--oracle-wrong"; path ] ->
      reference ~oracle:`Wrong engine_id path
  | [ "trace"; ops; prefix ] -> trace ops prefix
  | _ ->
      prerr_endline "usage: pbtool cgen|diags|ref|oracle|trace ...";
      exit 2
