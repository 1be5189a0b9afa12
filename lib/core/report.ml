(** Machine-readable (JSON) rendering of analysis results. See the
    interface for the determinism contract ([~timing:false]). *)

open Cfront

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

(* Budget.reason carries the tripped limit; timeouts are reported in
   milliseconds so every limit field is an integer. *)
let reason_parts : Budget.reason -> string * int = function
  | Budget.Steps n -> ("steps", n)
  | Budget.Timeout s -> ("timeout", int_of_float (s *. 1000.))
  | Budget.Object_cells n -> ("object-cells", n)
  | Budget.Total_cells n -> ("total-cells", n)

let json_of_event ?(timing = true) (e : Budget.event) : string =
  let kind, limit = reason_parts e.Budget.reason in
  let obj =
    match e.Budget.obj with
    | Some v -> quote (Cvar.qualified_name v)
    | None -> "null"
  in
  let time =
    if timing then Printf.sprintf ",\"at_time\":%.6f" e.Budget.at_time else ""
  in
  Printf.sprintf "{\"obj\":%s,\"reason\":%s,\"limit\":%d,\"at_step\":%d%s}" obj
    (quote kind) limit e.Budget.at_step time

let json_of_diag (p : Diag.payload) : string =
  let sev =
    match p.Diag.severity with
    | Diag.Warning -> "warning"
    | Diag.Error_sev -> "error"
  in
  Printf.sprintf
    "{\"severity\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (quote sev)
    (quote p.Diag.loc.Srcloc.file)
    p.Diag.loc.Srcloc.line p.Diag.loc.Srcloc.col (quote p.Diag.message)

let json_of_result ?(timing = true) ?(solver_stats = true) ~name
    (r : Analysis.result) : string =
  let m = r.Analysis.metrics in
  let b = Buffer.create 512 in
  let field fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  field "{\"program\":%s" (quote name);
  field ",\"strategy\":%s" (quote m.Metrics.strategy_id);
  field ",\"strategy_name\":%s" (quote m.Metrics.strategy_name);
  field ",\"deref_sites\":%d" m.Metrics.deref_sites;
  field ",\"avg_deref_size\":%.4f" m.Metrics.avg_deref_size;
  field ",\"max_deref_size\":%d" m.Metrics.max_deref_size;
  field ",\"total_edges\":%d" m.Metrics.total_edges;
  if solver_stats then begin
    field ",\"lookup_calls\":%d" m.Metrics.lookup_calls;
    field ",\"resolve_calls\":%d" m.Metrics.resolve_calls
  end;
  field ",\"corrupt_derefs\":%d" m.Metrics.corrupt_derefs;
  if solver_stats then begin
    field ",\"engine\":%s" (quote m.Metrics.engine);
    field ",\"solver_visits\":%d" m.Metrics.solver_visits;
    field ",\"facts_consumed\":%d" m.Metrics.facts_consumed;
    field ",\"delta_facts\":%d" m.Metrics.delta_facts;
    field ",\"full_facts\":%d" m.Metrics.full_facts;
    field ",\"copy_edges\":%d" m.Metrics.copy_edges;
    field ",\"cycles_found\":%d" m.Metrics.cycles_found;
    field ",\"cells_unified\":%d" m.Metrics.cells_unified;
    field ",\"wasted_propagations\":%d" m.Metrics.wasted_propagations;
    field ",\"incr_stmts_added\":%d" m.Metrics.incr_stmts_added;
    field ",\"incr_stmts_removed\":%d" m.Metrics.incr_stmts_removed;
    field ",\"incr_facts_retracted\":%d" m.Metrics.incr_facts_retracted;
    field ",\"incr_warm_visits\":%d" m.Metrics.incr_warm_visits;
    field ",\"incr_stmts_replayed\":%d" m.Metrics.incr_stmts_replayed;
    field ",\"incr_fallback_planned\":%d" m.Metrics.incr_fallback_planned
  end;
  field ",\"unknown_externs\":[%s]"
    (String.concat "," (List.map quote m.Metrics.unknown_externs));
  field ",\"degraded\":[%s]"
    (String.concat "," (List.map (json_of_event ~timing) r.Analysis.degraded));
  field ",\"diags\":[%s]"
    (String.concat "," (List.map json_of_diag r.Analysis.diags));
  if timing then field ",\"time_s\":%.6f" r.Analysis.time_s;
  Buffer.add_char b '}';
  Buffer.contents b
