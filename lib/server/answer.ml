(** One store-backed JSON request: report record first, then the
    compiled path. See the interface. *)

open Cfront

type t = {
  report : string;
  json : string;
  degraded : Core.Budget.event list;
  diag_errors : bool;
}

let run st ~layout ~layout_id ~strategy_id ~engine ~budget (src : Source.t) :
    t =
  let name = src.Source.name in
  let key =
    Store.Codec.record_key
      { Store.Codec.strategy_id; engine; layout_id; arith = `Spread; budget }
      ~name ~source:src.Source.text
  in
  let answer report ~degraded ~diag_errors =
    { report; json = Store.with_counters st report; degraded; diag_errors }
  in
  match
    Store.find_record st ~key ~include_digest:(Source.include_digest src)
  with
  | Some (report, diag_errors) -> answer report ~degraded:[] ~diag_errors
  | None ->
      let diags = Diag.create () in
      let prog =
        Norm.Lower.compile ~layout ~resolve:(Source.resolve src) ~diags
          ~file:name src.Source.text
      in
      let served =
        Store.serve st ~want:`Json ~diags:(Diag.diagnostics diags) ~name
          ~strategy_id ~engine ~layout ~layout_id ~budget prog
      in
      (* an exact snapshot hit carries no solver, but only clean runs
         are ever stored *)
      let degraded =
        match served.Store.sv_result with
        | Some r -> r.Core.Analysis.degraded
        | None -> []
      in
      let diag_errors = Diag.has_errors diags in
      if degraded = [] then
        Store.put_record st ~key ~includes:(Source.includes src) ~diag_errors
          served.Store.sv_json;
      answer served.Store.sv_json ~degraded ~diag_errors
