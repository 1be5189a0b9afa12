(** One store-backed JSON request — the path [analyze --store --format
    json] and a [--store] serve or batch job share.

    {b Direct mode.} Before any front-end work the request is keyed on
    what it already has ({!Store.Codec.record_key}: configuration, report
    name, MD5 of the raw source) and the store's report record for that
    key is probed. When every [#include] the record lists still has its
    recorded digest, the stored stats-free report is the answer: no
    preprocessing, parsing, lowering, {!Store.Codec.key} or snapshot
    decode. Anything else — no record, a changed include, a quarantined
    record — takes the compiled path unchanged ({!Store.serve}), and a
    clean answer from it writes the record for the next repeat. *)

type t = {
  report : string;  (** stats-free report JSON, a pure function of the input *)
  json : string;
      (** [report] with the ["store"] counter block spliced in *)
  degraded : Core.Budget.event list;
      (** where the solve gave up precision under its budget; always
          empty on a hit, since only clean answers are stored *)
  diag_errors : bool;  (** the front end reported errors *)
}

val run :
  Store.t ->
  layout:Cfront.Layout.config ->
  layout_id:string ->
  strategy_id:string ->
  engine:Core.Solver.engine ->
  budget:Core.Budget.limits ->
  Source.t ->
  t
(** Answer one request through the store. Front-end fatals propagate
    as [Cfront.Diag.Error], exactly as on a compile without a store. *)
