(** One store-backed JSON request — the path [analyze --store --format
    json] and a [--store] serve or batch job share.

    {b Direct mode.} Before any front-end work the request is keyed on
    what it already has ({!Store.record_key}: configuration, report
    name, MD5 of the raw source) and the store's report record for that
    key is probed. When every [#include] the record lists still has its
    recorded digest, the stored stats-free report is the answer: no
    preprocessing, parsing, lowering, {!Store.Codec.key} or snapshot
    decode. Anything else — no record, a changed include, a quarantined
    record — takes the compiled path unchanged ({!Store.serve}, or
    {!Summary.Engine.serve} under the summary engine), and a clean
    answer from it writes the record for the next repeat. *)

type t = {
  report : string;  (** stats-free report JSON, a pure function of the input *)
  json : string;
      (** [report] with the ["store"] counter block spliced in, and the
          ["summary_cache"] block under the summary engine *)
  degraded : Core.Budget.event list;
      (** where the solve gave up precision under its budget; always
          empty on a hit, since only clean answers are stored *)
  diag_errors : bool;  (** the front end reported errors *)
}

val open_sumcache : Store.t -> Core.Solver.engine -> Summary.Sumcache.t option
(** The summary engine's per-function cache under [DIR/summaries];
    [None] for every other engine. *)

val serve :
  Store.t ->
  sumcache:Summary.Sumcache.t option ->
  want:[ `Json | `Solver ] ->
  diags:Cfront.Diag.payload list ->
  name:string ->
  strategy_id:string ->
  engine:Core.Solver.engine ->
  layout:Cfront.Layout.config ->
  layout_id:string ->
  budget:Core.Budget.limits ->
  Norm.Nast.program ->
  Store.served
(** The compiled path: {!Summary.Engine.serve} when [sumcache] is
    given (the snapshot store still answers exact repeats and additive
    edits; a cold solve consults the per-function cache), {!Store.serve}
    otherwise. [--format text] calls it directly with [`Solver]. *)

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
