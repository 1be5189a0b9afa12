(** One unit of analysis work; see the interface for the degradation
    ladder and wire format. *)

open Cfront

type t = {
  id : string;
  spec : string;
  strategy_id : string;
  layout_id : string;
  budget : Core.Budget.limits;
  store_dir : string option;
  deadline_ms : int option;
  engine : string;
}

let make ~idx ?(strategy = "cis") ?(layout = "ilp32")
    ?(budget = Core.Budget.default) ?store_dir ?deadline_ms
    ?(engine = "delta") spec =
  {
    id = Printf.sprintf "job%d" idx;
    spec;
    strategy_id = strategy;
    layout_id = layout;
    budget;
    store_dir;
    deadline_ms;
    engine;
  }

let engine_of (t : t) : Core.Solver.engine option =
  List.assoc_opt t.engine Core.Solver.engines

let layout_of_id = function
  | "ilp32" -> Some Layout.ilp32
  | "lp64" -> Some Layout.lp64
  | "word16" -> Some Layout.word16
  | _ -> None

let validate (t : t) : (unit, string) result =
  let bad s = String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') s in
  if
    bad t.id || bad t.spec || bad t.strategy_id || bad t.layout_id
    || bad (Option.value t.store_dir ~default:"")
  then
    Error
      (Printf.sprintf "%s: job fields may not contain tabs or newlines" t.id)
  else if Core.Analysis.strategy_of_id t.strategy_id = None then
    Error
      (Printf.sprintf "%s: unknown strategy %s (have: %s)" t.id t.strategy_id
         (String.concat ", " Core.Analysis.strategy_ids))
  else if layout_of_id t.layout_id = None then
    Error
      (Printf.sprintf "%s: unknown layout %s (ilp32|lp64|word16)" t.id
         t.layout_id)
  else if engine_of t = None then
    Error
      (Printf.sprintf "%s: unknown engine %s (have: %s)" t.id t.engine
         (String.concat "|" (List.map fst Core.Solver.engines)))
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let max_rung = 2

let rung_of_attempt attempt = min (max 0 (attempt - 1)) max_rung

(* The rung-1 preset caps each limit; an unlimited dimension becomes the
   cap, a configured one only ever tightens. *)
let cap_int limit = function None -> Some limit | Some n -> Some (min n limit)
let cap_float limit = function
  | None -> Some limit
  | Some s -> Some (min s limit)

let tight (b : Core.Budget.limits) : Core.Budget.limits =
  {
    Core.Budget.max_steps = cap_int 100_000 b.Core.Budget.max_steps;
    timeout_s = cap_float 2.0 b.Core.Budget.timeout_s;
    max_cells_per_object = cap_int 8 b.Core.Budget.max_cells_per_object;
    max_total_cells = cap_int 50_000 b.Core.Budget.max_total_cells;
  }

let budget_for_rung b rung = if rung <= 0 then b else tight b

let strategy_for_rung id rung = if rung >= 2 then "collapse-always" else id

(* ------------------------------------------------------------------ *)
(* Wire encoding: version \t id \t attempt \t rung \t strategy         *)
(*   \t layout \t steps \t timeout_ms \t obj_cells \t total_cells       *)
(*   \t store \t deadline_ms \t engine \t spec                         *)
(* (0 encodes an absent limit/deadline; "" encodes no store            *)
(* directory; spec goes last for readability).                         *)
(* The timeout crosses the wire in whole milliseconds with a 1 ms      *)
(* floor: a sub-millisecond --timeout-ms is rewritten to 1 ms rather   *)
(* than rounding to 0, which would decode as "unlimited". The rung-1   *)
(* tight preset additionally caps the timeout at 2 s (see [tight]);    *)
(* both clamps are pinned by the wire roundtrip tests.                 *)
(* ------------------------------------------------------------------ *)

(* Version 1 carried a solver domain count before the engine field. *)
let wire_version = "2"

let to_wire (t : t) ~attempt ~rung : string =
  let o = function None -> 0 | Some n -> n in
  let timeout_ms =
    match t.budget.Core.Budget.timeout_s with
    | None -> 0
    | Some s -> max 1 (int_of_float (s *. 1000.))
  in
  Printf.sprintf "%s\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%s\t%s"
    wire_version t.id attempt rung t.strategy_id t.layout_id
    (o t.budget.Core.Budget.max_steps)
    timeout_ms
    (o t.budget.Core.Budget.max_cells_per_object)
    (o t.budget.Core.Budget.max_total_cells)
    (Option.value t.store_dir ~default:"")
    (o t.deadline_ms) t.engine t.spec

let of_wire (line : string) : (t * int * int, string) result =
  match String.split_on_char '\t' line with
  | [
      version; id; attempt; rung; strategy_id; layout_id; steps; tms; obj;
      total; store; deadline; engine; spec;
    ]
    when version = wire_version -> (
      let opt s =
        match int_of_string_opt s with
        | Some 0 -> Some None
        | Some n when n > 0 -> Some (Some n)
        | _ -> None
      in
      match
        ( int_of_string_opt attempt,
          int_of_string_opt rung,
          opt steps,
          opt tms,
          opt obj,
          opt total,
          opt deadline )
      with
      | ( Some attempt,
          Some rung,
          Some steps,
          Some tms,
          Some obj,
          Some total,
          Some deadline_ms ) ->
          let budget =
            {
              Core.Budget.max_steps = steps;
              timeout_s =
                Option.map (fun ms -> float_of_int ms /. 1000.) tms;
              max_cells_per_object = obj;
              max_total_cells = total;
            }
          in
          let store_dir = if store = "" then None else Some store in
          Ok
            ( {
                id;
                spec;
                strategy_id;
                layout_id;
                budget;
                store_dir;
                deadline_ms;
                engine;
              },
              attempt,
              rung )
      | _ -> Error ("malformed numeric field in job request: " ^ line))
  | _ ->
      Error
        (Printf.sprintf "malformed job request (expected 14 fields, wire v%s): %s"
           wire_version line)
