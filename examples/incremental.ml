(** Incremental re-analysis walkthrough: solve a program once, then
    answer for edited versions, from the warm fixpoint where the edit
    only adds statements.

    The example makes two edits against a live solver — a pure addition
    (warm start: only the new facts propagate) and a removal (solved
    from scratch: facts are not monotone under removal). After every
    edit it checks the answer, fact by fact and by variable names,
    against a cold solve of the edited source: they are always equal.

    Run with: [dune exec examples/incremental.exe] *)

open Norm

let base_source =
  {|
    struct node { struct node *next; int *payload; };
    struct node a, b;
    int x, y;
    int *got;
    void main(void) {
      a.next = &b;
      a.payload = &x;
      got = a.next->payload;
    }
  |}

(* the edit adds one fact source; the removal takes it away again *)
let edited_source =
  {|
    struct node { struct node *next; int *payload; };
    struct node a, b;
    int x, y;
    int *got;
    void main(void) {
      a.next = &b;
      a.payload = &x;
      got = a.next->payload;
      got = &y;
    }
  |}
(* the new line goes at the end of main on purpose, and lowers to one
   statement over existing variables: the analysis is flow-insensitive,
   and such an edit is purely additive. A line that needs a fresh
   temporary, or an insertion mid-function (which renumbers the
   lowering's temporaries after it), adds variables, and the engine
   solves it from scratch. *)

let compile src = Lower.compile ~file:"incremental-example" src

let show_got (t : Core.Solver.t) =
  let q = Clients.Queries.of_solver t in
  match Clients.Queries.find_var q "got" with
  | None -> Fmt.pr "  got: (not found)@."
  | Some v ->
      Fmt.pr "  got -> {%a}@."
        (Fmt.list ~sep:(Fmt.any ", ") Core.Cell.pp)
        (Core.Cell.Set.elements (Clients.Queries.points_to_expanded q v))

(* every fact, by variable names: two compiles share no cell ids *)
let facts (t : Core.Solver.t) =
  Core.Graph.fold_sources t.Core.Solver.graph
    (fun c targets acc ->
      (Core.Cell.to_string c, List.map Core.Cell.to_string
         (Core.Cell.Set.elements targets))
      :: acc)
    []
  |> List.sort compare

let check_against_scratch (t : Core.Solver.t) src =
  let scratch =
    Core.Solver.run ~strategy:t.Core.Solver.base_strategy (compile src)
  in
  Fmt.pr "  answer == from-scratch solve: %b@." (facts t = facts scratch)

let report (st : Incr.Engine.stats) =
  Fmt.pr "  edit: +%d/-%d statements, %d visits%s@."
    st.Incr.Engine.stmts_added st.Incr.Engine.stmts_removed
    st.Incr.Engine.warm_visits
    (if st.Incr.Engine.fallback then " (solved from scratch)" else " (warm)")

let () =
  let t =
    Core.Solver.run
      ~strategy:(module Core.Common_init_seq)
      (compile base_source)
  in
  Fmt.pr "base solve (%d statement visits):@." t.Core.Solver.rounds;
  show_got t;

  Fmt.pr "@.additive edit — got = &y appears:@.";
  let t, st = Incr.Engine.reanalyze t (compile edited_source) in
  report st;
  show_got t;
  check_against_scratch t edited_source;

  Fmt.pr "@.removal — the same line disappears again:@.";
  let t, st = Incr.Engine.reanalyze t (compile base_source) in
  report st;
  show_got t;
  check_against_scratch t base_source
