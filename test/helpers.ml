(** Shared helpers for the test suite. *)

open Cfront
open Norm

let compile ?layout ?defines ?resolve src : Nast.program =
  Lower.compile ?layout ?defines ?resolve ~file:"<test>" src

let analyze ?layout ~strategy src : Core.Analysis.result =
  Core.Analysis.run_source ?layout ~strategy ~file:"<test>" src

let strategy id : (module Core.Strategy.S) =
  match Core.Analysis.strategy_of_id id with
  | Some s -> s
  | None -> Alcotest.failf "unknown strategy %s" id

(** Expanded points-to targets of [name], rendered as strings, sorted. *)
let targets (r : Core.Analysis.result) name : string list =
  let prog = r.Core.Analysis.solver.Core.Solver.prog in
  let v =
    List.find_opt
      (fun v -> v.Cvar.vname = name || Cvar.qualified_name v = name)
      prog.Nast.pall_vars
  in
  match v with
  | None -> Alcotest.failf "no variable named %s" name
  | Some v ->
      Core.Metrics.expanded_pts r.Core.Analysis.solver v
      |> Core.Cell.Set.elements
      |> List.map Core.Cell.to_string
      |> List.sort compare

(** Distinct base-object names pointed to by [name], sorted. *)
let target_bases (r : Core.Analysis.result) name : string list =
  let prog = r.Core.Analysis.solver.Core.Solver.prog in
  let v =
    List.find_opt
      (fun v -> v.Cvar.vname = name || Cvar.qualified_name v = name)
      prog.Nast.pall_vars
  in
  match v with
  | None -> Alcotest.failf "no variable named %s" name
  | Some v ->
      Core.Metrics.expanded_pts r.Core.Analysis.solver v
      |> Core.Cell.Set.elements
      |> List.map (fun (c : Core.Cell.t) ->
             Cvar.qualified_name c.Core.Cell.base)
      |> List.sort_uniq compare

let slist = Alcotest.(slist string compare)

let check_targets r name expected =
  Alcotest.check slist (name ^ " targets") expected (targets r name)

let check_bases r name expected =
  Alcotest.check slist (name ^ " target objects") expected (target_bases r name)

let tc name f = Alcotest.test_case name `Quick f

(** Remove [path] and everything under it; a missing path is fine. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(** A fresh path [<temp dir>/<prefix>-<pid>-<n>], not yet created, for a
    test's cache directory. Whatever is there is removed when the test
    process exits — not when a forked worker does — so a suite leaves
    nothing behind in the temp dir. *)
let temp_dir =
  let ctr = ref 0 in
  fun prefix ->
    incr ctr;
    let owner = Unix.getpid () in
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix owner !ctr)
    in
    at_exit (fun () -> if Unix.getpid () = owner then rm_rf dir);
    dir

(** The graph's bookkeeping audit ({!Core.Graph.check_counts}) and the
    solver's copy-list audit ({!Core.Solver.check_copy_lists}), as one
    message naming the audit that failed. *)
let audit (t : Core.Solver.t) : string option =
  match Core.Graph.check_counts t.Core.Solver.graph with
  | Some msg -> Some ("graph audit: " ^ msg)
  | None ->
      Option.map
        (fun msg -> "copy-list audit: " ^ msg)
        (Core.Solver.check_copy_lists t)

(** A program whose lowering reaches every statement kind — address-of
    with and without a field, copy, load, store, address-of through a
    pointer, pointer arithmetic, a direct, an indirect and an extern
    call — plus a heap object, a string literal and canonical temps.
    The golden-key tests pin its keys byte for byte. *)
let golden_keys_src =
  {|
    struct pair { int *a; char *b; };
    union u { int i; int *p; };
    struct pair g;
    int x;
    char buf[8];
    int *id(int *q, ...) { return q; }
    void main(void) {
      int *(*fp)(int *, ...);
      int *r;
      int **pp;
      struct pair *sp;
      union u v;
      fp = id;
      r = fp(&x);
      r = id((int *)buf);
      g.a = r;
      *r = 1;
      r = r + 1;
      v.p = g.a;
      r = (int *)malloc(4);
      g.b = "hi";
      pp = &r;
      r = *pp;
      sp = &g;
      pp = &sp->a;
    }
  |}
