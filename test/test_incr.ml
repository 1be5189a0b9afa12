(** The incremental re-analysis engine's differential spine: for every
    edit, [reanalyze] must answer what a from-scratch solve of the edited
    program answers — the stats-free JSON byte for byte and every
    points-to fact by variable names, with the graph and copy-list
    audits clean — for all four framework instances and both delta
    engines (naive is a scratch-only oracle with no warm path). Plus
    unit coverage for the differ's keying and for which edits
    warm-start. *)

open Cfront
open Norm
open Helpers

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]
let engines = [ ("delta", `Delta); ("delta-nocycle", `Delta_nocycle) ]

let base_seed =
  match Sys.getenv_opt "STRUCTCAST_FUZZ_SEED" with
  | None | Some "" -> 1
  | Some s -> int_of_string (String.trim s)

let mk_result (solver : Core.Solver.t) : Core.Analysis.result =
  {
    Core.Analysis.solver;
    metrics = Core.Metrics.summarize solver;
    time_s = 0.;
    degraded = Core.Solver.degradations solver;
    diags = [];
  }

let stats_free_json ~name (solver : Core.Solver.t) : string =
  Core.Report.json_of_result ~timing:false ~solver_stats:false ~name
    (mk_result solver)

(* A cell by names, as the points-to printer shows it, except that a
   heap object is named by its allocation ordinal alone: a warm start
   keeps the base's heap variable, whose source line an edit above the
   allocation may have shifted. *)
let cell_name (c : Core.Cell.t) : string =
  let v = c.Core.Cell.base in
  let base =
    match v.Cvar.vkind with
    | Cvar.Heap (_, i) -> Printf.sprintf "malloc_%d" i
    | _ -> Cvar.qualified_name v
  in
  match c.Core.Cell.sel with
  | Core.Cell.Path [] -> base
  | Core.Cell.Path p -> base ^ "." ^ Ctype.path_to_string p
  | Core.Cell.Off i -> Printf.sprintf "%s@%d" base i

(** Every points-to fact by names, sorted: two compiles share no cell
    ids, so this is how a warm answer meets a scratch one. *)
let points_to_names (t : Core.Solver.t) : string list =
  Core.Graph.fold_sources t.Core.Solver.graph
    (fun c targets acc ->
      Core.Cell.Set.fold
        (fun w acc -> (cell_name c ^ " -> " ^ cell_name w) :: acc)
        targets acc)
    []
  |> List.sort compare

(** The oracle: [reanalyze]'s answer must be what a cold solve of the
    edited program answers. *)
let check_vs_scratch ~label ~engine ~id (warm : Core.Solver.t)
    (edited : Nast.program) =
  let scratch = Core.Solver.run ~engine ~strategy:(strategy id) edited in
  (match audit warm with
  | Some msg -> Alcotest.failf "%s / %s: after edit: %s" label id msg
  | None -> ());
  let jw = stats_free_json ~name:label warm in
  let js = stats_free_json ~name:label scratch in
  if jw <> js then
    Alcotest.failf "%s / %s / %s: stats-free report differs:\n%s\n%s" label
      id
      (Core.Solver.engine_name engine)
      jw js;
  let pw = points_to_names warm and ps = points_to_names scratch in
  if pw <> ps then
    Alcotest.failf "%s / %s / %s: %d facts warm, %d from scratch; first \
                    differences: %s | %s"
      label id
      (Core.Solver.engine_name engine)
      (List.length pw) (List.length ps)
      (String.concat "; "
         (List.filteri (fun i _ -> i < 3)
            (List.filter (fun f -> not (List.mem f ps)) pw)))
      (String.concat "; "
         (List.filteri (fun i _ -> i < 3)
            (List.filter (fun f -> not (List.mem f pw)) ps)))

(** [reanalyze] a solve of [base] with [edited] under every instance and
    delta engine, checking each answer against scratch; [expect] is
    whether the edit warm-starts. *)
let check_edit ~label ?expect base edited =
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let t = Core.Solver.run ~engine ~strategy:(strategy id) base in
          let t, st = Incr.Engine.reanalyze t edited in
          Option.iter
            (fun warm ->
              Alcotest.(check bool)
                (Printf.sprintf "%s / %s / %s: warm start" label id ename)
                warm (not st.Incr.Engine.fallback))
            expect;
          check_vs_scratch ~label ~engine ~id t edited)
        engines)
    all_ids

(* ------------------------------------------------------------------ *)
(* Progdiff units                                                      *)
(* ------------------------------------------------------------------ *)

(* [Progdiff.align] from a freshly keyed base *)
let align ~base edited =
  let a = Incr.Progdiff.align ~base:(Incr.Progdiff.index base) edited in
  (Incr.Progdiff.program a.Incr.Progdiff.aligned, a.Incr.Progdiff.delta)

let src_base =
  {|
    struct S { int *f; int *g; } s;
    int x, y;
    int *p, *q;
    void main(void) {
      s.f = &x;
      p = s.f;
      q = &y;
    }
  |}

let src_edited =
  {|
    struct S { int *f; int *g; } s;
    int x, y;
    int *p, *q;
    void main(void) {
      s.f = &x;
      p = s.f;
      q = &y;
      q = &x;
    }
  |}

let test_diff_identity () =
  let base = compile src_base in
  let edited = compile src_base in
  let aligned, d = align ~base edited in
  Alcotest.(check int) "no added" 0 (List.length d.Incr.Progdiff.added);
  Alcotest.(check int) "no removed" 0 (List.length d.Incr.Progdiff.removed);
  Alcotest.(check int) "no added vars" 0 (List.length d.Incr.Progdiff.added_vars);
  Alcotest.(check int) "no removed vars" 0
    (List.length d.Incr.Progdiff.removed_vars);
  (* the aligned program IS the base program's statements and variables *)
  List.iter2
    (fun (a : Nast.stmt) (b : Nast.stmt) ->
      Alcotest.(check int) "stmt id reused" b.Nast.id a.Nast.id)
    (Nast.all_stmts aligned) (Nast.all_stmts base);
  List.iter2
    (fun (a : Cvar.t) (b : Cvar.t) ->
      Alcotest.(check int) "var reused" b.Cvar.vid a.Cvar.vid)
    aligned.Nast.pall_vars base.Nast.pall_vars

let test_diff_addition () =
  let base = compile src_base in
  let edited = compile src_edited in
  let _, d = align ~base edited in
  Alcotest.(check int) "one statement added" 1
    (List.length d.Incr.Progdiff.added);
  Alcotest.(check int) "none removed" 0 (List.length d.Incr.Progdiff.removed);
  (* the added statement's variables were remapped onto base variables *)
  let base_vids = List.map (fun v -> v.Cvar.vid) base.Nast.pall_vars in
  match (List.hd d.Incr.Progdiff.added).Nast.kind with
  | Nast.Addr (sg, ty, _) ->
      Alcotest.(check bool) "lhs is a base var" true
        (List.mem sg.Cvar.vid base_vids);
      Alcotest.(check bool) "rhs is a base var" true
        (List.mem ty.Cvar.vid base_vids)
  | _ -> Alcotest.fail "expected the added statement to be an Addr"

let test_diff_signature_change () =
  let base =
    compile
      {|
        int *h(int *a) { return a; }
        int x; int *r;
        void main(void) { r = h(&x); }
      |}
  in
  let edited =
    compile
      {|
        int *h(int *a, int *b) { return a; }
        int x; int *r;
        void main(void) { r = h(&x); }
      |}
  in
  let _, d = align ~base edited in
  (* the call to [h] must be treated as removed + re-added: its
     parameter bindings changed with the signature *)
  let is_call (s : Nast.stmt) =
    match s.Nast.kind with Nast.Call _ -> true | _ -> false
  in
  Alcotest.(check bool) "call re-added" true
    (List.exists is_call d.Incr.Progdiff.added);
  Alcotest.(check bool) "call removed" true
    (List.exists is_call d.Incr.Progdiff.removed)

(** The all-interfaces fingerprint must be a full-content digest: with
    the node-limited polymorphic hash, a program with more than ~10
    defined functions let signature changes past the limit slip through
    without invalidating indirect calls (a silent wrong-answer). Every
    one of 14 functions must invalidate the indirect call when its
    signature changes. *)
let test_signature_change_every_function () =
  let mk wide =
    let buf = Buffer.create 512 in
    for i = 1 to 14 do
      let params = if wide = Some i then "int *a, int *b" else "int *a" in
      Buffer.add_string buf
        (Printf.sprintf "int *f%02d(%s) { return a; }\n" i params)
    done;
    Buffer.add_string buf
      "int *g(int *a) { return a; }\n\
       int x; int *r;\n\
       int *(*fp)(int *);\n\
       void main(void) { fp = g; r = fp(&x); }\n";
    compile (Buffer.contents buf)
  in
  let base = mk None in
  let is_indirect (s : Nast.stmt) =
    match s.Nast.kind with
    | Nast.Call { Nast.cfn = Nast.Indirect _; _ } -> true
    | _ -> false
  in
  for k = 1 to 14 do
    let edited = mk (Some k) in
    let _, d = align ~base edited in
    if not (List.exists is_indirect d.Incr.Progdiff.removed) then
      Alcotest.failf
        "signature change of f%02d left the indirect call un-invalidated" k;
    let t = Core.Solver.run ~strategy:(strategy "cis") base in
    let t, _ = Incr.Engine.reanalyze t edited in
    check_vs_scratch
      ~label:(Printf.sprintf "sig-change f%02d" k)
      ~engine:`Delta ~id:"cis" t edited
  done

(** Heap objects key on their allocation ordinal, never on source
    coordinates: recompiling after an edit that only shifts the lines
    above an allocation site diffs empty. *)
let test_heap_key_stable_under_line_shift () =
  let src prefix =
    Printf.sprintf
      {|
        void *malloc(unsigned long);
        struct S { int *f; } *p;
        int x, y; int *q;
        void main(void) {
          %sp = (struct S *)malloc(sizeof(struct S));
          p->f = &x;
        }
      |}
      prefix
  in
  let base = compile (src "") in
  let edited = compile (src "\n") in
  let _, d = align ~base edited in
  Alcotest.(check int) "no added" 0 (List.length d.Incr.Progdiff.added);
  Alcotest.(check int) "no removed" 0 (List.length d.Incr.Progdiff.removed);
  Alcotest.(check int) "no added vars" 0
    (List.length d.Incr.Progdiff.added_vars);
  Alcotest.(check int) "no removed vars" 0
    (List.length d.Incr.Progdiff.removed_vars)

(* ------------------------------------------------------------------ *)
(* Warm start and scratch solves                                       *)
(* ------------------------------------------------------------------ *)

let test_additive_warm_start () =
  let base = compile src_base in
  let edited = compile src_edited in
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let t = Core.Solver.run ~engine ~strategy:(strategy id) base in
          let t, st = Incr.Engine.reanalyze t edited in
          Alcotest.(check bool) (ename ^ " no fallback") false
            st.Incr.Engine.fallback;
          Alcotest.(check int) (ename ^ " removed") 0
            st.Incr.Engine.stmts_removed;
          Alcotest.(check int) (ename ^ " added") 1 st.Incr.Engine.stmts_added;
          check_vs_scratch ~label:"additive" ~engine ~id t edited)
        engines)
    all_ids

(* A removal is solved from scratch: a fresh solver of the edited
   program, the base left as it was. *)
let test_retraction () =
  let base = compile src_edited in
  let edited = compile src_base in
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let t0 = Core.Solver.run ~engine ~strategy:(strategy id) base in
          let edges0 = Core.Graph.edge_count t0.Core.Solver.graph in
          let t, st = Incr.Engine.reanalyze t0 edited in
          Alcotest.(check bool) (ename ^ " solved from scratch") true
            st.Incr.Engine.fallback;
          Alcotest.(check bool) (ename ^ " fresh solver") true (t != t0);
          Alcotest.(check bool) (ename ^ " on the edited program") true
            (t.Core.Solver.prog == edited);
          Alcotest.(check int) (ename ^ " base untouched") edges0
            (Core.Graph.edge_count t0.Core.Solver.graph);
          Alcotest.(check int) (ename ^ " removed") 1
            st.Incr.Engine.stmts_removed;
          Alcotest.(check int) (ename ^ " nothing retracted") 0
            st.Incr.Engine.facts_retracted;
          check_vs_scratch ~label:"retraction" ~engine ~id t edited)
        engines)
    all_ids

(* A collapsed 3-cell copy cycle loses one of its statements: y must
   leave a and b, as it does from scratch. *)
let test_retract_collapsed_cycle () =
  let cycle back_edge =
    Printf.sprintf
      {|
        void *a, *b, *c;
        int x, y;
        void main(void) {
          a = (void *)&x;
          b = a;
          c = b;
          %s
          c = (void *)&y;
        }
      |}
      back_edge
  in
  let base = compile (cycle "a = c;") in
  let edited = compile (cycle "") in
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let t = Core.Solver.run ~engine ~strategy:(strategy id) base in
          if engine = `Delta && t.Core.Solver.cycles_found = 0 then
            Alcotest.failf "%s/%s: the base cycle was not collapsed" id ename;
          let t, st = Incr.Engine.reanalyze t edited in
          Alcotest.(check int) (ename ^ " removed") 1
            st.Incr.Engine.stmts_removed;
          check_vs_scratch ~label:"collapsed cycle" ~engine ~id t edited)
        engines)
    all_ids

(** Chained edits through the same solver: add, then remove, then
    mutate, comparing against scratch at every step. *)
let test_edit_chain () =
  let base = compile src_base in
  List.iter
    (fun id ->
      List.iter
        (fun (_, engine) ->
          let t = ref (Core.Solver.run ~engine ~strategy:(strategy id) base) in
          let rand = Random.State.make [| base_seed; 7 |] in
          for step = 1 to 4 do
            match Incr.Edit.random_op ~rand !t.Core.Solver.prog with
            | None -> ()
            | Some op ->
                let edited = Incr.Edit.apply !t.Core.Solver.prog [ op ] in
                let t', _ = Incr.Engine.reanalyze !t edited in
                t := t';
                check_vs_scratch
                  ~label:(Printf.sprintf "chain step %d" step)
                  ~engine ~id !t edited
          done)
        engines)
    all_ids

let test_fallback_degraded_base () =
  let base, edited = compile src_base, compile src_edited in
  let budget = { Core.Budget.unlimited with Core.Budget.max_steps = Some 1 } in
  let t = Core.Solver.run ~budget ~strategy:(strategy "cis") base in
  Alcotest.(check bool) "base degraded" true (Core.Solver.degraded t);
  let diags = Diag.create () in
  let _, st = Incr.Engine.reanalyze ~diags t edited in
  Alcotest.(check bool) "an additive edit of a degraded base: scratch" true
    st.Incr.Engine.fallback;
  Alcotest.(check int) "no warning" 0 (List.length (Diag.warnings diags))

(** The warm solver's incr counters surface through metrics and the
    stats JSON. *)
let test_incr_metrics_reported () =
  let base = compile src_base in
  let edited = compile src_edited in
  let t = Core.Solver.run ~strategy:(strategy "cis") base in
  let t, st = Incr.Engine.reanalyze t edited in
  let m = Core.Metrics.summarize t in
  Alcotest.(check int) "added" st.Incr.Engine.stmts_added
    m.Core.Metrics.incr_stmts_added;
  Alcotest.(check int) "warm visits" st.Incr.Engine.warm_visits
    m.Core.Metrics.incr_warm_visits;
  let j =
    Core.Report.json_of_result ~timing:false ~name:"m" (mk_result t)
  in
  let contains needle =
    let rec find i =
      i + String.length needle <= String.length j
      && (String.sub j i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "stats json carries the counters" true
    (contains "\"incr_stmts_added\":1");
  Alcotest.(check bool) "retired counters stay on the wire at 0" true
    (contains "\"incr_facts_retracted\":0"
    && contains "\"incr_fallback_planned\":0");
  (* the stats-free rendering must NOT leak engine-dependent counters *)
  let j' = stats_free_json ~name:"m" t in
  Alcotest.(check bool) "stats-free json omits them" false
    (let needle = "incr_stmts_added" in
     let rec find i =
       i + String.length needle <= String.length j'
       && (String.sub j' i (String.length needle) = needle || find (i + 1))
     in
     find 0)

(** A [Queries.t] built before a warm re-analysis answers for the edited
    program: [reanalyze] warm-starts the solver in place, and the
    query's name index follows its program. *)
let test_queries_index_follows_reanalyze () =
  let base = compile src_base in
  let edited = compile src_edited in
  let t = Core.Solver.run ~strategy:(strategy "cis") base in
  let q = Clients.Queries.of_solver t in
  let targets_of name =
    match Clients.Queries.find_var q name with
    | None -> Alcotest.failf "%s not found" name
    | Some v ->
        List.map cell_name
          (Core.Cell.Set.elements (Clients.Queries.points_to_expanded q v))
  in
  Alcotest.(check (list string)) "q before the edit" [ "y" ] (targets_of "q");
  let t', st = Incr.Engine.reanalyze t edited in
  Alcotest.(check bool) "warm start, in place" true (t == t');
  Alcotest.(check bool) "no fallback" false st.Incr.Engine.fallback;
  Alcotest.(check (list string)) "q after the edit" [ "x"; "y" ]
    (List.sort compare (targets_of "q"))

(* ------------------------------------------------------------------ *)
(* Removals answer like scratch                                        *)
(* ------------------------------------------------------------------ *)

(** Removing one arm of a derivation diamond keeps the fact, removing
    the last arm drops it, exactly as from scratch. *)
let test_dred_diamond () =
  let two = compile {| int x; int *p, *q;
                       void main(void) { p = &x; p = &x; q = p; } |} in
  let one = compile {| int x; int *p, *q;
                       void main(void) { p = &x; q = p; } |} in
  check_edit ~label:"direct diamond" ~expect:false two one;
  let both = compile {| int x; int *a, *b, *d;
                        void main(void) { a = &x; b = &x; d = a; d = b; } |} in
  let left = compile {| int x; int *a, *b, *d;
                        void main(void) { a = &x; b = &x; d = b; } |} in
  let none = compile {| int x; int *a, *b, *d;
                        void main(void) { a = &x; b = &x; } |} in
  check_edit ~label:"copy diamond" ~expect:false both left;
  check_edit ~label:"last arm" ~expect:false left none

(** A mutation that only flips [is_source_deref] derives the same
    constraints; the differ pairs it with the base statement (keeping
    the id, taking the flag) and the edit warm-starts. *)
let test_mutate_equivalence () =
  let base = compile src_base in
  let f =
    List.find (fun (f : Nast.func) -> f.Nast.fname = "main") base.Nast.pfuncs
  in
  let s = List.hd f.Nast.fstmts in
  let op =
    Incr.Edit.Mutate ("main", 0, s.Nast.kind, not s.Nast.is_source_deref)
  in
  let edited = Incr.Edit.apply base [ op ] in
  let aligned, d = align ~base edited in
  Alcotest.(check int) "no added" 0 (List.length d.Incr.Progdiff.added);
  Alcotest.(check int) "no removed" 0 (List.length d.Incr.Progdiff.removed);
  let s' =
    List.find
      (fun (a : Nast.stmt) -> a.Nast.id = s.Nast.id)
      (Nast.all_stmts aligned)
  in
  Alcotest.(check bool) "base id kept, edited flag taken"
    (not s.Nast.is_source_deref) s'.Nast.is_source_deref;
  let t = Core.Solver.run ~strategy:(strategy "cis") base in
  let t, st = Incr.Engine.reanalyze t edited in
  Alcotest.(check bool) "no fallback" false st.Incr.Engine.fallback;
  Alcotest.(check int) "no removal" 0 st.Incr.Engine.stmts_removed;
  check_vs_scratch ~label:"mutate-equivalence" ~engine:`Delta ~id:"cis" t
    edited

(** Removing one of two calls to an extern keeps it reported, removing
    the last caller drops it. *)
let test_extern_retraction () =
  let base =
    compile
      {|
        void mystery_a(int *p);
        void mystery_b(int *p);
        int x;
        void main(void) { mystery_a(&x); mystery_a(&x); mystery_b(&x); }
      |}
  in
  let edited =
    compile
      {|
        void mystery_a(int *p);
        void mystery_b(int *p);
        int x;
        void main(void) { mystery_a(&x); }
      |}
  in
  let t = Core.Solver.run ~strategy:(strategy "cis") base in
  Alcotest.(check (list string)) "both externs before the edit"
    [ "mystery_a"; "mystery_b" ]
    (List.sort compare (Core.Metrics.summarize t).Core.Metrics.unknown_externs);
  let t, st = Incr.Engine.reanalyze t edited in
  (* each source call lowers to an argument binding plus the call *)
  Alcotest.(check bool) "statements removed" true
    (st.Incr.Engine.stmts_removed > 0);
  Alcotest.(check (list string)) "a kept (second caller), b dropped"
    [ "mystery_a" ]
    (List.sort compare (Core.Metrics.summarize t).Core.Metrics.unknown_externs);
  check_vs_scratch ~label:"extern-retraction" ~engine:`Delta ~id:"cis" t
    edited

(** Removal-edit fuzz: chained remove/mutate scripts over a generated
    program, every engine and instance, scratch-checked at each step. *)
let test_removal_fuzz () =
  let cfg =
    { Cgen.default with Cgen.n_stmts = 60; n_structs = 3; cast_rate = 0.3 }
  in
  let base =
    Lower.compile ~file:"fuzz-removal" (Cgen.generate ~cfg ~seed:base_seed ())
  in
  let next_removal ~rand prog =
    let rec go tries =
      if tries = 0 then None
      else
        match Incr.Edit.random_op ~rand prog with
        | Some ((Incr.Edit.Remove _ | Incr.Edit.Mutate _) as op) -> Some op
        | Some _ -> go (tries - 1)
        | None -> None
    in
    go 50
  in
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let t = ref (Core.Solver.run ~engine ~strategy:(strategy id) base) in
          let rand = Random.State.make [| base_seed; 23 |] in
          for step = 1 to 3 do
            match next_removal ~rand !t.Core.Solver.prog with
            | None -> ()
            | Some op ->
                let edited = Incr.Edit.apply !t.Core.Solver.prog [ op ] in
                let t', _ = Incr.Engine.reanalyze !t edited in
                t := t';
                check_vs_scratch
                  ~label:
                    (Printf.sprintf "removal-fuzz %s step %d" ename step)
                  ~engine ~id !t edited
          done)
        engines)
    all_ids

(* ------------------------------------------------------------------ *)
(* Corpus differential                                                 *)
(* ------------------------------------------------------------------ *)

(** Every corpus program, all four instances: two random edits each,
    incremental vs scratch after every edit. Additive edits over the
    base's variables warm-start, so some edits must. *)
let test_corpus_differential () =
  let fallbacks = ref 0 and warms = ref 0 in
  List.iter
    (fun (p : Suite.program) ->
      let base = Lower.compile ~file:p.Suite.name p.Suite.source in
      List.iter
        (fun id ->
          let t = ref (Core.Solver.run ~strategy:(strategy id) base) in
          let rand = Random.State.make [| base_seed; Hashtbl.hash p.Suite.name |] in
          for _step = 1 to 2 do
            match Incr.Edit.random_op ~rand !t.Core.Solver.prog with
            | None -> ()
            | Some op ->
                let edited = Incr.Edit.apply !t.Core.Solver.prog [ op ] in
                let t', st = Incr.Engine.reanalyze !t edited in
                t := t';
                if st.Incr.Engine.fallback then incr fallbacks else incr warms;
                check_vs_scratch ~label:p.Suite.name ~engine:`Delta ~id !t
                  edited
          done)
        all_ids)
    Suite.programs;
  if !warms = 0 then
    Alcotest.failf "every corpus edit was solved from scratch (%d)" !fallbacks

(* Keys are durable identities — store keys and the ancestor match
   both hash them — so their bytes are pinned here, taken from the
   Format-based renderer they replaced; a struct/union type carries the
   digest of the member lists it reaches. *)
let test_golden_var_keys () =
  let loc = { Srcloc.dummy with Srcloc.line = 12 } in
  List.iter
    (fun (kind, want) ->
      let v = Cvar.fresh ~name:"v" ~ty:(Ctype.Ptr Ctype.int_t) ~kind in
      Alcotest.(check string) want want (Incr.Progdiff.var_key v))
    Cvar.
      [
        (Global, "v|g|int*");
        (Local "main", "v|l:main|int*");
        (Param "f", "v|p:f|int*");
        (Temp "main", "v|t:main|int*");
        (Ret "f", "v|r:f|int*");
        (Heap (loc, 3), "v|h:3|int*");
        (Strlit 2, "v|s:2|int*");
        (Funval "f", "v|f:f|int*");
        (Vararg "f", "v|v:f|int*");
      ]

let golden_ifaces =
  [
    "id(q|p:id|int*)->$ret|r:id|int*~$varargs|v:id|void*";
    "main()";
  ]

let golden_stmt_keys =
  [
    "id|false|C|$ret|r:id|int*|q|p:id|int*|ε";
    "main|false|A|$tfa44eadc_0_0|t:main|int*(int*, ...)*|id|f:id|int*(int*, \
     ...)|ε";
    "main|false|C|fp|l:main|int*(int*, ...)*|$tfa44eadc_0_0|t:main|int*(int*, \
     ...)*|ε";
    "main|false|A|$t6947e3a8_0_0|t:main|int*|x|g|int|ε";
    "main|true|K|$t3d2897ad_0_0|t:main|int*|i:fp|l:main|int*(int*, \
     ...)*~eb11ce15447970512cb7544c42083245|$t6947e3a8_0_0|t:main|int*";
    "main|false|C|r|l:main|int*|$t3d2897ad_0_0|t:main|int*|ε";
    "main|false|A|$tde8e5c8e_0_0|t:main|char*|buf|g|char[8]|ε";
    "main|false|C|$t21facdf7_0_0|t:main|int*|$tde8e5c8e_0_0|t:main|char*|ε";
    "main|false|K|$t6ab55b24_0_0|t:main|int*|d:id~id(q|p:id|int*)->$ret|r:id|int*~$varargs|v:id|void*|$t21facdf7_0_0|t:main|int*";
    "main|false|C|r|l:main|int*|$t6ab55b24_0_0|t:main|int*|ε";
    "main|false|A|$t34e85790_0_0|t:main|int**|g|g|struct pair#0e7b384c8104ed00a88aa162815153ee|a";
    "main|false|S|$t34e85790_0_0|t:main|int**|r|l:main|int*";
    "main|true|S|r|l:main|int*|$tb3d0d396_0_1|t:main|int";
    "main|false|R|$t909b6b5b_0_0|t:main|int*|r|l:main|int*";
    "main|false|R|$t909b6b5b_0_0|t:main|int*|$t4da316b0_0_1|t:main|int";
    "main|false|C|r|l:main|int*|$t909b6b5b_0_0|t:main|int*|ε";
    "main|false|C|$t0e72fbc4_0_0|t:main|int*|g|g|struct pair#0e7b384c8104ed00a88aa162815153ee|a";
    "main|false|A|$tfce19b53_0_0|t:main|int**|v|l:main|union u#fa2691a1f491ae5a300fd6881bb734bd|p";
    "main|false|S|$tfce19b53_0_0|t:main|int**|$t0e72fbc4_0_0|t:main|int*";
    "main|false|K|$t82a708c8_0_0|t:main|int|d:malloc~undef|$t82a708c8_0_1|t:main|int";
    "main|false|A|$t82a708c8_0_0|t:main|int|$malloc1|h:1|int|ε";
    "main|false|C|$t415a8d2b_0_0|t:main|int*|$t82a708c8_0_0|t:main|int|ε";
    "main|false|C|r|l:main|int*|$t415a8d2b_0_0|t:main|int*|ε";
    "main|false|A|$t94463502_0_0|t:main|char*|$str0|s:0|char[3]|ε";
    "main|false|A|$t512c3c21_0_0|t:main|char**|g|g|struct pair#0e7b384c8104ed00a88aa162815153ee|b";
    "main|false|S|$t512c3c21_0_0|t:main|char**|$t94463502_0_0|t:main|char*";
    "main|false|A|pp|l:main|int**|r|l:main|int*|ε";
    "main|true|L|r|l:main|int*|pp|l:main|int**";
    "main|false|A|sp|l:main|struct pair#0e7b384c8104ed00a88aa162815153ee*|g|g|struct pair#0e7b384c8104ed00a88aa162815153ee|ε";
    "main|true|D|pp|l:main|int**|sp|l:main|struct pair#0e7b384c8104ed00a88aa162815153ee*|a";
  ]

let program_keys ~iface ~interface ~stmt (p : Nast.program) =
  List.map interface p.Nast.pfuncs,
  List.concat_map
    (fun (f : Nast.func) -> List.map (stmt ~iface ~scope:f.Nast.fname) f.Nast.fstmts)
    p.Nast.pfuncs

(** Every statement kind's key, and the canonical temp names inside
    them, byte for byte — through the one-shot functions and through a
    keyer. *)
let test_golden_stmt_keys () =
  let p = compile golden_keys_src in
  Alcotest.(check (list string)) "no initializers" []
    (List.map
       (Incr.Progdiff.stmt_key ~iface:(Incr.Progdiff.iface_of_program p)
          ~scope:"<init>")
       p.Nast.pinit);
  let check label (ifaces, stmts) =
    Alcotest.(check (list string)) (label ^ ": interfaces") golden_ifaces ifaces;
    Alcotest.(check (list string)) (label ^ ": statements") golden_stmt_keys stmts
  in
  check "one-shot"
    (program_keys ~iface:(Incr.Progdiff.iface_of_program p)
       ~interface:Incr.Progdiff.interface_key ~stmt:Incr.Progdiff.stmt_key p);
  let kr = Incr.Progdiff.Keyer.create () in
  (* twice through one keyer: the second pass answers from the memo *)
  for _ = 1 to 2 do
    check "keyer"
      (program_keys
         ~iface:(Incr.Progdiff.Keyer.iface_of_program kr p)
         ~interface:(Incr.Progdiff.Keyer.interface kr)
         ~stmt:(Incr.Progdiff.Keyer.stmt kr) p)
  done;
  (* one canonical temp name: erased-shape digest, ordinal, position *)
  Alcotest.(check bool) "canonical temp" true
    (List.exists
       (fun (v : Cvar.t) -> v.Cvar.vname = "$t6947e3a8_0_0")
       p.Nast.pall_vars)

(** A keyer agrees with the one-shot functions on every corpus program,
    also when one keyer serves two compiles of the same source. *)
let test_keyer_agrees_on_corpus () =
  List.iter
    (fun (sp : Suite.program) ->
      let kr = Incr.Progdiff.Keyer.create () in
      for _ = 1 to 2 do
        let p = Lower.compile ~file:sp.Suite.name sp.Suite.source in
        List.iter
          (fun v ->
            Alcotest.(check string) sp.Suite.name (Incr.Progdiff.var_key v)
              (Incr.Progdiff.Keyer.var kr v))
          p.Nast.pall_vars;
        let one =
          program_keys ~iface:(Incr.Progdiff.iface_of_program p)
            ~interface:Incr.Progdiff.interface_key
            ~stmt:Incr.Progdiff.stmt_key p
        and memo =
          program_keys
            ~iface:(Incr.Progdiff.Keyer.iface_of_program kr p)
            ~interface:(Incr.Progdiff.Keyer.interface kr)
            ~stmt:(Incr.Progdiff.Keyer.stmt kr) p
        in
        Alcotest.(check (pair (list string) (list string))) sp.Suite.name one memo
      done)
    Suite.programs

(* The naive engine is a scratch-only oracle, and the warm path refuses
   it outright. *)
let test_rejects_naive () =
  let base = compile src_base in
  let t = Core.Solver.run ~engine:`Naive ~strategy:(strategy "cis") base in
  match Incr.Engine.reanalyze t (compile src_edited) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reanalyze accepted a naive solver"

(* A copy cycle through pointer arithmetic: deleting [p = &x;] leaves
   [p] and [q] feeding each other through [p = q + 1], and nothing
   points anywhere. A support-counting retraction kept 3 stale edges
   here; the edit must answer the 0 edges a scratch solve derives. *)
let arith_cycle_base =
  {|
    int x; int y;
    int *p;
    int *q;
    void main(void) {
      p = &x;
      q = p;
      p = q + 1;
    }
  |}

let arith_cycle_edited =
  {|
    int x; int y;
    int *p;
    int *q;
    void main(void) {
      q = p;
      p = q + 1;
    }
  |}

let test_arith_cycle_removal () =
  let edited = compile arith_cycle_edited in
  check_edit ~label:"arith cycle" ~expect:false (compile arith_cycle_base)
    edited;
  let t =
    Core.Solver.run ~strategy:(strategy "cis") (compile arith_cycle_base)
  in
  let t, _ = Incr.Engine.reanalyze t edited in
  Alcotest.(check int) "no edge left" 0
    (Core.Graph.edge_count t.Core.Solver.graph)

(* The class-path case: under collapse-always, deleting the first line
   of [main] breaks the copy cycle g0_a -> g1_b -> g1_a -> g0_a that
   [set_g3] stores into through [pg3]. A retraction that cleared the
   cycle's class answered 33 edges where a scratch solve derives 34. *)
let class_path_src ~first =
  String.concat "\n"
    [
      "struct G0 { char * f0; int * f1; char * f2; double f3; double f4; };";
      "struct G1 { int f0; char f1; char f2; struct G0 f3; };";
      "struct G2 { struct G0 f0; struct G1 * f1; };";
      "struct G3 { int f0; int f1; int f2; int * f3; };";
      "struct G0 g0_a; struct G1 g1_a; struct G1 g1_b;";
      "struct G2 g2_a; struct G2 g2_b; struct G3 g3_b; struct G3 * pg3;";
      "void set_g3(struct G3 *g, int *v) { g->f3 = v; }";
      "void main(void) {";
      (if first then "  g0_a = *(struct G0 *)&g1_a.f3;" else "");
      "  set_g3(pg3, &g3_b.f1);";
      "  g1_a.f3.f1 = g1_b.f3.f1;";
      "  g3_b = *(struct G3 *)&g1_b.f3;";
      "  g2_a.f1 = (struct G1 *)(&g3_b.f1);";
      "  g0_a.f0 = (char *)(&g2_b.f0.f0);";
      "  g1_b = *(struct G1 *)&g0_a;";
      "  pg3 = (struct G3 *)(&g1_b.f0);";
      "  g1_b.f2 = g2_a.f1->f2;";
      "  g0_a = *(struct G0 *)&g3_b;";
      "}";
    ]

let test_class_path_removal () =
  let edited = compile (class_path_src ~first:false) in
  check_edit ~label:"class path" (compile (class_path_src ~first:true)) edited;
  let t =
    Core.Solver.run ~strategy:(strategy "collapse-always")
      (compile (class_path_src ~first:true))
  in
  let t, _ = Incr.Engine.reanalyze t edited in
  Alcotest.(check int) "collapse-always: 34 edges, as from scratch" 34
    (Core.Graph.edge_count t.Core.Solver.graph)

(* [src] with the first line equal to [line] (after trimming) deleted,
   or duplicated *)
let edit_line ~dup ~line src =
  let found = ref false in
  let lines =
    List.concat_map
      (fun l ->
        if (not !found) && String.trim l = line then begin
          found := true;
          if dup then [ l; l ] else []
        end
        else [ l ])
      (String.split_on_char '\n' src)
  in
  if not !found then Alcotest.failf "no line %S" line;
  String.concat "\n" lines

let corpus_source name = (Option.get (Suite.find name)).Suite.source

(* Duplicating ft's [v->parent = v;] adds only statements, but over a
   fresh temporary whose struct type came from the edited compile: a
   warm start on it answered 240 edges under collapse-on-cast where a
   scratch solve derives 56. *)
let test_ft_parent_duplication () =
  let src = corpus_source "ft" in
  let compile_ft s = Lower.compile ~file:"ft" s in
  check_edit ~label:"ft v->parent = v; twice" (compile_ft src)
    (compile_ft (edit_line ~dup:true ~line:"v->parent = v;" src))

(* The struct-definition reproducer: only a member's type changes, so
   every variable keeps its name and tag. Variable keys digest the
   member lists, so the edit re-keys [s] and is solved from scratch. *)
let struct_def_src member =
  Printf.sprintf
    "struct S { %s *a; int *b; } s; int x; int **q;\n\
     void main(void) { q = (int **)&s; *q = &x; }\n"
    member

let test_struct_definition_edit () =
  let base = compile (struct_def_src "int") in
  let edited = compile (struct_def_src "char") in
  let _, d = align ~base edited in
  Alcotest.(check bool) "s re-keyed" true
    (List.exists
       (fun (v : Cvar.t) -> v.Cvar.vname = "s")
       d.Incr.Progdiff.added_vars);
  check_edit ~label:"struct definition" ~expect:false base edited;
  List.iter
    (fun id ->
      let t = Core.Solver.run ~strategy:(strategy id) base in
      let t, _ = Incr.Engine.reanalyze t edited in
      if id = "collapse-on-cast" || id = "cis" then
        Alcotest.(check int) (id ^ ": 4 edges, as from scratch") 4
          (Core.Graph.edge_count t.Core.Solver.graph))
    all_ids

(* Known defect: two block locals of one name and type share a key
   (see [Progdiff]), so a nested block that declares a second [n] is
   aligned onto the first. The edit then looks additive, and the warm
   start merges the two variables' facts: 4 edges, where a scratch
   solve of the edited program derives 3. Pinned as today's answer;
   keying shadowed locals apart must flip it on purpose. *)
let shadow_src second =
  Printf.sprintf
    "int x, y; int *p;\n\
     void main(void) {\n\
    \  { int *n; n = &x; p = n; }\n\
    \  %s\n\
     }\n"
    (if second then "{ int *n; n = &y; }" else "")

let test_known_defect_shadowed_key () =
  let base = compile (shadow_src false) in
  let edited = compile (shadow_src true) in
  List.iter
    (fun id ->
      List.iter
        (fun (ename, engine) ->
          let label = Printf.sprintf "%s / %s" id ename in
          let t = Core.Solver.run ~engine ~strategy:(strategy id) base in
          let t, st = Incr.Engine.reanalyze t edited in
          Alcotest.(check bool) (label ^ ": warm") false
            st.Incr.Engine.fallback;
          Alcotest.(check int) (label ^ ": warm keeps 4 edges") 4
            (Core.Graph.edge_count t.Core.Solver.graph);
          let scratch =
            Core.Solver.run ~engine ~strategy:(strategy id) edited
          in
          Alcotest.(check int) (label ^ ": scratch derives 3 edges") 3
            (Core.Graph.edge_count scratch.Core.Solver.graph))
        engines)
    all_ids

(* ------------------------------------------------------------------ *)
(* A carried alignment index equals a fresh one                        *)
(* ------------------------------------------------------------------ *)

(* Statements and programs by identity: statement ids, flags, and the
   [vid] of every variable, so "equal" means the same values reused. *)
let kind_sig (k : Nast.kind) : string =
  let v (x : Cvar.t) = string_of_int x.Cvar.vid in
  let path = Ctype.path_to_string in
  String.concat " "
    (match k with
    | Nast.Addr (a, b, p) -> [ "A"; v a; v b; path p ]
    | Nast.Addr_deref (a, b, p) -> [ "D"; v a; v b; path p ]
    | Nast.Copy (a, b, p) -> [ "C"; v a; v b; path p ]
    | Nast.Load (a, b) -> [ "L"; v a; v b ]
    | Nast.Store (a, b) -> [ "S"; v a; v b ]
    | Nast.Arith (a, b) -> [ "R"; v a; v b ]
    | Nast.Call { Nast.cret; cfn; cargs } ->
        "K"
        :: (match cret with Some r -> v r | None -> "-")
        :: (match cfn with
           | Nast.Direct n -> "d:" ^ n
           | Nast.Indirect f -> "i:" ^ v f)
        :: List.map v cargs)

let stmt_sig (s : Nast.stmt) =
  Printf.sprintf "%d %b %s" s.Nast.id s.Nast.is_source_deref
    (kind_sig s.Nast.kind)

let vids vs =
  String.concat ","
    (List.map (fun (v : Cvar.t) -> string_of_int v.Cvar.vid) vs)

let program_sig (p : Nast.program) : string list =
  ("globals " ^ vids p.Nast.pglobals)
  :: ("vars " ^ vids p.Nast.pall_vars)
  :: ("externs "
     ^ String.concat ","
         (List.map (fun (n, v) -> n ^ "=" ^ vids [ v ]) p.Nast.pexterns))
  :: List.map stmt_sig p.Nast.pinit
  @ List.concat_map
      (fun (f : Nast.func) ->
        Printf.sprintf "func %s %s (%s) %s %s" f.Nast.fname
          (vids [ f.Nast.ffvar ])
          (vids f.Nast.fparams)
          (vids (Option.to_list f.Nast.fret))
          (vids (Option.to_list f.Nast.fvararg))
        :: List.map stmt_sig f.Nast.fstmts)
      p.Nast.pfuncs

let alignment_sig (a : Incr.Progdiff.alignment) =
  let d = a.Incr.Progdiff.delta in
  program_sig (Incr.Progdiff.program a.Incr.Progdiff.aligned)
  @ List.map (( ^ ) "added ") (List.map stmt_sig d.Incr.Progdiff.added)
  @ List.map (( ^ ) "removed ") (List.map stmt_sig d.Incr.Progdiff.removed)
  @ [
      "added vars " ^ vids d.Incr.Progdiff.added_vars;
      "removed vars " ^ vids d.Incr.Progdiff.removed_vars;
    ]

(* One step of a carried chain: align [edited] on the carried index, on
   an index keyed afresh from the same program, and on the carried
   index again; all three must agree. The edited program's own index,
   built from the alignment's keys, must align like one keyed afresh.
   Returns the next carried index. *)
let carried_step ~label (carried : Incr.Progdiff.index) edited =
  let c = Incr.Progdiff.align ~base:carried edited in
  let f =
    Incr.Progdiff.align
      ~base:(Incr.Progdiff.index (Incr.Progdiff.program carried))
      edited
  in
  Alcotest.(check (list string)) (label ^ ": carried == fresh")
    (alignment_sig f) (alignment_sig c);
  Alcotest.(check (list string)) (label ^ ": the carried index is unchanged")
    (alignment_sig c)
    (alignment_sig (Incr.Progdiff.align ~base:carried edited));
  let next = Incr.Progdiff.program carried in
  Alcotest.(check (list string)) (label ^ ": edited index == fresh")
    (alignment_sig
       (Incr.Progdiff.align ~base:(Incr.Progdiff.index edited) next))
    (alignment_sig
       (Incr.Progdiff.align ~base:(Lazy.force c.Incr.Progdiff.edited) next));
  c.Incr.Progdiff.aligned

(* The warm answer with every counter, along a chain of edits: once with
   every step keyed on the index the previous step carried, once with
   each step's base forced to a fresh index (a structurally equal copy
   of the solver's program misses the engine's carried index). *)
let warm_jsons ~fresh ~id (base : Nast.program)
    (edits : (Nast.program -> Nast.program) list) =
  let t = ref (Core.Solver.run ~engine:`Delta ~strategy:(strategy id) base) in
  List.mapi
    (fun i edit ->
      let prog = !t.Core.Solver.prog in
      if fresh then
        Core.Solver.set_program !t { prog with Nast.pfile = prog.Nast.pfile };
      let t', _ = Incr.Engine.reanalyze !t (edit !t.Core.Solver.prog) in
      t := t';
      Core.Report.json_of_result ~timing:false ~name:(string_of_int i)
        (mk_result t'))
    edits

let check_warm_chain ~label base edits =
  List.iter
    (fun id ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s / %s: warm answers, carried == fresh" label id)
        (warm_jsons ~fresh:true ~id base edits)
        (warm_jsons ~fresh:false ~id base edits))
    all_ids

(* Random line deletions and duplications inside function bodies that
   still compile cleanly, as a chain of sources. *)
let line_edits ~rand src n : string list =
  let ok s =
    let diags = Diag.create () in
    match Lower.compile ~diags ~file:"edit" s with
    | _ -> not (Diag.has_errors diags)
    | exception Diag.Error _ -> false
  in
  let rec chain src n acc =
    if n = 0 then List.rev acc
    else
      let lines = Array.of_list (String.split_on_char '\n' src) in
      let cands =
        List.filter
          (fun k ->
            let l = lines.(k) in
            String.length l > 2 && (l.[0] = ' ' || l.[0] = '\t')
            && String.ends_with ~suffix:";" (String.trim l)
            && not (String.contains l '{' || String.contains l '}'))
          (List.init (Array.length lines) Fun.id)
      in
      let rec pick tries =
        if tries = 0 || cands = [] then None
        else
          let k = List.nth cands (Random.State.int rand (List.length cands)) in
          let dup = Random.State.bool rand in
          let ls = Array.to_list lines in
          let s' =
            String.concat "\n"
              (List.concat
                 (List.mapi
                    (fun i l ->
                      if i <> k then [ l ] else if dup then [ l; l ] else [])
                    ls))
          in
          if ok s' then Some s' else pick (tries - 1)
      in
      match pick 20 with
      | None -> List.rev acc
      | Some s' -> chain s' (n - 1) (s' :: acc)
  in
  chain src n []

let test_carried_index_equals_fresh () =
  (* statement-level edits: the removal/insert fuzz's generator *)
  let cfg =
    { Cgen.default with Cgen.n_stmts = 60; n_structs = 3; cast_rate = 0.3 }
  in
  let base =
    Lower.compile ~file:"fuzz-carried" (Cgen.generate ~cfg ~seed:base_seed ())
  in
  let rand = Random.State.make [| base_seed; 29 |] in
  let carried = ref (Incr.Progdiff.index base) in
  let ops = ref [] in
  for step = 1 to 12 do
    match Incr.Edit.random_op ~rand (Incr.Progdiff.program !carried) with
    | None -> ()
    | Some op ->
        ops := op :: !ops;
        let edited = Incr.Edit.apply (Incr.Progdiff.program !carried) [ op ] in
        carried :=
          carried_step
            ~label:(Printf.sprintf "fuzz step %d" step)
            !carried edited
  done;
  check_warm_chain ~label:"fuzz" base
    (List.rev_map (fun op prog -> Incr.Edit.apply prog [ op ]) !ops);
  (* source-level edits of corpus programs *)
  List.iter
    (fun name ->
      let src = (Option.get (Suite.find name)).Suite.source in
      let rand = Random.State.make [| base_seed; Hashtbl.hash name |] in
      let versions = line_edits ~rand src 6 in
      if List.length versions < 3 then
        Alcotest.failf "%s: only %d line edits compile" name
          (List.length versions);
      let compile_v s = Lower.compile ~file:name s in
      let base = compile_v src in
      ignore
        (List.fold_left
           (fun (carried, step) v ->
             ( carried_step ~label:(Printf.sprintf "%s line edit %d" name step)
                 carried (compile_v v),
               step + 1 ))
           (Incr.Progdiff.index base, 1)
           versions);
      check_warm_chain ~label:name base
        (List.map (fun v _ -> compile_v v) versions))
    [ "bc"; "li"; "less"; "gzip"; "tbl" ]

(* ------------------------------------------------------------------ *)
(* Corpus line edits                                                   *)
(* ------------------------------------------------------------------ *)

(* A [… = …;] line: an assignment, or a declaration with an
   initializer, alone on its line *)
let is_assignment_line l =
  let t = String.trim l in
  let n = String.length t in
  let rec has_eq i =
    i + 3 <= n && (String.sub t i 3 = " = " || has_eq (i + 1))
  in
  n > 0 && t.[n - 1] = ';' && has_eq 0
  && not (String.contains t '{' || String.contains t '}')

(* The lines that broke an edit path once: deleting the malloc lines
   anagram:78, tbl:56 and tbl:158, duplicating ft's [v->parent = v;],
   and the arithmetic and list-link stores of li and yacr. *)
let named_lines =
  [
    ("anagram", "c = malloc(sizeof(struct anagram_class));");
    ("tbl", "e = malloc(sizeof(struct tbl_entry));");
    ("tbl", "sym = malloc(sizeof(struct symbol));");
    ("ft", "v->parent = v;");
    ("yacr", "t->nets = n;");
    ("li", "c->tag = c->tag & ~TAG_MARK_BIT;");
  ]

(** The edits of [p]'s source: every [stride]-th [… = …;] line (from
    [offset]) and every named line, each deleted and duplicated, as
    (label, edited source), keeping only edits that compile without
    errors — a duplicated declaration, or a deleted one still in use,
    does not. *)
let line_edits_of ~stride ~offset (p : Suite.program) =
  let lines = Array.of_list (String.split_on_char '\n' p.Suite.source) in
  let named l =
    List.exists
      (fun (n, text) -> n = p.Suite.name && String.trim l = text)
      named_lines
  in
  let k = ref 0 in
  let picked = ref [] in
  Array.iteri
    (fun i l ->
      if is_assignment_line l then begin
        if !k mod stride = offset || named l then picked := i :: !picked;
        incr k
      end)
    lines;
  List.concat_map
    (fun i ->
      List.filter_map
        (fun dup ->
          let src =
            String.concat "\n"
              (List.concat
                 (List.mapi
                    (fun j l ->
                      if j <> i then [ l ] else if dup then [ l; l ] else [])
                    (Array.to_list lines)))
          in
          let diags = Diag.create () in
          match Lower.compile ~diags ~file:p.Suite.name src with
          | prog when not (Diag.has_errors diags) ->
              Some
                ( Printf.sprintf "%s:%d %s" p.Suite.name (i + 1)
                    (if dup then "duplicated" else "deleted"),
                  prog )
          | _ -> None
          | exception Diag.Error _ -> None)
        [ false; true ])
    (List.rev !picked)

(** Delete or duplicate single [… = …;] lines of the 20 corpus programs
    and compare [reanalyze] with a scratch solve of the edited source,
    under cis and collapse-on-cast. All 935 such lines take minutes; a
    seeded sample of one line in 12, plus the named lines, keeps the
    run to a few seconds. *)
let test_corpus_line_edits () =
  let stride = 12 in
  let offset = base_seed mod stride in
  let cases = ref 0 in
  List.iter
    (fun (p : Suite.program) ->
      let base = Lower.compile ~file:p.Suite.name p.Suite.source in
      let edits = line_edits_of ~stride ~offset p in
      List.iter
        (fun id ->
          let fresh () = Core.Solver.run ~strategy:(strategy id) base in
          let t = ref (fresh ()) in
          List.iter
            (fun (label, edited) ->
              incr cases;
              let t', _ = Incr.Engine.reanalyze !t edited in
              check_vs_scratch ~label ~engine:`Delta ~id t' edited;
              (* a warm start moved the base solver on *)
              if t' == !t then t := fresh ())
            edits)
        [ "cis"; "collapse-on-cast" ])
    Suite.programs;
  if !cases < 100 then Alcotest.failf "only %d line edits ran" !cases

let suite =
  [
    tc "progdiff: identical compiles diff empty" test_diff_identity;
    tc "progdiff: one added statement, vars remapped" test_diff_addition;
    tc "progdiff: signature change invalidates calls" test_diff_signature_change;
    tc "progdiff: every function's signature reaches the fingerprint"
      test_signature_change_every_function;
    tc "progdiff: heap keys survive line shifts"
      test_heap_key_stable_under_line_shift;
    tc "additive warm start == scratch (all engines x instances)"
      test_additive_warm_start;
    tc "retraction == scratch (all engines x instances)" test_retraction;
    tc "random edit chain == scratch (all engines x instances)"
      test_edit_chain;
    tc "fallback: degraded base" test_fallback_degraded_base;
    tc "dred: alternate derivations survive removal" test_dred_diamond;
    tc "mutate that only flips the deref flag skips retraction"
      test_mutate_equivalence;
    tc "externs are retracted per statement" test_extern_retraction;
    tc "removal fuzz == scratch (all engines x instances)"
      test_removal_fuzz;
    tc "incr counters flow into metrics and reports"
      test_incr_metrics_reported;
    tc "queries index follows in-place reanalyze"
      test_queries_index_follows_reanalyze;
    tc "arithmetic cycle: removal == scratch" test_arith_cycle_removal;
    tc "class-path removal == scratch" test_class_path_removal;
    tc "ft parent duplication == scratch" test_ft_parent_duplication;
    tc "struct definition edit == scratch" test_struct_definition_edit;
    tc "corpus differential: 2 random edits x 4 instances"
      test_corpus_differential;
    tc "retraction breaks a collapsed copy cycle == scratch"
      test_retract_collapsed_cycle;
    tc "progdiff: golden variable keys" test_golden_var_keys;
    tc "progdiff: golden statement keys" test_golden_stmt_keys;
    tc "progdiff: keyer agrees on the corpus" test_keyer_agrees_on_corpus;
    tc "reanalyze rejects a naive solver" test_rejects_naive;
    tc "known defect: shadowed block locals share a key"
      test_known_defect_shadowed_key;
    tc "progdiff: a carried index aligns like a fresh one"
      test_carried_index_equals_fresh;
    tc "corpus line edits: delete or duplicate == scratch"
      test_corpus_line_edits;
  ]
