(** The summary cache's governing invariants, exercised end to end:

    - records rebind identity-free — a recompile of the same source
      hits on every function and produces the byte-identical stats-free
      report a scratch solve renders;
    - an edit invalidates exactly the dependent chain — the edited
      function and its transitive direct callers recompute, everything
      else hits ({!Sumdigest} keys compose callee keys);
    - corruption degrades to recompute — a flipped byte quarantines the
      record, costs a miss, and never changes a report;
    - budget degradation is sound and never poisons the cache — a
      degraded sub-solve refuses to write records. *)

open Cfront
open Helpers

let layout = Layout.ilp32
let layout_id = "ilp32"
let sid = "cis"
let budget = Core.Budget.default

(* A call DAG with reconvergence: main -> {set_gp, helper, chain, pick};
   editing one leaf must recompute exactly that leaf and main. *)
let src =
  {|
    struct node { struct node *next; int *val; };
    int a, b, c;
    int *gp;
    void set_gp(void) { gp = &a; }
    void helper(int **out) { *out = &b; }
    void chain(struct node *n, int *v) { n->val = v; n->next = n; }
    int *pick(int flag) {
      int *r;
      if (flag) r = &a; else r = &c;
      return r;
    }
    int main(void) {
      struct node s;
      int *p; int *q;
      set_gp();
      helper(&p);
      q = pick(1);
      chain(&s, q);
      return 0;
    }
  |}

(* [src] with set_gp's body changed (not grown): a non-additive edit *)
let src_edited =
  {|
    struct node { struct node *next; int *val; };
    int a, b, c;
    int *gp;
    void set_gp(void) { gp = &c; }
    void helper(int **out) { *out = &b; }
    void chain(struct node *n, int *v) { n->val = v; n->next = n; }
    int *pick(int flag) {
      int *r;
      if (flag) r = &a; else r = &c;
      return r;
    }
    int main(void) {
      struct node s;
      int *p; int *q;
      set_gp();
      helper(&p);
      q = pick(1);
      chain(&s, q);
      return 0;
    }
  |}

let n_funcs = 5

let fresh_dir () = temp_dir "structcast-sum"

let cfg ?(b = budget) () =
  {
    Store.Codec.strategy_id = sid;
    engine = `Summary;
    layout_id;
    arith = `Spread;
    budget = b;
  }

let solve ?b ~cache src_text =
  Summary.Engine.solve ~cache ~config:(cfg ?b ()) ~layout
    ~strategy:(strategy sid)
    (compile ~layout src_text)

let render solver =
  Core.Report.json_of_result ~timing:false ~solver_stats:false ~name:"t"
    {
      Core.Analysis.solver;
      metrics = Core.Metrics.summarize solver;
      time_s = 0.;
      degraded = Core.Solver.degradations solver;
      diags = [];
    }

let scratch_json src_text =
  render
    (Core.Solver.run ~layout ~arith:`Spread ~budget ~engine:`Naive ~track:true
       ~strategy:(strategy sid) (compile ~layout src_text))

let counters cache = Summary.Sumcache.counters cache

(* ------------------------------------------------------------------ *)

let test_cold_then_full_hits () =
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  let t1 = solve ~cache src in
  let c1 = counters cache in
  Alcotest.(check int) "cold misses" n_funcs c1.Core.Metrics.sum_misses;
  Alcotest.(check int) "cold hits" 0 c1.Core.Metrics.sum_hits;
  Alcotest.(check int) "records written" n_funcs
    c1.Core.Metrics.sum_written;
  Alcotest.(check string) "cold report == naive scratch" (scratch_json src)
    (render t1);
  (* a fresh handle and a fresh compile: records must rebind with no
     shared variable or statement identities *)
  let cache2 = Summary.Sumcache.open_cache dir in
  let t2 = solve ~cache:cache2 src in
  let c2 = counters cache2 in
  Alcotest.(check int) "warm hits" n_funcs c2.Core.Metrics.sum_hits;
  Alcotest.(check int) "warm misses" 0 c2.Core.Metrics.sum_misses;
  Alcotest.(check int) "nothing rewritten" 0 c2.Core.Metrics.sum_written;
  Alcotest.(check string) "warm report == naive scratch" (scratch_json src)
    (render t2)

let test_edit_recomputes_exactly_the_chain () =
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  ignore (solve ~cache src);
  let cache2 = Summary.Sumcache.open_cache dir in
  let t = solve ~cache:cache2 src_edited in
  let c = counters cache2 in
  (* dependent chain: set_gp (edited) + main (its only caller) *)
  Alcotest.(check int) "hits" (n_funcs - 2) c.Core.Metrics.sum_hits;
  Alcotest.(check int) "misses" 2 c.Core.Metrics.sum_misses;
  Alcotest.(check int) "chain rewritten" 2 c.Core.Metrics.sum_written;
  Alcotest.(check string) "edited report == naive scratch"
    (scratch_json src_edited) (render t)

let test_keys_change_exactly_for_callers_closure () =
  let base = compile ~layout src in
  let edited = compile ~layout src_edited in
  let config_line = Store.Codec.config_line (cfg ()) in
  let keys p =
    Summary.Sumdigest.keys ~config_line p (Summary.Callgraph.build p)
  in
  let kb = keys base and ke = keys edited in
  let changed = Incr.Progdiff.funcs_changed ~base edited in
  Alcotest.(check (list string)) "diff finds the edit" [ "set_gp" ] changed;
  let cg = Summary.Callgraph.build base in
  let chain = Summary.Callgraph.callers_closure cg changed in
  Alcotest.(check (list string))
    "dependent chain" [ "main"; "set_gp" ] chain;
  List.iter
    (fun (f : Norm.Nast.func) ->
      let n = f.Norm.Nast.fname in
      let same =
        Summary.Sumdigest.key_of kb n = Summary.Sumdigest.key_of ke n
      in
      if List.mem n chain then
        Alcotest.(check bool) (n ^ " key changed") false same
      else Alcotest.(check bool) (n ^ " key stable") true same)
    base.Norm.Nast.pfuncs

let test_corrupt_record_quarantined_not_believed () =
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  ignore (solve ~cache src);
  (* flip one byte in the middle of every record *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".sum" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let bytes = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let b = Bytes.of_string bytes in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc
      end)
    (Sys.readdir dir);
  let cache2 = Summary.Sumcache.open_cache dir in
  let t = solve ~cache:cache2 src in
  let c = counters cache2 in
  Alcotest.(check int) "no corrupt record believed" 0
    c.Core.Metrics.sum_hits;
  Alcotest.(check bool) "corruption counted" true
    (c.Core.Metrics.sum_corrupt > 0);
  Alcotest.(check bool) "quarantine holds the bodies" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) > 0);
  Alcotest.(check int) "clean records rewritten" n_funcs
    c.Core.Metrics.sum_written;
  Alcotest.(check string) "report still == naive scratch" (scratch_json src)
    (render t)

let test_degraded_sub_solve_refuses_records () =
  (* a budget tight enough to degrade: the cache must stay empty (a
     degraded sub-fixpoint over-approximates; caching it could poison a
     later precise solve), and the degraded answer must still be a
     sound over-approximation of the precise one *)
  let tight =
    {
      Core.Budget.max_steps = None;
      timeout_s = None;
      max_cells_per_object = Some 1;
      max_total_cells = None;
    }
  in
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  let t = solve ~b:tight ~cache src in
  Alcotest.(check bool) "solve degraded" true
    (Core.Solver.degradations t <> []);
  let c = counters cache in
  (* sub-solves that stayed under budget may record (their constraints
     are exact); the one that tripped must refuse *)
  Alcotest.(check bool) "a degraded sub-solve refused its record" true
    (c.Core.Metrics.sum_written < n_funcs);
  let precise =
    Core.Analysis.run ~layout ~strategy:(strategy sid)
      (compile ~layout src)
  in
  let degraded_r =
    {
      Core.Analysis.solver = t;
      metrics = Core.Metrics.summarize t;
      time_s = 0.;
      degraded = Core.Solver.degradations t;
      diags = [];
    }
  in
  let check_superset label (r : Core.Analysis.result) =
    List.iter
      (fun v ->
        let p = target_bases precise v and d = target_bases r v in
        List.iter
          (fun b ->
            if not (List.mem b d) then
              Alcotest.failf "%s lost %s -> %s" label v b)
          p)
      [ "gp"; "main::p"; "main::q" ]
  in
  check_superset "degraded summary" degraded_r;
  (* a second tight-budget solve may reuse the surviving records; it
     must still be a sound over-approximation *)
  let cache2 = Summary.Sumcache.open_cache dir in
  let t2 = solve ~b:tight ~cache:cache2 src in
  check_superset "warm degraded summary"
    {
      Core.Analysis.solver = t2;
      metrics = Core.Metrics.summarize t2;
      time_s = 0.;
      degraded = Core.Solver.degradations t2;
      diags = [];
    }

let test_record_roundtrip_both_selectors () =
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  let r =
    {
      Summary.Sumcache.r_fn = "f one";
      r_edges =
        [
          ( ("v|g|int *", Summary.Sumcache.Path [ "a b"; "c%d" ]),
            ("w|g|int", Summary.Sumcache.Off 12) );
        ];
      r_copies =
        [
          ( ("x|l:f|T", Summary.Sumcache.Path []),
            ("y|p:f|T", Summary.Sumcache.Off 0) );
        ];
    }
  in
  Summary.Sumcache.put cache ~key:"cafe" r;
  (match Summary.Sumcache.get cache ~key:"cafe" with
  | Some r' -> Alcotest.(check bool) "roundtrip" true (r = r')
  | None -> Alcotest.fail "record did not come back");
  (* truncation is corruption, not an answer *)
  let path = Filename.concat dir "cafe.sum" in
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (String.length bytes - 7));
  close_out oc;
  (match Summary.Sumcache.get cache ~key:"cafe" with
  | None -> ()
  | Some _ -> Alcotest.fail "truncated record believed");
  Alcotest.(check int) "truncation counted" 1
    (counters cache).Core.Metrics.sum_corrupt

(* A recorded copy must keep its [(dst, src)] orientation through the
   cache. With the orientation flipped, replaying [x = id(&a); x = &b]
   pushes x's facts backwards into id's return and parameter — a sound
   but inflated fixpoint, so the warm report stops being byte-equal. *)
let test_copy_orientation_preserved () =
  let asym =
    {|
int a;
int b;
int *id(int *p) { return p; }
int main() {
  int *x;
  x = id(&a);
  x = &b;
  return 0;
}
|}
  in
  let dir = fresh_dir () in
  let cache = Summary.Sumcache.open_cache dir in
  ignore (solve ~cache asym);
  (* the id record's only copy is [$ret ⊆= p]: dst mentions the return
     slot, src the parameter *)
  let prog = compile ~layout asym in
  let keys =
    Summary.Sumdigest.keys
      ~config_line:(Store.Codec.config_line (cfg ()))
      prog
      (Summary.Callgraph.build prog)
  in
  (match Summary.Sumdigest.key_of keys "id" with
  | None -> Alcotest.fail "no key for id"
  | Some key -> (
      match Summary.Sumcache.get cache ~key with
      | None -> Alcotest.fail "no record for id"
      | Some r ->
          let contains hay needle =
            let n = String.length needle in
            let rec go i =
              i + n <= String.length hay
              && (String.sub hay i n = needle || go (i + 1))
            in
            go 0
          in
          List.iter
            (fun (((dk, _) : Summary.Sumcache.endpoint), (sk, _)) ->
              Alcotest.(check bool) "copy dst is the return slot" true
                (contains dk "$ret");
              Alcotest.(check bool) "copy src is the parameter" false
                (contains sk "$ret"))
            r.Summary.Sumcache.r_copies));
  let cache2 = Summary.Sumcache.open_cache dir in
  let t = solve ~cache:cache2 asym in
  Alcotest.(check int) "warm hits" 2 (counters cache2).Core.Metrics.sum_hits;
  Alcotest.(check string) "warm report == naive scratch" (scratch_json asym)
    (render t)

let test_serve_composes_with_snapshot_store () =
  let dir = fresh_dir () in
  let store = Store.open_store dir in
  let cache =
    Summary.Sumcache.open_cache (Filename.concat dir "summaries")
  in
  let serve src_text =
    Summary.Engine.serve ~store ~cache ~want:`Json ~diags:[] ~name:"t"
      ~strategy_id:sid ~layout ~layout_id ~budget
      (compile ~layout src_text)
  in
  let s1 = serve src in
  Alcotest.(check string) "cold serve == naive scratch" (scratch_json src)
    s1.Store.sv_json;
  (* exact repeat short-circuits at the snapshot level: the summary
     cache is not consulted again *)
  let hits_before = (counters cache).Core.Metrics.sum_hits in
  let s2 = serve src in
  Alcotest.(check string) "hit serve == naive scratch" (scratch_json src)
    s2.Store.sv_json;
  Alcotest.(check int) "snapshot answered, not summaries" hits_before
    (counters cache).Core.Metrics.sum_hits;
  (* a non-additive edit is cold at the snapshot level but warm at the
     summary level *)
  let s3 = serve src_edited in
  Alcotest.(check string) "edited serve == naive scratch"
    (scratch_json src_edited) s3.Store.sv_json;
  Alcotest.(check int) "summary chains reused" (n_funcs - 2)
    (counters cache).Core.Metrics.sum_hits

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "cold solve, then a recompile hits every function"
      test_cold_then_full_hits;
    tc "an edit recomputes exactly the dependent chain"
      test_edit_recomputes_exactly_the_chain;
    tc "keys change exactly for the callers closure"
      test_keys_change_exactly_for_callers_closure;
    tc "corrupt record quarantined, never believed"
      test_corrupt_record_quarantined_not_believed;
    tc "degraded sub-solve refuses records, stays sound"
      test_degraded_sub_solve_refuses_records;
    tc "record wire roundtrip, truncation is corruption"
      test_record_roundtrip_both_selectors;
    tc "copy orientation survives the cache"
      test_copy_orientation_preserved;
    tc "serve composes snapshot store and summary cache"
      test_serve_composes_with_snapshot_store;
  ]
