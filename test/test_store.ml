(** The report store's governing invariant, exercised end to end: a
    corrupt, torn, or fault-injected store can cost time but never
    change a report. Every scenario — exact hit, near-repeat, bit flip,
    truncation, version skew, short write, ENOSPC, crash between fsync
    and rename, torn index tail, eviction — must produce
    the byte-identical stats-free report JSON a scratch solve renders,
    with the failure visible only in the store counters. *)

open Cfront
open Helpers

let layout = Layout.ilp32
let layout_id = "ilp32"
let sid = "cis"
let budget = Core.Budget.default

let src_a =
  {|
    struct node { struct node *next; int v; };
    struct node g1, g2, g3;
    struct node *head;
    void main(void) {
      head = &g1;
      g1.next = &g2;
      g2.next = &g3;
    }
  |}

(* [src_a] plus an appended function: a purely additive near-repeat. *)
let src_a_grown =
  {|
    struct node { struct node *next; int v; };
    struct node g1, g2, g3;
    struct node *head;
    void main(void) {
      head = &g1;
      g1.next = &g2;
      g2.next = &g3;
    }
    void tie(void) {
      g3.next = &g1;
    }
  |}

let src_b =
  {|
    int x, y;
    int *p, *q;
    void main(void) {
      p = &x;
      q = &y;
    }
  |}

let fresh_dir () = temp_dir "structcast-store"

let cfg engine =
  { Store.Codec.strategy_id = sid; engine; layout_id; arith = `Spread; budget }

let key_of src =
  Store.Codec.key (cfg `Delta) ~name:"t" ~diags_fp:"" (compile ~layout src)

(* One request through a fresh handle on [dir] — every call reopens the
   store, so recovery paths (index load, tmp sweep) run each time. *)
let serve ?(want = `Json) ?inject ?max_bytes ~dir src =
  let st = Store.open_store ?inject ?max_bytes dir in
  let served =
    Store.serve st ~want ~diags:[] ~name:"t" ~strategy_id:sid
      ~engine:`Delta ~layout ~layout_id ~budget (compile ~layout src)
  in
  (st, served)

let scratch src =
  Core.Solver.run ~layout ~budget ~engine:`Delta ~strategy:(strategy sid)
    (compile ~layout src)

let render solver =
  Core.Report.json_of_result ~timing:false ~solver_stats:false ~name:"t"
    {
      Core.Analysis.solver;
      metrics = Core.Metrics.summarize solver;
      time_s = 0.;
      degraded = Core.Solver.degradations solver;
      diags = [];
    }

let scratch_json src = render (scratch src)

let check_origin label expected (s : Store.served) =
  let show = function
    | `Hit -> "hit"
    | `Ancestor n -> Printf.sprintf "ancestor+%d" n
    | `Cold -> "cold"
  in
  Alcotest.(check string) label (show expected) (show s.Store.sv_origin)

let check_json label src (s : Store.served) =
  Alcotest.(check string) label (scratch_json src) s.Store.sv_json

let at1 fault n = if n = 1 then Some fault else None

let rewrite path f =
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f bytes);
  close_out oc

(* Requests the way [analyze --store --format json] and a [--store]
   serve job make them: from a file, through {!Server.Answer.run}. *)
let write_source dir file src =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir file in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  path

let record_key_of path =
  let src = Server.Source.load path in
  Store.Codec.record_key (cfg `Delta) ~name:src.Server.Source.name
    ~source:src.Server.Source.text

(* [~direct:(label, expected)] also checks whether the report record
   answered: a direct hit leaves the record file as it found it, while
   an answer from the compiled path rewrites it (temp + rename, so a
   new inode). *)
let answer ?direct ?inject ~dir path =
  let st = Store.open_store ?inject (Filename.concat dir "store") in
  let record = Store.record_path st (record_key_of path) in
  let inode () =
    match Unix.stat record with
    | s -> Some s.Unix.st_ino
    | exception Unix.Unix_error _ -> None
  in
  let before = inode () in
  let a =
    Server.Answer.run st ~layout ~layout_id ~strategy_id:sid ~engine:`Delta
      ~budget (Server.Source.load path)
  in
  Option.iter
    (fun (label, expected) ->
      Alcotest.(check bool) label expected
        (before <> None && inode () = before))
    direct;
  (st, a)

(* The scratch oracle for a file request: its own report name, its own
   includes, its own diagnostics. *)
let scratch_file path =
  let src = Server.Source.load path in
  let name = src.Server.Source.name in
  let diags = Diag.create () in
  let r =
    Core.Analysis.run_source ~layout ~budget ~engine:`Delta ~diags
      ~resolve:(Server.Source.resolve src) ~strategy:(strategy sid) ~file:name
      src.Server.Source.text
  in
  Core.Report.json_of_result ~timing:false ~solver_stats:false ~name r

(* ------------------------------------------------------------------ *)
(* Determinism of the codec                                            *)
(* ------------------------------------------------------------------ *)

(** Same source, compiled and solved twice in one process into two
    fresh stores: identical store key and byte-identical snapshot —
    interning order and hash seeds never leak into the stored bytes. *)
let test_digest_stability () =
  let once () =
    let dir = fresh_dir () in
    let st, _ = serve ~dir src_a in
    let key = key_of src_a in
    ( key,
      In_channel.with_open_bin (Store.snap_path st key) In_channel.input_all )
  in
  let k1, b1 = once () in
  let k2, b2 = once () in
  Alcotest.(check string) "key stable" k1 k2;
  Alcotest.(check string) "snapshot bytes stable" b1 b2

(* ------------------------------------------------------------------ *)
(* Exact repeats                                                       *)
(* ------------------------------------------------------------------ *)

let test_exact_hit_json () =
  let dir = fresh_dir () in
  let st1, s1 = serve ~want:`Json ~dir src_a in
  check_origin "first request is cold" `Cold s1;
  Alcotest.(check int) "snapshot cached" 1
    (Store.counters st1).Core.Metrics.snapshots_written;
  check_json "cold json == scratch" src_a s1;
  let st2, s2 = serve ~want:`Json ~dir src_a in
  check_origin "repeat is a hit" `Hit s2;
  Alcotest.(check int) "hit counted" 1 (Store.counters st2).Core.Metrics.hits;
  Alcotest.(check int) "no miss" 0 (Store.counters st2).Core.Metrics.misses;
  Alcotest.(check string) "stored report byte-identical" s1.Store.sv_json
    s2.Store.sv_json

(** A near-repeat — the cached program plus an appended function — is
    a plain cold miss: a store keeps reports, and no report can seed
    another program's solve. *)
let test_additive_near_repeat_cold () =
  let dir = fresh_dir () in
  let _, _ = serve ~dir src_a in
  let st2, s2 = serve ~dir src_a_grown in
  check_origin "near-repeat solves cold" `Cold s2;
  Alcotest.(check int) "no warm start" 0
    (Store.counters st2).Core.Metrics.ancestor_warm_starts;
  check_json "cold json == scratch" src_a_grown s2;
  let _, s3 = serve ~dir src_a_grown in
  check_origin "its own repeat hits" `Hit s3

(** Editing a struct's member types keeps every name and tag, but a
    variable key digests the member lists its type reaches: the edited
    program gets its own key, and is not answered with the first
    version's report (3 edges against its own 4 under the cis and
    collapse-on-cast instances). *)
let test_struct_definition_edit_misses () =
  let src member =
    Printf.sprintf
      "struct S { %s *a; int *b; } s; int x; int **q;\n\
       void main(void) { q = (int **)&s; *q = &x; }\n"
      member
  in
  Alcotest.(check bool) "keys differ" true
    (key_of (src "int") <> key_of (src "char"));
  let dir = fresh_dir () in
  ignore (serve ~dir (src "int"));
  let _, s2 = serve ~dir (src "char") in
  check_origin "the edited definition solves" `Cold s2;
  check_json "its own report" (src "char") s2

(** A shadowed local with its outer namesake's name and type gives two
    variables one variable key, so these two programs — which differ
    only in which [l] the dereference reads — share a store key but not
    a report (average dereference size 2 against 1). Neither is filed
    under it, so the second is never answered with the first's report. *)
let test_shadowed_key_never_filed () =
  let prog inner =
    Printf.sprintf
      {|
    int a, b, c;
    int x;
    void f(void) {
      int *l = &a;
      l = &c;
      %s
    }
  |}
      inner
  in
  let src_outer = prog "x = *l; { int *l = &b; }" in
  let src_inner = prog "{ int *l = &b; x = *l; }" in
  Alcotest.(check string) "one store key" (key_of src_outer) (key_of src_inner);
  let dir = fresh_dir () in
  let st1, _ = serve ~dir src_outer in
  Alcotest.(check int) "nothing filed" 0
    (Store.counters st1).Core.Metrics.snapshots_written;
  let _, s2 = serve ~dir src_inner in
  check_origin "the other program solves" `Cold s2;
  check_json "its own report" src_inner s2

(* ------------------------------------------------------------------ *)
(* Corruption detection and quarantine                                 *)
(* ------------------------------------------------------------------ *)

(** A snapshot that took a bit flip on the way to disk is detected by
    its checksum at next load, moved to quarantine (never deleted), and
    the request is answered from scratch — byte-identical. *)
let test_bit_flip_quarantined () =
  let dir = fresh_dir () in
  let st1, _ = serve ~inject:(at1 Store.Bit_flip) ~dir src_a in
  Alcotest.(check int) "corrupt snapshot landed" 1
    (Store.counters st1).Core.Metrics.snapshots_written;
  let st2, s2 = serve ~dir src_a in
  check_origin "corrupt snapshot never serves" `Cold s2;
  Alcotest.(check int) "quarantine counted" 1
    (Store.counters st2).Core.Metrics.corrupt_quarantined;
  Alcotest.(check bool) "corrupt bytes kept for post-mortem" true
    (Sys.file_exists (Store.quarantine_path st2 (key_of src_a)));
  check_json "answer unaffected" src_a s2;
  (* the scratch solve re-cached a clean snapshot *)
  let _, s3 = serve ~dir src_a in
  check_origin "store healed" `Hit s3

let test_truncation_quarantined () =
  let dir = fresh_dir () in
  let st1, _ = serve ~dir src_a in
  rewrite
    (Store.snap_path st1 (key_of src_a))
    (fun bytes -> String.sub bytes 0 (String.length bytes / 2));
  let st2, s2 = serve ~dir src_a in
  check_origin "truncated snapshot never serves" `Cold s2;
  Alcotest.(check int) "quarantine counted" 1
    (Store.counters st2).Core.Metrics.corrupt_quarantined;
  check_json "answer unaffected" src_a s2

(** Version skew is its own gate, checked before anything else is
    parsed: a snapshot from a future format version is quarantined even
    when its checksum (recomputed here over the altered payload) is
    valid. *)
let test_version_skew_quarantined () =
  let dir = fresh_dir () in
  let st1, _ = serve ~dir src_a in
  rewrite
    (Store.snap_path st1 (key_of src_a))
    (fun bytes ->
      (* bytes = "structcast-report v1\n" <body> "sum <32 hex>\n" *)
      let nl = String.index bytes '\n' in
      let trailer = 4 + 32 + 1 in
      let body = String.sub bytes nl (String.length bytes - trailer - nl) in
      let payload = "structcast-report v999" ^ body in
      payload ^ "sum " ^ Digest.to_hex (Digest.string payload) ^ "\n");
  let st2, s2 = serve ~dir src_a in
  check_origin "future version never serves" `Cold s2;
  Alcotest.(check int) "quarantine counted" 1
    (Store.counters st2).Core.Metrics.corrupt_quarantined;
  check_json "answer unaffected" src_a s2

(** A solver-state snapshot ([structcast-snap v1]) that an older
    binary left under the requested key verifies its checksum but not
    its version: quarantined once, the answer unchanged, and the report
    written in its place answers the repeat. *)
let test_old_snapshot_quarantined () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let payload =
    "structcast-snap v1\nkey " ^ key_of src_a
    ^ "\ncfg x\nname t\nvars 0\ncells 0\nreport\n{}\n"
  in
  Out_channel.with_open_bin (Store.snap_path st (key_of src_a)) (fun oc ->
      output_string oc
        (payload ^ "sum " ^ Digest.to_hex (Digest.string payload) ^ "\n"));
  let st1, s1 = serve ~dir src_a in
  check_origin "old snapshot never serves" `Cold s1;
  Alcotest.(check int) "quarantined as version skew" 1
    (Store.counters st1).Core.Metrics.corrupt_quarantined;
  Alcotest.(check bool) "old bytes kept for post-mortem" true
    (Sys.file_exists (Store.quarantine_path st1 (key_of src_a)));
  check_json "answer unaffected" src_a s1;
  let st2, s2 = serve ~dir src_a in
  check_origin "repeat hits" `Hit s2;
  Alcotest.(check int) "nothing more quarantined" 0
    (Store.counters st2).Core.Metrics.corrupt_quarantined

(* ------------------------------------------------------------------ *)
(* Report records (direct mode)                                        *)
(* ------------------------------------------------------------------ *)

let src_inc =
  {|
    #include "node.h"
    struct node g1, g2;
    struct node *head;
    void main(void) { head = &g1; g1.next = &g2; }
  |}

(** An exact repeat of the source bytes is answered from the report
    record, byte-identical to scratch, counted as one hit. *)
let test_direct_hit () =
  let dir = fresh_dir () in
  let path = write_source dir "a.c" src_a in
  let _, _ = answer ~direct:("first request compiles", false) ~dir path in
  let st2, a2 = answer ~direct:("repeat is a direct hit", true) ~dir path in
  Alcotest.(check int) "hit counted" 1 (Store.counters st2).Core.Metrics.hits;
  Alcotest.(check int) "no miss" 0 (Store.counters st2).Core.Metrics.misses;
  Alcotest.(check string) "direct hit == scratch" (scratch_file path)
    a2.Server.Answer.report;
  Alcotest.(check string) "counter block spliced"
    (Store.with_counters st2 a2.Server.Answer.report)
    a2.Server.Answer.json

(** The key holds the main source only; each include is re-checked
    against its recorded digest. Editing a header or deleting it is a
    miss that answers the program as it now reads. *)
let test_direct_include_changes () =
  let dir = fresh_dir () in
  let header = {|struct node { struct node *next; int v; };|} in
  ignore (write_source dir "node.h" header);
  let path = write_source dir "m.c" src_inc in
  let _, _ = answer ~dir path in
  let _, a = answer ~direct:("unchanged header: direct hit", true) ~dir path in
  Alcotest.(check string) "== scratch" (scratch_file path) a.Server.Answer.report;
  ignore
    (write_source dir "node.h"
       {|struct node { int v; struct node *next; int *w; };|});
  let _, a = answer ~direct:("edited header: miss", false) ~dir path in
  Alcotest.(check string) "edited header: the new program" (scratch_file path)
    a.Server.Answer.report;
  let _, a = answer ~direct:("then a direct hit again", true) ~dir path in
  Alcotest.(check string) "still == scratch" (scratch_file path)
    a.Server.Answer.report;
  Sys.remove (Filename.concat dir "node.h");
  let fatal f =
    match f () with
    | _ -> None
    | exception Diag.Error p -> Some (Fmt.str "%a" Diag.pp_payload p)
  in
  let expected = fatal (fun () -> scratch_file path) in
  Alcotest.(check bool) "scratch fails without the header" true
    (expected <> None);
  Alcotest.(check (option string)) "deleted header: the same front-end error"
    expected
    (fatal (fun () -> answer ~dir path))

(** A record lists an include that was absent when it was written; the
    file appearing later is a miss. (The preprocessor fails on an
    unresolvable include, so only a record written by hand lists one.) *)
let test_direct_absent_include () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let path = write_source dir "a.c" src_a in
  let src = Server.Source.load path in
  let key = record_key_of path in
  Store.put_record st ~key ~includes:[ ("extra.h", None) ] ~diag_errors:false
    "{}";
  let find () =
    Store.find_record st ~key
      ~include_digest:(Server.Source.include_digest src)
  in
  Alcotest.(check (option (pair string bool))) "still absent: hit"
    (Some ("{}", false)) (find ());
  ignore (write_source dir "extra.h" "int x;");
  Alcotest.(check (option (pair string bool))) "now present: miss" None
    (find ())

(** The same bytes under another file name answer another report name:
    no record is shared. *)
let test_direct_other_name () =
  let dir = fresh_dir () in
  let a_path = write_source dir "a.c" src_a in
  let b_path = write_source dir "b.c" src_a in
  let _, _ = answer ~dir a_path in
  let _, b = answer ~direct:("another name: miss", false) ~dir b_path in
  Alcotest.(check string) "== scratch of b.c" (scratch_file b_path)
    b.Server.Answer.report

(** A whitespace-only edit changes the source bytes but not the
    normalized program: a direct miss served by the snapshot, whose
    answer then writes the edited file's record. *)
let test_direct_whitespace_edit () =
  let dir = fresh_dir () in
  let path = write_source dir "a.c" src_a in
  let _, _ = answer ~dir path in
  ignore (write_source dir "a.c" ("\n\n" ^ src_a ^ "\n"));
  let st, a =
    answer ~direct:("whitespace edit: direct miss", false) ~dir path
  in
  Alcotest.(check int) "snapshot hit" 1 (Store.counters st).Core.Metrics.hits;
  Alcotest.(check string) "== scratch" (scratch_file path) a.Server.Answer.report;
  let _, a = answer ~direct:("next repeat: direct hit", true) ~dir path in
  Alcotest.(check string) "still == scratch" (scratch_file path)
    a.Server.Answer.report

(** A record that took a bit flip (its write is the third of a cold
    request: snapshot, index line, record) or was truncated is
    quarantined, and the answer comes from the snapshot unchanged. *)
let test_direct_corrupt_record () =
  let check_quarantined label ~dir path =
    let st, a = answer ~direct:(label ^ ": not served", false) ~dir path in
    Alcotest.(check int) (label ^ ": quarantine counted") 1
      (Store.counters st).Core.Metrics.corrupt_quarantined;
    Alcotest.(check bool) (label ^ ": bytes kept for post-mortem") true
      (Sys.file_exists
         (Filename.concat
            (Filename.concat (Filename.concat dir "store") "quarantine")
            (record_key_of path ^ ".rec")));
    Alcotest.(check string) (label ^ ": answer unaffected")
      (scratch_file path) a.Server.Answer.report
  in
  let dir = fresh_dir () in
  let path = write_source dir "a.c" src_a in
  let _, _ = answer ~inject:(fun n -> if n = 3 then Some Store.Bit_flip else None) ~dir path in
  check_quarantined "bit flip" ~dir path;
  let dir = fresh_dir () in
  let path = write_source dir "a.c" src_a in
  let st, _ = answer ~dir path in
  rewrite
    (Store.record_path st (record_key_of path))
    (fun bytes -> String.sub bytes 0 (String.length bytes / 2));
  check_quarantined "truncation" ~dir path

(* ------------------------------------------------------------------ *)
(* Write faults                                                        *)
(* ------------------------------------------------------------------ *)

(** kill -9 between fsync and rename: a durable temp file, no visible
    snapshot. The store stays loadable, the stray temp is swept at next
    open, and the next run of the same input is byte-identical. *)
let test_crash_between_fsync_and_rename () =
  let dir = fresh_dir () in
  let st1, s1 = serve ~inject:(at1 Store.Crash_rename) ~dir src_a in
  check_origin "the interrupted run still answers" `Cold s1;
  Alcotest.(check int) "write failure counted" 1
    (Store.counters st1).Core.Metrics.write_failures;
  Alcotest.(check int) "nothing stored" 0
    (Store.counters st1).Core.Metrics.snapshots_written;
  let snaps = Filename.concat dir "snaps" in
  let tmps d =
    Array.to_list (Sys.readdir d)
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check bool) "durable temp left behind" true (tmps snaps <> []);
  Alcotest.(check bool) "no snapshot became visible" false
    (Sys.file_exists (Store.snap_path st1 (key_of src_a)));
  let _, s2 = serve ~dir src_a in
  Alcotest.(check (list string)) "stray temp swept at open" [] (tmps snaps);
  check_origin "next run solves cold" `Cold s2;
  Alcotest.(check string) "and is byte-identical" s1.Store.sv_json
    s2.Store.sv_json;
  let _, s3 = serve ~dir src_a in
  check_origin "then the cache works again" `Hit s3

(** ENOSPC on the snapshot write is contained: counted, logged, and the
    answer this run computed is served unchanged. *)
let test_enospc_contained () =
  let dir = fresh_dir () in
  let st1, s1 = serve ~inject:(at1 Store.Enospc) ~dir src_a in
  check_origin "still answers" `Cold s1;
  Alcotest.(check int) "write failure counted" 1
    (Store.counters st1).Core.Metrics.write_failures;
  check_json "answer unaffected" src_a s1

(** A short write completes the rename — a torn-but-visible snapshot
    the checksum must catch on the next load. *)
let test_short_write_caught_later () =
  let dir = fresh_dir () in
  let _, _ = serve ~inject:(at1 Store.Short_write) ~dir src_a in
  let st2, s2 = serve ~dir src_a in
  check_origin "torn snapshot never serves" `Cold s2;
  Alcotest.(check int) "quarantine counted" 1
    (Store.counters st2).Core.Metrics.corrupt_quarantined;
  check_json "answer unaffected" src_a s2

(** The acceptance sweep: every fault kind, injected at each write
    ordinal of a cold request, over a three-request sequence — each
    request reopens the store, so the same ordinal also strikes the
    later requests' touch, quarantine and rewrite lines. Two request
    paths are swept. {!Store.serve} in [`Json] mode (the compiled path
    of a JSON request; the bench) at ordinals 1–3 exercises snapshot
    verification and quarantine-then-recompute. {!Server.Answer.run} from a file (what
    [analyze --store --format json] and a serve job use) at ordinals
    1–4 — snapshot, its index line, report record, its index line —
    exercises the record's writes. The report JSON must equal the
    scratch rendering every single time. *)
let test_differential_under_faults () =
  let oracle = scratch_json src_a in
  let kinds =
    [
      ("shortwrite", Store.Short_write);
      ("bitflip", Store.Bit_flip);
      ("enospc", Store.Enospc);
      ("crash", Store.Crash_rename);
    ]
  in
  List.iter
    (fun (kname, kind) ->
      for ordinal = 1 to 3 do
        let dir = fresh_dir () in
        let inject n = if n = ordinal then Some kind else None in
        for req = 1 to 3 do
          let _, s = serve ~inject ~dir src_a in
          Alcotest.(check string)
            (Printf.sprintf "%s@%d request %d" kname ordinal req)
            oracle s.Store.sv_json
        done
      done;
      for ordinal = 1 to 4 do
        let dir = fresh_dir () in
        let path = write_source dir "t" src_a in
        let inject n = if n = ordinal then Some kind else None in
        for req = 1 to 3 do
          let _, a = answer ~inject ~dir path in
          Alcotest.(check string)
            (Printf.sprintf "answer %s@%d request %d" kname ordinal req)
            oracle a.Server.Answer.report
        done
      done)
    kinds

(* ------------------------------------------------------------------ *)
(* Index durability and eviction                                       *)
(* ------------------------------------------------------------------ *)

(** A torn tail (an index write that died mid-line) and arbitrary
    garbage lines are both recovered by skipping; the snapshots remain
    servable. *)
let test_index_torn_tail_recovery () =
  let dir = fresh_dir () in
  let _, _ = serve ~dir src_a in
  let index = Filename.concat dir "index.log" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 index in
  output_string oc "not an index line\nv1\tadd\ttorn-fragm";
  close_out oc;
  let _, s2 = serve ~dir src_a in
  check_origin "snapshot still serves" `Hit s2;
  Alcotest.(check string) "byte-identical" (scratch_json src_a)
    s2.Store.sv_json

(** LRU under a tiny byte budget: caching a second program evicts the
    first; the store keeps at least one snapshot. *)
let test_lru_eviction () =
  let dir = fresh_dir () in
  let _, _ = serve ~max_bytes:1 ~dir src_a in
  let st2, _ = serve ~max_bytes:1 ~dir src_b in
  Alcotest.(check int) "eviction counted" 1
    (Store.counters st2).Core.Metrics.evictions;
  Alcotest.(check int) "one snapshot kept" 1 (List.length (Store.live st2));
  Alcotest.(check bool) "the newest survived" true
    (Sys.file_exists (Store.snap_path st2 (key_of src_b)));
  Alcotest.(check bool) "the oldest was evicted" false
    (Sys.file_exists (Store.snap_path st2 (key_of src_a)));
  (* the evicted program just re-solves *)
  let _, s3 = serve ~max_bytes:1 ~dir src_a in
  check_origin "evicted input solves cold" `Cold s3;
  check_json "and is unaffected" src_a s3

(* ------------------------------------------------------------------ *)
(* Fault-plan parsing (lib/server syntax shared by env and CLI)        *)
(* ------------------------------------------------------------------ *)

let test_fault_plan_parsing () =
  (match Server.Faults.store_parse "bitflip@1,crash@3" with
  | Ok plan ->
      let hook = Server.Faults.store_hook plan in
      Alcotest.(check bool) "bitflip at 1" true (hook 1 = Some Store.Bit_flip);
      Alcotest.(check bool) "nothing at 2" true (hook 2 = None);
      Alcotest.(check bool) "crash at 3" true (hook 3 = Some Store.Crash_rename)
  | Error e -> Alcotest.failf "plan rejected: %s" e);
  (match Server.Faults.store_parse "bitflip@0" with
  | Ok _ -> Alcotest.fail "ordinal 0 must be rejected (ordinals are 1-based)"
  | Error _ -> ());
  match Server.Faults.store_parse "gamma-ray@1" with
  | Ok _ -> Alcotest.fail "unknown fault kind must be rejected"
  | Error _ -> ()

(* Four corpus programs lower to two variables under one variable key
   (a shadowed block local with its outer namesake's name and type), so
   the store refuses their snapshots and [Progdiff.align] would conflate
   the pair. Pinned as today's behaviour: a finer variable key must
   change this test on purpose. *)
let test_corpus_shadowed_keys () =
  let shadowed name =
    let src = (Option.get (Suite.find name)).Suite.source in
    Store.Codec.shadowed_key
      ~keyer:(Incr.Progdiff.Keyer.create ())
      (Norm.Lower.compile ~file:name src)
  in
  List.iter
    (fun (name, key) ->
      Alcotest.(check (option string)) name key (shadowed name))
    [
      ("bc", Some "v|l:eval|long");
      ("less", Some "l|l:get_line|struct link#2b91bd145c076356acade3ac126707a2*");
      ("gzip", Some "l|l:assign_canonical|int");
      ("tbl",
        Some "next|l:tbl_rehash|struct tbl_entry#879405955202542a4b726083f4d57f94*");
      ("li", None);
    ]

(* The store key is the name of files already on disk: a drift in any
   key byte turns every existing store into misses. The hex is pinned
   from the Format-based key renderer, and was re-pinned once, when
   variable keys began to digest struct/union member lists. (The test's
   name predates the removal of the per-function summary digests it
   also pinned.) *)
let test_golden_keys () =
  let p = compile golden_keys_src in
  let c = cfg `Delta in
  Alcotest.(check string) "codec key" "25a4fed2b6c13180b3b8009d7da1e539"
    (Store.Codec.key c ~name:"t" ~diags_fp:"" p);
  let keyer = Incr.Progdiff.Keyer.create () in
  ignore (Store.Codec.stmt_keys ~keyer p);
  Alcotest.(check string) "codec key, warm keyer"
    "25a4fed2b6c13180b3b8009d7da1e539"
    (Store.Codec.key ~keyer c ~name:"t" ~diags_fp:"" p)

let suite =
  [
    tc "digest stability" test_digest_stability;
    tc "exact hit (json)" test_exact_hit_json;
    tc "additive near-repeat solves cold" test_additive_near_repeat_cold;
    tc "shadowed variable key is never filed" test_shadowed_key_never_filed;
    tc "corpus programs with a shadowed variable key"
      test_corpus_shadowed_keys;
    tc "bit flip quarantined, not deleted" test_bit_flip_quarantined;
    tc "truncation quarantined" test_truncation_quarantined;
    tc "version skew quarantined" test_version_skew_quarantined;
    tc "old solver-state snapshot quarantined" test_old_snapshot_quarantined;
    tc "crash between fsync and rename" test_crash_between_fsync_and_rename;
    tc "enospc contained" test_enospc_contained;
    tc "short write caught at next load" test_short_write_caught_later;
    tc "differential under all fault plans" test_differential_under_faults;
    tc "direct hit == scratch" test_direct_hit;
    tc "direct: include edit or deletion misses" test_direct_include_changes;
    tc "direct: absent include appearing misses" test_direct_absent_include;
    tc "direct: same bytes, other name misses" test_direct_other_name;
    tc "direct: whitespace edit hits the snapshot" test_direct_whitespace_edit;
    tc "direct: corrupt record quarantined" test_direct_corrupt_record;
    tc "index torn-tail recovery" test_index_torn_tail_recovery;
    tc "lru eviction" test_lru_eviction;
    tc "fault-plan parsing" test_fault_plan_parsing;
    tc "golden store key and summary digests" test_golden_keys;
    tc "struct definition edit misses" test_struct_definition_edit_misses;
  ]
