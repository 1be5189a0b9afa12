(** Solver behaviour beyond the paper's worked examples: interprocedural
    flow, function pointers, heap allocation, library summaries, pointer
    arithmetic, arrays, unions. *)

open Helpers

let all_ids = [ "collapse-always"; "collapse-on-cast"; "cis"; "offsets" ]

let precise_ids = [ "collapse-on-cast"; "cis"; "offsets" ]

let for_all ids f = List.iter (fun id -> f id (strategy id)) ids

(* ---------------- interprocedural ---------------- *)

let test_param_passing () =
  let src =
    {|
      int x, y;
      int *id(int *p) { return p; }
      int *a, *b;
      void main(void) {
        a = id(&x);
        b = id(&y);
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      (* context-insensitive: both calls merge *)
      let got = target_bases r "a" in
      if got <> [ "x"; "y" ] then
        Alcotest.failf "%s: a = %s" id (String.concat "," got))

let test_return_value () =
  let src =
    {|
      int g;
      int *addr_g(void) { return &g; }
      int *p;
      void main(void) { p = addr_g(); }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "g" ])

let test_out_param () =
  let src =
    {|
      int x;
      void fill(int **out) { *out = &x; }
      int *p;
      void main(void) { fill(&p); }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x" ])

let test_struct_arg_by_value () =
  let src =
    {|
      struct Pair { int *fst; int *snd; };
      int x, y;
      int *out;
      void take(struct Pair q) { out = q.fst; }
      void main(void) {
        struct Pair p;
        p.fst = &x;
        p.snd = &y;
        take(p);
      }
    |}
  in
  for_all precise_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "out" in
      if got <> [ "x" ] then
        Alcotest.failf "%s: out = %s" id (String.concat "," got))

let test_recursion () =
  let src =
    {|
      int x;
      int *walk(int n) {
        if (n) return walk(n - 1);
        return &x;
      }
      int *p;
      void main(void) { p = walk(3); }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x" ])

(* ---------------- function pointers ---------------- *)

let test_function_pointer_call () =
  let src =
    {|
      int x, y;
      int *fx(void) { return &x; }
      int *fy(void) { return &y; }
      int *(*fp)(void);
      int *p;
      void main(int c) {
        if (c) fp = fx; else fp = &fy;
        p = fp();
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "p" in
      if got <> [ "x"; "y" ] then
        Alcotest.failf "%s: p = %s" id (String.concat "," got);
      let fps = target_bases r "fp" in
      if fps <> [ "fx"; "fy" ] then
        Alcotest.failf "%s: fp = %s" id (String.concat "," fps))

let test_function_pointer_in_struct () =
  let src =
    {|
      struct Ops { int *(*get)(void); int tag; };
      int x;
      int *getter(void) { return &x; }
      struct Ops ops;
      int *p;
      void main(void) {
        ops.get = getter;
        p = (*ops.get)();
      }
    |}
  in
  for_all precise_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x" ])

(* ---------------- heap ---------------- *)

let test_malloc_sites_distinct () =
  let src =
    {|
      struct Node { struct Node *next; int v; };
      void *malloc(unsigned long n);
      struct Node *a, *b;
      void main(void) {
        a = (struct Node *)malloc(sizeof(struct Node));
        b = (struct Node *)malloc(sizeof(struct Node));
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let ta = target_bases r "a" and tb = target_bases r "b" in
      if List.length ta <> 1 || List.length tb <> 1 || ta = tb then
        Alcotest.failf "%s: a=%s b=%s" id (String.concat "," ta)
          (String.concat "," tb))

let test_linked_list () =
  let src =
    {|
      struct Node { struct Node *next; int *data; };
      void *malloc(unsigned long n);
      int x;
      int *out;
      void main(void) {
        struct Node *head, *n2, *cur;
        head = (struct Node *)malloc(sizeof(struct Node));
        n2 = (struct Node *)malloc(sizeof(struct Node));
        head->next = n2;
        n2->data = &x;
        cur = head->next;
        out = cur->data;
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "out" in
      if not (List.mem "x" got) then
        Alcotest.failf "%s: out = %s" id (String.concat "," got))

(* ---------------- library summaries ---------------- *)

let test_memcpy_summary () =
  let src =
    {|
      void *memcpy(void *d, void *s, unsigned long n);
      struct P { int *a; int *b; } src0, dst0;
      int x, y;
      int *oa, *ob;
      void main(void) {
        src0.a = &x;
        src0.b = &y;
        memcpy(&dst0, &src0, sizeof(struct P));
        oa = dst0.a;
        ob = dst0.b;
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      if not (List.mem "x" (target_bases r "oa")) then
        Alcotest.failf "%s: memcpy lost x" id;
      if not (List.mem "y" (target_bases r "ob")) then
        Alcotest.failf "%s: memcpy lost y" id)

let test_strdup_allocates () =
  let src =
    {|
      char *strdup(char *s);
      char *p, *q;
      void main(void) {
        p = strdup("hello");
        q = p;
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "q" in
      if List.length got <> 1 then
        Alcotest.failf "%s: q = %s" id (String.concat "," got))

let test_qsort_invokes_comparator () =
  let src =
    {|
      void qsort(void *base, unsigned long n, unsigned long w,
                 int (*cmp)(void *, void *));
      int arr[10];
      void *seen;
      int compare(void *a, void *b) { seen = a; return 0; }
      void main(void) {
        qsort(arr, 10, sizeof(int), compare);
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "seen" in
      if not (List.mem "arr" got) then
        Alcotest.failf "%s: comparator arg = %s" id (String.concat "," got))

(* ---------------- pointer arithmetic, arrays, unions ---------------- *)

let test_pointer_arith_within_object () =
  let src =
    {|
      struct S { int *a; int *b; } s;
      int x, y;
      int **p, *out;
      void main(void) {
        s.a = &x;
        s.b = &y;
        p = &s.a;
        p = p + 1;
        out = *p;
      }
    |}
  in
  (* after p + 1 the analysis must assume p may point to any field of s *)
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "out" in
      if not (List.mem "y" got) then
        Alcotest.failf "%s: out = %s (lost y)" id (String.concat "," got))

let test_array_single_representative () =
  let src =
    {|
      int *arr[8];
      int x, y;
      int *p;
      void main(void) {
        arr[0] = &x;
        arr[5] = &y;
        p = arr[2];
      }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x"; "y" ])

let test_array_of_structs () =
  let src =
    {|
      struct S { int *a; int *b; };
      struct S arr[4];
      int x, y;
      int *p, *q;
      void main(void) {
        arr[0].a = &x;
        arr[1].b = &y;
        p = arr[3].a;
        q = arr[2].b;
      }
    |}
  in
  for_all precise_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let gp = target_bases r "p" and gq = target_bases r "q" in
      if gp <> [ "x" ] then Alcotest.failf "%s: p = %s" id (String.concat "," gp);
      if gq <> [ "y" ] then Alcotest.failf "%s: q = %s" id (String.concat "," gq))

let test_union_members_overlap () =
  let src =
    {|
      union U { int *a; char *b; } u;
      int x;
      char *out;
      void main(void) {
        u.a = &x;
        out = u.b;
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      let got = target_bases r "out" in
      if not (List.mem "x" got) then
        Alcotest.failf "%s: union overlap lost x (%s)" id
          (String.concat "," got))

let test_string_literals () =
  let src =
    {|
      char *p, *q, *r;
      void main(void) {
        p = "alpha";
        q = "beta";
        r = "alpha";
      }
    |}
  in
  for_all all_ids (fun id s ->
      let res = analyze ~strategy:s src in
      let tp = targets res "p" and tq = targets res "q" and tr = targets res "r" in
      if tp = tq then Alcotest.failf "%s: distinct literals merged" id;
      if tp <> tr then Alcotest.failf "%s: equal literals not shared" id)

let test_void_star_roundtrip () =
  let src =
    {|
      int x;
      void *v;
      int *p;
      void main(void) {
        p = &x;
        v = (void *)p;
        p = (int *)v;
      }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x" ])

let test_global_initializers () =
  let src =
    {|
      int x;
      int *gp = &x;
      struct S { int *f; char *g; } s = { &x, "lit" };
      int *p; char *q;
      void main(void) {
        p = gp;
        q = s.g;
      }
    |}
  in
  for_all all_ids (fun id s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x" ];
      let gq = target_bases r "q" in
      (* collapse-always merges both initializers into s's single cell;
         the field-sensitive instances see only the string literal *)
      let expected_len = if id = "collapse-always" then 2 else 1 in
      if List.length gq <> expected_len then
        Alcotest.failf "%s: q = %s" id (String.concat "," gq))

let test_conditional_expression () =
  let src =
    {|
      int x, y;
      int *p;
      void main(int c) { p = c ? &x : &y; }
    |}
  in
  for_all all_ids (fun _ s ->
      let r = analyze ~strategy:s src in
      check_bases r "p" [ "x"; "y" ])

(* Regression for the worklist dedup marker: [p = *p] grows p's own
   points-to set mid-visit, so the statement must be able to re-enqueue
   ITSELF while it is being processed. If the in-queue marker were
   cleared only after dispatch, the self-requeue would be silently
   dropped and the chain would stop one link short. Both engines. *)
let test_self_requeue_converges () =
  let src =
    {|
      void *a, *b, *c, *p;
      void main(void) {
        a = (void *)&b;
        b = (void *)&c;
        p = (void *)&a;
        p = *p;
      }
    |}
  in
  List.iter
    (fun engine ->
      for_all all_ids (fun id s ->
          let r =
            Core.Analysis.run_source ~engine ~strategy:s ~file:"<test>" src
          in
          let got = target_bases r "p" in
          if got <> [ "a"; "b"; "c" ] then
            Alcotest.failf "%s (%s): p = %s (chain stopped early)" id
              (Core.Solver.engine_name engine)
              (String.concat "," got)))
    [ `Delta; `Delta_nocycle; `Naive ]

(* Offsets results depend on the layout; portable results do not. *)
let test_layout_dependence () =
  let src =
    {|
      struct S { char pad; int *q; } *p;
      struct T { short pad2; int *r; } t;
      int x;
      int **out;
      void main(void) {
        t.r = &x;
        p = (struct S *)&t;
        out = (int **)&((*p).q);
      }
    |}
  in
  let run id layout =
    let r = analyze ~layout ~strategy:(strategy id) src in
    targets r "out"
  in
  let off32 = run "offsets" Cfront.Layout.ilp32 in
  let off64 = run "offsets" Cfront.Layout.lp64 in
  let cis32 = run "cis" Cfront.Layout.ilp32 in
  let cis64 = run "cis" Cfront.Layout.lp64 in
  Alcotest.(check (list string)) "cis is layout-independent" cis32 cis64;
  (* under ilp32 both pads round to offset 4; under lp64 the struct-S
     field lands at 8 — different cells *)
  if off32 = off64 then
    Alcotest.fail "expected offsets results to differ across layouts"

let suite =
  [
    tc "params flow (context-insensitive merge)" test_param_passing;
    tc "return values flow" test_return_value;
    tc "output parameters" test_out_param;
    tc "struct passed by value" test_struct_arg_by_value;
    tc "recursion converges" test_recursion;
    tc "calls through function pointers" test_function_pointer_call;
    tc "function pointer stored in a struct" test_function_pointer_in_struct;
    tc "distinct malloc sites stay distinct" test_malloc_sites_distinct;
    tc "heap linked list" test_linked_list;
    tc "memcpy summary copies pointees" test_memcpy_summary;
    tc "strdup allocates" test_strdup_allocates;
    tc "qsort invokes the comparator" test_qsort_invokes_comparator;
    tc "pointer arithmetic spreads within object" test_pointer_arith_within_object;
    tc "arrays: one representative element" test_array_single_representative;
    tc "arrays of structs keep fields apart" test_array_of_structs;
    tc "union members overlap" test_union_members_overlap;
    tc "string literals are objects" test_string_literals;
    tc "void* round trip" test_void_star_roundtrip;
    tc "global initializers" test_global_initializers;
    tc "conditional expressions merge" test_conditional_expression;
    tc "self-requeue: p = *p converges" test_self_requeue_converges;
    tc "offsets depend on layout, cis does not" test_layout_dependence;
  ]
