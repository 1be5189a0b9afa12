(* Runner for the engine differential suite; see test_differential.ml. *)
let () =
  Alcotest.run "structcast-differential"
    [ ("differential", Test_differential.suite) ]
