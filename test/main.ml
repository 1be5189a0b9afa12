let () =
  Alcotest.run "structcast"
    [
      ("lexer", Test_lexer.suite);
      ("preproc", Test_preproc.suite);
      ("ctype", Test_ctype.suite);
      ("layout", Test_layout.suite);
      ("layout-properties", Test_layout_properties.suite);
      ("parser", Test_parser.suite);
      ("typecheck", Test_typecheck.suite);
      ("lower", Test_lower.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("solver", Test_solver.suite);
      ("properties", Test_properties.suite);
      ("corpus", Test_suite_corpus.suite);
      ("steensgaard", Test_steens.suite);
      ("arith-modes", Test_arith_modes.suite);
      ("strategies", Test_strategies.suite);
      ("strategy-properties", Test_strategy_properties.suite);
      ("cells-graph", Test_cells_graph.suite);
      ("interp", Test_interp.suite);
      ("cgen", Test_cgen.suite);
      ("layouts", Test_layouts_soundness.suite);
      ("clients", Test_clients.suite);
      ("cli", Test_cli.suite);
      ("summaries", Test_summaries.suite);
      ("budget", Test_budget.suite);
      ("cycles", Test_cycles.suite);
      ("incr", Test_incr.suite);
      ("fuzz", Test_fuzz.suite);
      ("isolation", Test_isolation.suite);
      ("server", Test_server.suite);
      ("store", Test_store.suite);
    ]
