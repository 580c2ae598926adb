let () =
  Alcotest.run "craft"
    [
      ("util", Test_util.suite);
      ("fpbits", Test_fpbits.suite);
      ("ir", Test_ir.suite);
      ("builder", Test_builder.suite);
      ("asm", Test_asm.suite);
      ("packed", Test_packed.suite);
      ("vm", Test_vm.suite);
      ("vm-properties", Test_vm_props.suite);
      ("config", Test_config.suite);
      ("formats", Test_formats.suite);
      ("instrument", Test_instrument.suite);
      ("dataflow", Test_dataflow.suite);
      ("cancellation", Test_cancellation.suite);
      ("search", Test_search.suite);
      ("harness", Test_harness.suite);
      ("pool", Test_pool.suite);
      ("strategy", Test_strategy.suite);
      ("strategies", Test_strategy.strategies_suite);
      ("replay", Test_replay.suite);
      ("kernels", Test_kernels.suite);
      ("superlu", Test_superlu.suite);
      ("analysis", Test_analysis.suite);
      ("shadow", Test_shadow.suite);
      ("compile", Test_compile.suite);
      ("wire", Test_wire.suite);
      ("server", Test_server.suite);
      ("fleet", Test_fleet.suite);
      ("recovery", Test_recovery.suite);
      ("fuzz", Test_fuzz.suite);
    ]
