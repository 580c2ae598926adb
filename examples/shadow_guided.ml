(* Shadow-value precision analysis guiding the mixed-precision search.

   One traced native run maintains a single-precision shadow next to every
   double value and prices each instruction's sensitivity; the search then
   starts from the predicted configuration, walks the frontier most-tolerant
   first, and skips (logging, never silently) candidates predicted to be
   hopeless — reaching the same final configuration in far fewer
   instrumented evaluations.

   Run with: dune exec examples/shadow_guided.exe *)

let () =
  let k = Nas_cg.make Kernel.W in
  let prog = k.Kernel.program in

  (* 1. trace: one native run with the shadow tracer attached *)
  let tracer =
    Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.Kernel.hints prog) prog
  in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:k.Kernel.setup in
  let report = Shadow_report.make ~base:k.Kernel.hints prog tracer in

  (* 2. the five most single-tolerant structures *)
  Format.printf "=== most tolerant structures (predicted divergence) ===@.";
  List.iteri
    (fun i (node, div) ->
      if i < 5 then Format.printf "  %-24s %.3e@." (Static.node_name node) div)
    (Shadow_report.ranked report);

  (* 3. unguided vs shadow-guided search *)
  let search ~shadow =
    Bfs.search
      ~options:{ Bfs.default_options with base = k.Kernel.hints; shadow }
      (Kernel.target k)
  in
  let plain = search ~shadow:None in
  let guided = search ~shadow:(Some (Bfs.shadow ~prune_above:1e-1 report)) in
  Format.printf "@.=== unguided vs shadow-guided BFS ===@.";
  Format.printf "unguided: %d evaluations, %d/%d replaced, final %s@." plain.Bfs.tested
    plain.Bfs.static_replaced plain.Bfs.candidates
    (if plain.Bfs.final_pass then "pass" else "fail");
  Format.printf "shadow:   %d evaluations (%d pruned), %d/%d replaced, final %s@."
    guided.Bfs.tested guided.Bfs.pruned guided.Bfs.static_replaced guided.Bfs.candidates
    (if guided.Bfs.final_pass then "pass" else "fail");
  Format.printf "saved %.1f%% of the evaluations@."
    (100.0 *. (1.0 -. (float_of_int guided.Bfs.tested /. float_of_int plain.Bfs.tested)))
