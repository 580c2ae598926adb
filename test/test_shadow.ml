(* Shadow-value precision analysis: hook composition, tracer soundness,
   prediction/pruning soundness against the real search, and the
   evaluations guidance saves on NAS CG and MG. *)

let n_slots = 8

(* straight-line kernel with two independent chains:
   - chain A (slots 0/1): constants exactly representable in binary32, so
     its shadow divergence is exactly zero and single precision is exact;
   - chain B (slots 2/3): full-mantissa constants, so every candidate
     flipped to single perturbs the result by ~1e-8. *)
let two_chain_program () =
  let t = Builder.create () in
  let _heap = Builder.alloc_f t n_slots in
  let main =
    Builder.func t ~module_:"kern" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        (* chain A: (1.5 + 2.25) * 2.0 = 7.5, exact in binary32 *)
        let a = Builder.fadd b (Builder.fconst b 1.5) (Builder.fconst b 2.25) in
        let a2 = Builder.fmul b a (Builder.fconst b 2.0) in
        Builder.storef b (Builder.at 0) a2;
        (* chain B: 1/3 * 0.7 + 0.1, every step rounds in binary32 *)
        let c = Builder.fmul b (Builder.fconst b (1.0 /. 3.0)) (Builder.fconst b 0.7) in
        let s = Builder.fadd b c (Builder.fconst b 0.1) in
        Builder.storef b (Builder.at 2) s)
  in
  Builder.program t ~main

(* integer-only control flow + FP arithmetic: the differential oracle *)
let loop_program () =
  let t = Builder.create () in
  let _heap = Builder.alloc_f t n_slots in
  let main =
    Builder.func t ~module_:"kern" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        Builder.for_range b 0 n_slots (fun i ->
            let x = Builder.loadf b (Builder.idx 0 i) in
            let num = Builder.fadd b (Builder.fmul b x x) (Builder.fconst b 1.5) in
            let den = Builder.fadd b (Builder.fabs b x) (Builder.fconst b 2.0) in
            let v = Builder.fdiv b num den in
            let r = Builder.fsqrt b (Builder.fadd b v (Builder.fconst b 0.25)) in
            Builder.storef b (Builder.idx 0 i) r))
  in
  Builder.program t ~main

let loop_input () =
  Array.init n_slots (fun i -> (0.37 *. float_of_int (i + 1)) -. 1.1)

(* --- satellite 1: the hook list ------------------------------------- *)

let test_hook_order () =
  let prog = two_chain_program () in
  let vm = Vm.create prog in
  let order = ref [] in
  let _ = Vm.add_hook vm (fun _ _ -> order := 1 :: !order) in
  let _ = Vm.add_hook vm (fun _ _ -> order := 2 :: !order) in
  let _ = Vm.add_hook vm (fun _ _ -> order := 3 :: !order) in
  Vm.run vm;
  let fired = List.rev !order in
  if fired = [] then Alcotest.fail "hooks never fired";
  if List.length fired mod 3 <> 0 then Alcotest.fail "unbalanced hook firings";
  List.iteri
    (fun i tag ->
      if tag <> (i mod 3) + 1 then
        Alcotest.failf "hooks fired out of installation order at position %d" i)
    fired

let test_hook_removal () =
  let prog = two_chain_program () in
  let vm = Vm.create prog in
  let first = ref 0 and second = ref 0 in
  let id1 = Vm.add_hook vm (fun _ _ -> incr first) in
  let _ = Vm.add_hook vm (fun _ _ -> incr second) in
  Vm.remove_hook vm id1;
  Vm.run vm;
  Alcotest.(check int) "removed hook silent" 0 !first;
  Alcotest.(check bool) "surviving hook fired" true (!second > 0)

(* regression: with the old single-slot hook, attaching the tracer would
   have displaced the armed fault injector and the run would complete *)
let test_faults_and_tracer_stack () =
  let prog = loop_program () in
  let inj =
    Faults.create { Faults.seed = 1; rate = 1.0; modes = [ Faults.Trap ]; transient = false }
  in
  let tracer = Shadow_tracer.create prog in
  let vm = Vm.create prog in
  Vm.write_f vm 0 (loop_input ());
  Faults.arm inj ~key:"shadow-stack" vm;
  let _id = Shadow_tracer.attach tracer vm in
  (match Vm.run vm with
  | () -> Alcotest.fail "expected the injected trap to fire"
  | exception Vm.Trap (_, reason) ->
      Alcotest.(check bool) "trap is the injected one" true
        (String.length reason > 0 && String.sub reason 0 8 = "injected"));
  Alcotest.(check int) "fault fired with tracer installed" 1 (Faults.injected inj)

(* --- satellite 2a: double-configured shadows are exact --------------- *)

let test_double_zero_divergence () =
  for seed = 1 to 12 do
    let prog, input = Test_fuzz.random_program (seed * 7919) in
    let tracer = Shadow_tracer.create ~config:Config.empty prog in
    (try
       ignore
         (Shadow_tracer.trace tracer ~setup:(fun vm -> Vm.write_f vm 0 input) : Vm.t)
     with Vm.Trap _ | Vm.Limit _ -> ());
    Array.iteri
      (fun addr (s : Shadow_tracer.insn_stats) ->
        if s.Shadow_tracer.sum_rel <> 0.0 || s.Shadow_tracer.max_rel <> 0.0 then
          Alcotest.failf "seed %d: double-configured insn 0x%06x diverged (%g)" seed addr
            s.Shadow_tracer.max_rel;
        if s.Shadow_tracer.max_local <> 0.0 then
          Alcotest.failf "seed %d: double-configured insn 0x%06x has local error" seed addr;
        if s.Shadow_tracer.flips <> 0 then
          Alcotest.failf "seed %d: double-configured insn 0x%06x flipped" seed addr)
      (Shadow_tracer.stats tracer)
  done

(* --- satellite 2b: shadow heap == actual converted-single run -------- *)

let test_shadow_matches_converted () =
  let prog = loop_program () in
  let input = loop_input () in
  let tracer = Shadow_tracer.create prog in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:(fun vm -> Vm.write_f vm 0 input) in
  let shadow = Shadow_tracer.shadow_heap tracer in
  let vm = Vm.create ~smode:Vm.Plain (To_single.convert prog) in
  Vm.write_f vm 0 input;
  Vm.run vm;
  let actual = Vm.read_f vm 0 n_slots in
  Array.iteri
    (fun i a ->
      let s = shadow.(i) in
      if not (Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float a)) then
        Alcotest.failf "slot %d: shadow %.17g <> converted-single %.17g" i s a)
    actual;
  Alcotest.(check bool) "tracer observed values" true (Shadow_tracer.observations tracer > 0)

(* --- satellite 2c: pruning never skips a passing configuration ------- *)

let two_chain_target prog =
  let native = Vm.create prog in
  Vm.run native;
  let expect = Vm.read_f native 0 n_slots in
  Bfs.Target.make prog
    ~setup:(fun _ -> ())
    ~output:(fun vm -> Vm.read_f vm 0 n_slots)
    ~verify:(fun out ->
      Float.abs (out.(0) -. expect.(0)) <= 0.5
      && Float.abs (out.(2) -. expect.(2)) <= 1e-12)

let test_prune_soundness () =
  let prog = two_chain_program () in
  let target = two_chain_target prog in
  let plain = Bfs.search target in
  let tracer = Shadow_tracer.create prog in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:(fun _ -> ()) in
  let report = Shadow_report.make ~threshold:1e-12 prog tracer in
  let pruned_cfgs = ref [] in
  let guided =
    Bfs.search
      ~options:
        {
          Bfs.default_options with
          shadow =
            Some
              (Bfs.shadow ~prune_above:1e-10
                 ~on_pruned:(fun cfg div -> pruned_cfgs := (cfg, div) :: !pruned_cfgs)
                 report);
        }
      target
  in
  Alcotest.(check bool) "pruning exercised" true (guided.Bfs.pruned > 0);
  Alcotest.(check int) "callback saw every prune" guided.Bfs.pruned
    (List.length !pruned_cfgs);
  (* soundness: nothing plain BFS would accept was pruned *)
  List.iter
    (fun (cfg, div) ->
      if target.Bfs.Target.eval cfg = Verdict.Pass then
        Alcotest.failf "pruned a passing configuration (predicted divergence %g)" div)
    !pruned_cfgs;
  Alcotest.(check bool) "plain final passes" true plain.Bfs.final_pass;
  Alcotest.(check bool) "guided final passes" true guided.Bfs.final_pass;
  Alcotest.(check int) "same static replacement" plain.Bfs.static_replaced
    guided.Bfs.static_replaced;
  Alcotest.(check bool) "guided evaluates strictly less" true
    (guided.Bfs.tested < plain.Bfs.tested)

(* --- evaluation savings on NAS kernels ------------------------------- *)

(* hints base, default threshold, prune_above 0.1: shadow-guided BFS tests
   at most 70% of the unguided campaign's configurations and ends on the
   same final. The (unguided, guided, pruned) pins are the numbers
   EXPERIMENTS.md quotes. *)
let test_nas_savings () =
  List.iter
    (fun ((k : Kernel.t), (plain_n, guided_n, pruned_n)) ->
      let prog = k.Kernel.program in
      let tracer =
        Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.Kernel.hints prog) prog
      in
      let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:k.Kernel.setup in
      let report = Shadow_report.make ~base:k.Kernel.hints prog tracer in
      let search shadow =
        Bfs.search
          ~options:{ Bfs.default_options with base = k.Kernel.hints; shadow }
          (Kernel.target k)
      in
      let plain = search None in
      let guided = search (Some (Bfs.shadow ~prune_above:0.1 report)) in
      if guided.Bfs.tested * 10 > plain.Bfs.tested * 7 then
        Alcotest.failf "%s: guided BFS tested %d, unguided %d (want at most 70%%)"
          k.Kernel.name guided.Bfs.tested plain.Bfs.tested;
      Alcotest.(check string)
        (k.Kernel.name ^ ": same final")
        (Config.digest prog plain.Bfs.final)
        (Config.digest prog guided.Bfs.final);
      Alcotest.(check (list int))
        (k.Kernel.name ^ ": unguided, guided, pruned")
        [ plain_n; guided_n; pruned_n ]
        [ plain.Bfs.tested; guided.Bfs.tested; guided.Bfs.pruned ])
    [ (Nas_cg.make Kernel.W, (45, 27, 6)); (Nas_mg.make Kernel.W, (46, 32, 0)) ]

(* --- verdict plumbing ------------------------------------------------ *)

let test_pruned_verdict_roundtrip () =
  let v = Verdict.Pruned "shadow predicted divergence 3.2e-02" in
  Alcotest.(check string) "label" "pruned" (Verdict.verdict_label v);
  Alcotest.(check bool) "not flaky" false (Verdict.is_flaky v);
  (match Verdict.verdict_of_string (Verdict.verdict_to_string v) with
  | Some (Verdict.Pruned r) ->
      Alcotest.(check string) "reason survives" "shadow predicted divergence 3.2e-02" r
  | _ -> Alcotest.fail "Pruned did not round-trip");
  match Verdict.verdict_of_string (Verdict.verdict_to_string (Verdict.Pruned "a:b,c d")) with
  | Some (Verdict.Pruned r) -> Alcotest.(check string) "reserved chars survive" "a:b,c d" r
  | _ -> Alcotest.fail "Pruned with reserved characters did not round-trip"

let suite =
  [
    ("hooks fire in installation order", `Quick, test_hook_order);
    ("remove_hook silences exactly that hook", `Quick, test_hook_removal);
    ("fault injector and tracer stack", `Quick, test_faults_and_tracer_stack);
    ("double-configured shadow: zero divergence", `Quick, test_double_zero_divergence);
    ("shadow heap matches converted-single run", `Quick, test_shadow_matches_converted);
    ("pruning never skips a passing configuration", `Quick, test_prune_soundness);
    ("guidance saves evaluations on cg.W and mg.W", `Quick, test_nas_savings);
    ("Pruned verdict round-trips", `Quick, test_pruned_verdict_roundtrip);
  ]
