(* Tests for the breadth-first search: known-answer synthetic targets, the
   two optimizations, stop granularities, parallel evaluation, ignore hints
   and the second composition phase. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A synthetic program whose verification is controlled precisely: main
   stores the result of [n_ops] independent chains; the verification
   routine rejects any configuration in which a designated "poison" subset
   of the chains was computed in single precision. Poison chains use 0.1
   (inexact in binary32) so single precision shifts their output; benign
   chains use 0.5 (exact), so replacing them is invisible. *)
let synthetic ~n_ops ~poison =
  let t = Builder.create () in
  let out = Builder.alloc_f t n_ops in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        for k = 0 to n_ops - 1 do
          let c = Builder.fconst b (if List.mem k poison then 0.1 else 0.5) in
          let v = Builder.fadd b c c in
          Builder.storef b (Builder.at (out + k)) v
        done)
  in
  let program = Builder.program t ~main in
  let reference =
    Array.init n_ops (fun k -> if List.mem k poison then 0.2 else 1.0)
  in
  let target =
    Bfs.Target.make program
      ~setup:(fun _ -> ())
      ~output:(fun vm -> Vm.read_f vm out n_ops)
      ~verify:(fun res -> res = reference)
  in
  (program, target)

let test_finds_exact_replaceable_set () =
  let n_ops = 8 in
  let poison = [ 2; 5 ] in
  let program, target = synthetic ~n_ops ~poison in
  let res = Bfs.search target in
  (* every benign instruction single, every poison instruction double *)
  let cands = Static.candidates program in
  (* candidates alternate: fconst, fadd per chain, in emission order *)
  Array.iteri
    (fun idx (info : Static.insn_info) ->
      let chain = idx / 2 in
      let expected = if List.mem chain poison then Config.Double else Config.Single in
      if Config.effective res.Bfs.final info <> expected then
        Alcotest.failf "chain %d (insn %d): wrong flag" chain idx)
    cands;
  checkb "final passes" true res.Bfs.final_pass;
  checki "static count" ((n_ops - 2) * 2) res.Bfs.static_replaced

let test_all_replaceable_stops_at_module () =
  let _, target = synthetic ~n_ops:6 ~poison:[] in
  let res = Bfs.search target in
  (* the very first module-level configuration passes *)
  checki "tested module + final" 2 res.Bfs.tested;
  checkb "pass" true res.Bfs.final_pass;
  checkb "100%" true (res.Bfs.static_pct = 100.0)

let test_none_replaceable () =
  let _, target = synthetic ~n_ops:4 ~poison:[ 0; 1; 2; 3 ] in
  let res = Bfs.search target in
  (* constants of poisoned chains are still exact?? no: 0.1 consts are inexact *)
  checkb "final passes (empty union)" true res.Bfs.final_pass;
  checkb "low static" true (res.Bfs.static_replaced <= 4)

let test_stop_at_granularities () =
  let _, target = synthetic ~n_ops:8 ~poison:[ 1 ] in
  let res_mod = Bfs.search ~options:{ Bfs.default_options with stop_at = Bfs.Module_level } target in
  (* the single module fails and nothing is explored below it *)
  checki "module only" 2 res_mod.Bfs.tested;
  checki "nothing replaced" 0 res_mod.Bfs.static_replaced;
  let res_fn = Bfs.search ~options:{ Bfs.default_options with stop_at = Bfs.Func_level } target in
  (* one function (= whole program here), also fails *)
  checkb "function level explored" true (res_fn.Bfs.tested >= res_mod.Bfs.tested)

let test_binary_split_reduces_tests () =
  let _, target = synthetic ~n_ops:16 ~poison:[ 7 ] in
  let with_split =
    Bfs.search ~options:{ Bfs.default_options with binary_split = true } target
  in
  let without_split =
    Bfs.search ~options:{ Bfs.default_options with binary_split = false } target
  in
  (* identical findings *)
  checki "same static" without_split.Bfs.static_replaced with_split.Bfs.static_replaced;
  (* and the split prunes configurations (one bad element among many) *)
  checkb "fewer tests with split" true (with_split.Bfs.tested < without_split.Bfs.tested)

let test_prioritization_order () =
  (* a hot loop plus a cold chain: with prioritization, the hot structure is
     tested first (appears earlier in the log) *)
  let t = Builder.create () in
  let out = Builder.alloc_f t 2 in
  let hot =
    Builder.func t ~module_:"syn" "hot" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let acc = Builder.freshf b in
        Builder.setf b acc (Builder.fconst b 0.0);
        Builder.for_range b 0 100 (fun _ ->
            Builder.setf b acc (Builder.fadd b acc (Builder.fconst b 0.5)));
        Builder.storef b (Builder.at out) acc)
  in
  let cold =
    Builder.func t ~module_:"syn2" "cold" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        Builder.storef b (Builder.at (out + 1)) (Builder.fconst b 0.25))
  in
  let main =
    Builder.func t ~module_:"syn3" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let _ = Builder.call b hot ~fargs:[] ~iargs:[] in
        let _ = Builder.call b cold ~fargs:[] ~iargs:[] in
        ())
  in
  let program = Builder.program t ~main in
  let target =
    Bfs.Target.make program
      ~setup:(fun _ -> ())
      ~output:(fun vm -> Vm.read_f vm out 2)
      ~verify:(fun _ -> true)
  in
  let res = Bfs.search ~options:{ Bfs.default_options with prioritize = true } target in
  let first_event = List.hd res.Bfs.log in
  checkb "hot module first" true
    (let rec contains i =
       i + 10 <= String.length first_event
       && (String.sub first_event i 10 = "MODULE syn" || contains (i + 1))
     in
     contains 0);
  (* hot module is syn (100 execs) *)
  checkb "is the hot one" true
    (let rec find i =
       if i + 11 > String.length first_event then false
       else if String.sub first_event i 11 = "MODULE syn " then true
       else find (i + 1)
     in
     find 0)

let test_parallel_equals_sequential () =
  let _, target = synthetic ~n_ops:12 ~poison:[ 3; 9 ] in
  let seq = Bfs.search ~options:{ Bfs.default_options with workers = 1 } target in
  let par = Bfs.search ~options:{ Bfs.default_options with workers = 4 } target in
  checki "same static" seq.Bfs.static_replaced par.Bfs.static_replaced;
  checkb "same pass" true (seq.Bfs.final_pass = par.Bfs.final_pass)

let test_ignore_hints_excluded () =
  let n_ops = 6 in
  let program, _ = synthetic ~n_ops ~poison:[] in
  let cands = Static.candidates program in
  (* ignore the first chain *)
  let base =
    Config.set_insn (Config.set_insn Config.empty cands.(0).Static.addr Config.Ignore)
      cands.(1).Static.addr Config.Ignore
  in
  let target =
    Bfs.Target.make program
      ~setup:(fun _ -> ())
      ~output:(fun vm -> Vm.read_f vm 0 n_ops)
      ~verify:(fun _ -> true)
  in
  let res = Bfs.search ~options:{ Bfs.default_options with base } target in
  checki "universe shrinks by 2" (Array.length cands - 2) res.Bfs.candidates;
  (* ignored instructions keep their flag in the final config *)
  checkb "still ignored" true
    (Config.effective res.Bfs.final cands.(0) = Config.Ignore)

let test_force_single_expands_over_ignores () =
  let program, _ = synthetic ~n_ops:4 ~poison:[] in
  let cands = Static.candidates program in
  let base = Config.set_insn Config.empty cands.(0).Static.addr Config.Ignore in
  match Static.tree program with
  | [ (Static.Module _ as m) ] ->
      let cfg = Bfs.force_single ~base base m in
      checkb "ignore survives" true (Config.effective cfg cands.(0) = Config.Ignore);
      checkb "others single" true (Config.effective cfg cands.(1) = Config.Single)
  | _ -> Alcotest.fail "expected one module"

let test_second_phase_composes () =
  (* two chains that individually pass but fail together: verification
     rejects when BOTH are rounded. 0.1+0.1 and 0.3+0.3 both shift in
     single; accept if at most one shifted. *)
  let t = Builder.create () in
  let out = Builder.alloc_f t 2 in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let a = Builder.fconst b 0.1 in
        Builder.storef b (Builder.at out) (Builder.fadd b a a);
        let c = Builder.fconst b 0.3 in
        Builder.storef b (Builder.at (out + 1)) (Builder.fadd b c c))
  in
  let program = Builder.program t ~main in
  let target =
    Bfs.Target.make program
      ~setup:(fun _ -> ())
      ~output:(fun vm -> Vm.read_f vm out 2)
      ~verify:(fun res ->
        let shifted0 = res.(0) <> 0.2 in
        let shifted1 = res.(1) <> 0.6 in
        not (shifted0 && shifted1))
  in
  let plain = Bfs.search ~options:{ Bfs.default_options with second_phase = false } target in
  checkb "union fails" false plain.Bfs.final_pass;
  let composed = Bfs.search ~options:{ Bfs.default_options with second_phase = true } target in
  checkb "composed passes" true composed.Bfs.final_pass;
  checkb "something kept" true (composed.Bfs.static_replaced > 0);
  checkb "not everything" true (composed.Bfs.static_replaced < Array.length (Static.candidates program))

let test_trap_counts_as_failure () =
  (* a program whose single version traps (constant feeding an ignored
     consumer) must simply fail verification, not kill the search *)
  let program, target = synthetic ~n_ops:4 ~poison:[ 0 ] in
  ignore program;
  let res = Bfs.search target in
  checkb "search completes" true (res.Bfs.tested > 0)

(* Every evaluation's class reaches the log: ep.W's six trapping
   configurations (a replaced operand reaching a double-precision op) are
   TRAP lines, not FAIL lines, as many as the harness counted, on the
   sequential path and on a pool. *)
let test_traps_are_logged_as_traps () =
  let k = Nas_ep.make Kernel.W in
  List.iter
    (fun workers ->
      let h, target = Harness.wrap_target (Kernel.target k) in
      let res =
        Bfs.search ~options:{ Bfs.default_options with base = k.Kernel.hints; workers } target
      in
      let lines prefix =
        List.length
          (List.filter (fun l -> String.starts_with ~prefix:(prefix ^ " ") l) res.Bfs.log)
      in
      let label = Printf.sprintf "%d worker(s): " workers in
      checki (label ^ "TRAP lines") 6 (lines "TRAP");
      checki (label ^ "FAIL lines") 0 (lines "FAIL");
      checki (label ^ "one TRAP line per trapped attempt") (Harness.counters h).Harness.trapped
        (lines "TRAP"))
    [ 1; 2 ]

let test_tested_counts_final () =
  let _, target = synthetic ~n_ops:4 ~poison:[] in
  let res = Bfs.search target in
  (* 1 module config + 1 final *)
  checki "tested" 2 res.Bfs.tested

let suite =
  [
    ("finds exact replaceable set", `Quick, test_finds_exact_replaceable_set);
    ("all replaceable stops at module", `Quick, test_all_replaceable_stops_at_module);
    ("none replaceable", `Quick, test_none_replaceable);
    ("stop_at granularities", `Quick, test_stop_at_granularities);
    ("binary split reduces tests", `Quick, test_binary_split_reduces_tests);
    ("prioritization order", `Quick, test_prioritization_order);
    ("parallel equals sequential", `Quick, test_parallel_equals_sequential);
    ("ignore hints excluded", `Quick, test_ignore_hints_excluded);
    ("force_single expands over ignores", `Quick, test_force_single_expands_over_ignores);
    ("second phase composes", `Quick, test_second_phase_composes);
    ("trap counts as failure", `Quick, test_trap_counts_as_failure);
    ("ep.W traps are logged as traps", `Quick, test_traps_are_logged_as_traps);
    ("tested counts final", `Quick, test_tested_counts_final);
  ]
