(* Tests for the resilient evaluation subsystem: verdict classification and
   containment, retries, deterministic fault injection, and resuming an
   inline campaign from its [--journal] store log. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let verdict_t = Alcotest.testable Verdict.pp_verdict ( = )

(* The controlled synthetic kernel of test_search: [poison] chains use 0.1
   (inexact in binary32, so replacement shifts their output), benign chains
   use 0.5 (exact). The builder is deterministic, so two calls produce
   identical programs and comparable configuration digests. *)
let synthetic_kernel ~n_ops ~poison =
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
  {
    Kernel.name = "syn.W";
    program;
    setup = (fun _ -> ());
    output = (fun vm -> Vm.read_f vm out n_ops);
    verify = (fun res -> res = reference);
    reference;
    hints = Config.empty;
    comm_bytes = (fun ~ranks:_ _ -> 0.0);
  }

let synthetic ?eval_steps ?faults ~n_ops ~poison () =
  let k = synthetic_kernel ~n_ops ~poison in
  (k.Kernel.program, Kernel.target ?eval_steps ?faults k)

(* ------------------------------------------------- classification *)

let test_classification () =
  let ev f = Harness.eval (Harness.make f) Config.empty in
  Alcotest.check verdict_t "pass" Verdict.Pass (ev (fun _ -> true));
  Alcotest.check verdict_t "fail" Verdict.Fail_verify (ev (fun _ -> false));
  Alcotest.check verdict_t "trap"
    (Verdict.Trapped (7, "boom"))
    (ev (fun _ -> raise (Vm.Trap (7, "boom"))));
  Alcotest.check verdict_t "timeout" Verdict.Step_timeout
    (ev (fun _ -> raise (Vm.Limit 5)));
  (match ev (fun _ -> failwith "dead evaluator") with
  | Verdict.Crashed _ -> ()
  | v -> Alcotest.failf "expected crash, got %a" Verdict.pp_verdict v);
  (match ev (fun _ -> raise Stack_overflow) with
  | Verdict.Crashed _ -> ()
  | v -> Alcotest.failf "expected crash, got %a" Verdict.pp_verdict v)

let test_counters_tally () =
  let h = Harness.make (fun _ -> raise (Vm.Trap (1, "x"))) in
  ignore (Harness.eval h Config.empty);
  ignore (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "evaluations" 2 c.Harness.evaluations;
  checki "attempts" 2 c.Harness.attempts;
  checki "trapped" 2 c.Harness.trapped;
  checki "pass" 0 c.Harness.pass

(* ------------------------------------------------- retries *)

let test_retry_recovers_transient () =
  let calls = ref 0 in
  let raw _ =
    incr calls;
    if !calls = 1 then failwith "flaky" else true
  in
  let h = Harness.make ~retries:2 raw in
  Alcotest.check verdict_t "recovered" Verdict.Pass (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "one retry" 1 c.Harness.retried;
  checki "two attempts" 2 c.Harness.attempts;
  (* without retries the flaky verdict is final *)
  calls := 0;
  let h0 = Harness.make ~retries:0 raw in
  Alcotest.check verdict_t "no retry" (Verdict.Crashed "Failure(\"flaky\")")
    (Harness.eval h0 Config.empty);
  (* a VM trap is deterministic: final, whatever the budget *)
  let ht = Harness.make ~retries:2 (fun _ -> raise (Vm.Trap (1, "x"))) in
  Alcotest.check verdict_t "trap is final" (Verdict.Trapped (1, "x"))
    (Harness.eval ht Config.empty);
  checki "trap attempted once" 1 (Harness.counters ht).Harness.attempts

(* A step-budget overrun repeats on every run, and a wall-clock deadline
   miss leaves its pool task cancelled: a timeout is final, whatever the
   budget. *)
let test_timeout_is_final () =
  let h = Harness.make ~retries:3 (fun _ -> raise (Vm.Limit 1)) in
  Alcotest.check verdict_t "still timeout" Verdict.Step_timeout
    (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "attempts" 1 c.Harness.attempts;
  checki "retried" 0 c.Harness.retried

(* A genuine verification failure is final even with the injector armed:
   a fault that never fires forges nothing, and re-running a
   deterministic failure only repeats it. *)
let test_genuine_failure_is_final () =
  let faults =
    Faults.create
      { Faults.seed = 7; rate = 0.0; modes = [ Faults.Bitflip; Faults.Corrupt ]; transient = true }
  in
  let _, target = synthetic ~faults ~n_ops:4 ~poison:[ 1 ] () in
  let h, t = Harness.wrap_target ~retries:2 target in
  Alcotest.check verdict_t "fail is final" Verdict.Fail_verify
    (t.Bfs.Target.eval (Config.set_module Config.empty "syn" Config.Single));
  checki "the injector never fired" 0 (Faults.injected faults);
  let c = Harness.counters h in
  checki "attempted once" 1 c.Harness.attempts;
  checki "never retried" 0 c.Harness.retried

(* Silent corruption that fails verification is the injector's failure,
   not the configuration's: a crash, retried like any crash. The fault is
   persistent, so every attempt is corrupted and the crash is final. *)
let test_bitflip_failure_is_a_crash () =
  let faults =
    Faults.create { Faults.seed = 2; rate = 1.0; modes = [ Faults.Bitflip ]; transient = false }
  in
  let _, target = synthetic ~faults ~n_ops:8 ~poison:[] () in
  let h = Harness.make ~retries:2 target.Bfs.Target.raw_eval in
  (match Harness.eval h (Config.set_module Config.empty "syn" Config.Single) with
  | Verdict.Crashed _ -> ()
  | v -> Alcotest.failf "expected a crash, got %a" Verdict.pp_verdict v);
  checki "every attempt was flipped" 3 (Faults.injected faults);
  let c = Harness.counters h in
  checki "crashed on every attempt" 3 c.Harness.crashed;
  checki "retried" 2 c.Harness.retried;
  checki "no verification failure" 0 c.Harness.fail_verify

(* ------------------------------------------------- serialization *)

let test_verdict_string_roundtrip () =
  List.iter
    (fun v ->
      match Verdict.verdict_of_string (Verdict.verdict_to_string v) with
      | Some v' -> Alcotest.check verdict_t "roundtrip" v v'
      | None ->
          Alcotest.failf "did not parse back: %s" (Verdict.verdict_to_string v))
    [
      Verdict.Pass;
      Verdict.Fail_verify;
      Verdict.Step_timeout;
      Verdict.Trapped (31, "replaced operand reaches a double-precision op");
      Verdict.Trapped (0, "odd chars: 100% | a:b\ttab");
      Verdict.Crashed "Failure(\"injected fault: evaluator crash\")";
    ];
  checkb "malformed trap" true (Verdict.verdict_of_string "trap:zz" = None);
  checkb "garbage" true (Verdict.verdict_of_string "bogus" = None);
  (* tokens must stay single-field for the store line format *)
  checkb "no spaces" true
    (not
       (String.contains
          (Verdict.verdict_to_string (Verdict.Trapped (1, "a b c")))
          ' '))

let test_fault_spec_roundtrip () =
  let specs =
    [
      Faults.default;
      {
        Faults.seed = 99;
        rate = 0.35;
        modes = [ Faults.Trap; Faults.Bitflip; Faults.Corrupt; Faults.Crash ];
        transient = false;
      };
    ]
  in
  List.iter
    (fun s ->
      match Faults.parse (Faults.to_string s) with
      | Ok s' -> checkb "spec roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  checkb "bad rate rejected" true (Result.is_error (Faults.parse "rate=1.5"));
  checkb "bad mode rejected" true (Result.is_error (Faults.parse "modes=trap+nope"));
  checkb "bad field rejected" true (Result.is_error (Faults.parse "frequency=2"));
  (match Faults.parse "seed=5,rate=0.1,modes=hang,persistent" with
  | Ok s ->
      checki "seed" 5 s.Faults.seed;
      checkb "persistent" false s.Faults.transient;
      checkb "modes" true (s.Faults.modes = [ Faults.Hang ])
  | Error e -> Alcotest.fail e)

(* ------------------------------------------------- containment *)

let all_modes = [ Faults.Trap; Faults.Hang; Faults.Bitflip; Faults.Corrupt; Faults.Crash ]

(* Property: over random fuzz programs with every fault mode armed at rate
   1.0, no injected trap/hang/corruption/crash ever escapes the harness. *)
let test_no_injected_fault_escapes () =
  for seed = 1 to 6 do
    let prog, input = Test_fuzz.random_program (seed * 7919) in
    let native = Vm.create prog in
    Vm.write_f native 0 input;
    Vm.run native;
    let expected = Vm.read_f native 0 Test_fuzz.n_slots in
    let faults =
      Faults.create
        { Faults.seed; rate = 1.0; modes = all_modes; transient = false }
    in
    let target =
      Bfs.Target.make ~faults prog
        ~setup:(fun vm -> Vm.write_f vm 0 input)
        ~output:(fun vm -> Vm.read_f vm 0 Test_fuzz.n_slots)
        ~verify:(fun out -> Test_fuzz.bits_equal out expected)
    in
    let h = Harness.make ~retries:1 target.Bfs.Target.raw_eval in
    let rng = Rng.create (seed + 4242) in
    let cfgs =
      Config.empty
      :: Config.set_module Config.empty "fuzz" Config.Single
      :: List.init 10 (fun _ ->
             Array.fold_left
               (fun acc (info : Static.insn_info) ->
                 if Rng.int rng 2 = 0 then Config.set_insn acc info.Static.addr Config.Single
                 else acc)
               Config.empty (Static.candidates prog))
    in
    List.iter
      (fun cfg ->
        match Harness.eval h cfg with
        | _ -> ()
        | exception e ->
            Alcotest.failf "seed %d: fault escaped the harness: %s" seed
              (Printexc.to_string e))
      cfgs
  done

let test_search_survives_total_hostility () =
  let faults =
    Faults.create { Faults.seed = 3; rate = 1.0; modes = all_modes; transient = false }
  in
  let _, target = synthetic ~faults ~n_ops:8 ~poison:[ 2; 5 ] () in
  let h, t = Harness.wrap_target ~retries:1 target in
  let res = Bfs.search t in
  checkb "search completes" true (res.Bfs.tested > 0);
  checkb "faults actually fired" true (Faults.injected faults > 0);
  let c = Harness.counters h in
  checkb "breakdown saw infrastructure failures" true
    (c.Harness.trapped + c.Harness.timed_out + c.Harness.crashed > 0)

let test_defensive_domain_join () =
  (* an eval that always raises must fail items, never kill the wave *)
  let _, target = synthetic ~n_ops:8 ~poison:[] () in
  let hostile = { target with Bfs.Target.eval = (fun _ -> failwith "worker died") } in
  let res = Bfs.search ~options:{ Bfs.default_options with workers = 4 } hostile in
  checkb "parallel search completes" true (res.Bfs.tested > 0);
  checki "nothing passes" 0 res.Bfs.static_replaced

let test_step_budget_times_out () =
  let _, target = synthetic ~eval_steps:10 ~n_ops:8 ~poison:[] () in
  let h = Harness.make target.Bfs.Target.raw_eval in
  Alcotest.check verdict_t "budget blowout classified" Verdict.Step_timeout
    (Harness.eval h Config.empty)

let test_vm_double_run_guard () =
  let program, _ = synthetic ~n_ops:2 ~poison:[] () in
  let vm = Vm.create program in
  Vm.run vm;
  checkb "second run rejected" true
    (match Vm.run vm with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Under ~20% transient faults with retries, the BFS reaches the same final
   configuration as a fault-free run. Returns both runs and the faulty
   run's harness counters. *)
let equivalent_under_faults ~modes seed =
  let n_ops = 8 and poison = [ 2; 5 ] in
  let prog, clean_target = synthetic ~n_ops ~poison () in
  let clean = Bfs.search clean_target in
  let faults = Faults.create { Faults.seed; rate = 0.2; modes; transient = true } in
  let _, faulty_target = synthetic ~faults ~n_ops ~poison () in
  let h, t = Harness.wrap_target ~retries:2 faulty_target in
  let faulty = Bfs.search t in
  checkb "faults actually fired" true (Faults.injected faults > 0);
  checks "same final configuration"
    (Config.digest prog clean.Bfs.final)
    (Config.digest prog faulty.Bfs.final);
  checkb "retries were exercised" true ((Harness.counters h).Harness.retried > 0);
  checkb "faulty run passes" true faulty.Bfs.final_pass;
  (clean, faulty, Harness.counters h)

let test_transient_faults_same_final_config () =
  ignore (equivalent_under_faults ~modes:[ Faults.Trap; Faults.Hang ] 11)

let test_transient_corruption_same_final_config () =
  (* only silent faults are armed: a corrupted run that fails verification
     is a crash, so the retries recover the fault-free verdict and the
     campaign tests and converges on exactly what the fault-free one does *)
  let clean, faulty, c = equivalent_under_faults ~modes:[ Faults.Bitflip; Faults.Corrupt ] 3 in
  checkb "a corrupted run crashed" true (c.Harness.crashed >= 1);
  checki "tested as the fault-free run" clean.Bfs.tested faulty.Bfs.tested

(* ------------------------------------------------- journal *)

(* [craft search --journal FILE] keeps the campaign's verdicts in a store
   log (Store.open_journal), evaluated through Store.wrap_target. *)

let with_temp_journal f =
  let path = Filename.temp_file "craft_journal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let open_journal ~resume path =
  match Store.open_journal ~resume ~path with
  | Ok store -> store
  | Error why -> Alcotest.fail why

(* One journaled BFS over [target]: the result, the store's counters and
   the harness. *)
let journaled_search ?(context = "syn") ~resume path target =
  let store = open_journal ~resume path in
  let harness, t = Harness.wrap_target target in
  let r = Bfs.search (Store.wrap_target store ~context t) in
  let stats = Store.stats store in
  Store.close store;
  (r, stats, harness)

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

(* write -> interrupt mid-campaign (log truncated to a prefix plus a
   half-written record) -> resume: identical final configuration, strictly
   fewer fresh evaluations, partial record dropped. *)
let test_journal_interrupt_resume () =
  with_temp_journal (fun path ->
      let prog, target = synthetic ~n_ops:8 ~poison:[ 2; 5 ] () in
      let full, s1, _ = journaled_search ~resume:false path target in
      let fresh_full = s1.Store.misses in
      checkb "full run recorded evaluations" true (fresh_full > 5);
      (* simulate the crash: keep the header + first 5 records, then the
         first half of the sixth with no trailing newline *)
      let lines = read_lines path in
      let torn = List.nth lines 6 in
      Out_channel.with_open_bin path (fun oc ->
          List.iteri (fun i l -> if i < 6 then output_string oc (l ^ "\n")) lines;
          output_string oc (String.sub torn 0 (String.length torn / 2)));
      let resumed, s2, _ = journaled_search ~resume:true path target in
      checki "replayed the intact prefix" 5 s2.Store.replayed;
      checks "same final configuration"
        (Config.digest prog full.Bfs.final)
        (Config.digest prog resumed.Bfs.final);
      checkb "strictly fewer fresh evaluations" true (s2.Store.misses < fresh_full);
      checki "resumed run completed the log" fresh_full (s2.Store.misses + s2.Store.replayed))

let test_journal_resume_skips_everything () =
  with_temp_journal (fun path ->
      let prog, target = synthetic ~n_ops:6 ~poison:[ 1 ] () in
      let first, _, _ = journaled_search ~resume:false path target in
      let second, s, h = journaled_search ~resume:true path target in
      checki "no fresh evaluations on resume" 0 s.Store.misses;
      checki "no program runs at all" 0 (Harness.counters h).Harness.attempts;
      checks "same final configuration"
        (Config.digest prog first.Bfs.final)
        (Config.digest prog second.Bfs.final))

(* Verdicts are keyed by the step budget: a log written under a budget
   that times every evaluation out serves none of them to a resume
   without it, which reproduces the unbudgeted campaign. *)
let test_journal_step_budget () =
  let k = synthetic_kernel ~n_ops:8 ~poison:[ 2; 5 ] in
  let search ?eval_steps ~resume path =
    let ctx =
      { Wire.bench = "syn"; cls = "W"; eval_steps; retries = 0; inject = None; deadline = None }
    in
    journaled_search ~context:(Store.context ctx k) ~resume path (Kernel.target ?eval_steps k)
  in
  with_temp_journal (fun path ->
      with_temp_journal (fun fresh_path ->
          let budgeted, _, h = search ~eval_steps:10 ~resume:false path in
          let c = Harness.counters h in
          checkb "the budget timed every evaluation out" true
            (c.Harness.attempts > 0 && c.Harness.timed_out = c.Harness.attempts);
          checkb "the budgeted final fails" false budgeted.Bfs.final_pass;
          let resumed, s, _ = search ~resume:true path in
          let clean, fresh, _ = search ~resume:false fresh_path in
          checkb "the budgeted log was replayed" true (s.Store.replayed > 0);
          checki "no verdict served from it" fresh.Store.hits s.Store.hits;
          checks "the unbudgeted final"
            (Config.digest k.Kernel.program clean.Bfs.final)
            (Config.digest k.Kernel.program resumed.Bfs.final);
          checki "tested" clean.Bfs.tested resumed.Bfs.tested;
          checkb "passes" true resumed.Bfs.final_pass))

(* ------------------------------------------------- serialization fuzz *)

let test_verdict_roundtrip_fuzz =
  let payload =
    QCheck2.Gen.(
      string_size
        ~gen:
          (oneofl
             [ '%'; ':'; ' '; '|'; '\t'; '\n'; '\r'; 'a'; 'Z'; '0'; '('; '"'; '\\' ])
        (int_bound 30))
  in
  let gen =
    QCheck2.Gen.(
      oneof
        [
          return Verdict.Pass;
          return Verdict.Fail_verify;
          return Verdict.Step_timeout;
          map (fun (a, s) -> Verdict.Trapped (abs a, s)) (pair small_nat payload);
          map (fun s -> Verdict.Crashed s) payload;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"verdict roundtrip survives hostile payloads" gen
       (fun v ->
         let s = Verdict.verdict_to_string v in
         (* single store-field token: no reserved separator leaks through *)
         (not (String.exists (fun c -> c = ' ' || c = '|' || c = '\n' || c = '\t') s))
         && Verdict.verdict_of_string s = Some v))

let test_journal_trailing_corruption_fuzz =
  let gen =
    QCheck2.Gen.(pair (int_bound 1000) (string_size ~gen:(char_range '\x00' '\x7e') (int_bound 48)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"journal tolerates corrupted trailing records" gen
       (fun (seed, junk) ->
         with_temp_journal (fun path ->
             let crash = Verdict.Crashed "odd: 100% | x\ty" in
             let record store key v = ignore (Store.find_or_compute store ~key (fun () -> v)) in
             let store = open_journal ~resume:false path in
             record store "syn/ctx/a" Verdict.Pass;
             record store "syn/ctx/b" crash;
             Store.close store;
             (* simulate a crash mid-append: garbage / a truncated half-record
                after the intact prefix *)
             let oc = open_out_gen [ Open_append ] 0o644 path in
             if seed mod 3 = 0 then output_string oc "\n";
             output_string oc junk;
             close_out oc;
             let store = open_journal ~resume:true path in
             let served key =
               match Store.find_or_compute store ~key (fun () -> Verdict.Fail_verify) with
               | v, true -> Some v
               | _, false -> None
             in
             let ok =
               (Store.stats store).Store.replayed >= 2
               && served "syn/ctx/a" = Some Verdict.Pass
               && served "syn/ctx/b" = Some crash
             in
             Store.close store;
             ok)))

let suite =
  [
    ("verdict classification", `Quick, test_classification);
    ("counters tally per attempt", `Quick, test_counters_tally);
    ("retry recovers a transient fault", `Quick, test_retry_recovers_transient);
    ("a timeout is final under retries", `Quick, test_timeout_is_final);
    ("a genuine failure is final under an armed injector", `Quick, test_genuine_failure_is_final);
    ("a bit flip that fails verification is a retried crash", `Quick,
      test_bitflip_failure_is_a_crash);
    ("verdict string roundtrip", `Quick, test_verdict_string_roundtrip);
    test_verdict_roundtrip_fuzz;
    test_journal_trailing_corruption_fuzz;
    ("fault spec parse roundtrip", `Quick, test_fault_spec_roundtrip);
    ("no injected fault escapes the harness", `Quick, test_no_injected_fault_escapes);
    ("search survives 100% fault rate", `Quick, test_search_survives_total_hostility);
    ("defensive domain join", `Quick, test_defensive_domain_join);
    ("step budget becomes a timeout verdict", `Quick, test_step_budget_times_out);
    ("vm rejects a second run", `Quick, test_vm_double_run_guard);
    ("20% transient faults: same final config", `Quick, test_transient_faults_same_final_config);
    ( "transient corruption: same final config",
      `Quick,
      test_transient_corruption_same_final_config );
    ("journal interrupt/resume", `Quick, test_journal_interrupt_resume);
    ("journal full resume skips everything", `Quick, test_journal_resume_skips_everything);
    ("journal: a step-budgeted log serves no unbudgeted run", `Quick, test_journal_step_budget);
  ]
