(* Tests for the resilient evaluation subsystem: verdict classification and
   containment, retry/backoff, deterministic fault injection, and journal
   resume. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let verdict_t = Alcotest.testable Harness.pp_verdict ( = )

(* The controlled synthetic target of test_search: [poison] chains use 0.1
   (inexact in binary32, so replacement shifts their output), benign chains
   use 0.5 (exact). The builder is deterministic, so two calls produce
   identical programs and comparable configuration digests. *)
let synthetic ?eval_steps ?faults ~n_ops ~poison () =
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
    Bfs.Target.make ?eval_steps ?faults program
      ~setup:(fun _ -> ())
      ~output:(fun vm -> Vm.read_f vm out n_ops)
      ~verify:(fun res -> res = reference)
  in
  (program, target)

(* ------------------------------------------------- classification *)

let test_classification () =
  let ev f = Harness.eval (Harness.make f) Config.empty in
  Alcotest.check verdict_t "pass" Harness.Pass (ev (fun _ -> true));
  Alcotest.check verdict_t "fail" Harness.Fail_verify (ev (fun _ -> false));
  Alcotest.check verdict_t "trap"
    (Harness.Trapped (7, "boom"))
    (ev (fun _ -> raise (Vm.Trap (7, "boom"))));
  Alcotest.check verdict_t "timeout" Harness.Step_timeout
    (ev (fun _ -> raise (Vm.Limit 5)));
  (match ev (fun _ -> failwith "dead evaluator") with
  | Harness.Crashed _ -> ()
  | v -> Alcotest.failf "expected crash, got %a" Harness.pp_verdict v);
  (match ev (fun _ -> raise Stack_overflow) with
  | Harness.Crashed _ -> ()
  | v -> Alcotest.failf "expected crash, got %a" Harness.pp_verdict v)

let test_counters_tally () =
  let h = Harness.make (fun _ -> raise (Vm.Trap (1, "x"))) in
  ignore (Harness.eval h Config.empty);
  ignore (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "evaluations" 2 c.Harness.evaluations;
  checki "attempts" 2 c.Harness.attempts;
  checki "trapped" 2 c.Harness.trapped;
  checki "pass" 0 c.Harness.pass

(* ------------------------------------------------- retries + backoff *)

let test_retry_recovers_transient () =
  let calls = ref 0 in
  let raw _ =
    incr calls;
    if !calls = 1 then raise (Vm.Trap (1, "flaky")) else true
  in
  let h = Harness.make ~retries:2 raw in
  Alcotest.check verdict_t "recovered" Harness.Pass (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "one retry" 1 c.Harness.retried;
  checki "two attempts" 2 c.Harness.attempts;
  (* without retries the flaky verdict is final *)
  calls := 0;
  let h0 = Harness.make ~retries:0 raw in
  Alcotest.check verdict_t "no retry" (Harness.Trapped (1, "flaky"))
    (Harness.eval h0 Config.empty)

let test_backoff_deterministic () =
  let h = Harness.make ~retries:3 ~backoff:2 (fun _ -> raise (Vm.Limit 1)) in
  Alcotest.check verdict_t "still timeout" Harness.Step_timeout
    (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "attempts" 4 c.Harness.attempts;
  checki "retried" 3 c.Harness.retried;
  (* exponential: 2*1 + 2*2 + 2*4 *)
  checki "backoff units" 14 c.Harness.backoff_units

let test_retry_fail_verify_opt_in () =
  let calls = ref 0 in
  let raw _ =
    incr calls;
    !calls > 1
  in
  let h = Harness.make ~retries:1 raw in
  Alcotest.check verdict_t "fail is final by default" Harness.Fail_verify
    (Harness.eval h Config.empty);
  calls := 0;
  let h' = Harness.make ~retries:1 ~retry_fail_verify:true raw in
  Alcotest.check verdict_t "retried to pass" Harness.Pass (Harness.eval h' Config.empty)

(* ------------------------------------------------- serialization *)

let test_verdict_string_roundtrip () =
  List.iter
    (fun v ->
      match Harness.verdict_of_string (Harness.verdict_to_string v) with
      | Some v' -> Alcotest.check verdict_t "roundtrip" v v'
      | None ->
          Alcotest.failf "did not parse back: %s" (Harness.verdict_to_string v))
    [
      Harness.Pass;
      Harness.Fail_verify;
      Harness.Step_timeout;
      Harness.Trapped (31, "replaced operand reaches a double-precision op");
      Harness.Trapped (0, "odd chars: 100% | a:b\ttab");
      Harness.Crashed "Failure(\"injected fault: evaluator crash\")";
    ];
  checkb "malformed trap" true (Harness.verdict_of_string "trap:zz" = None);
  checkb "garbage" true (Harness.verdict_of_string "bogus" = None);
  (* tokens must stay single-field for the journal line format *)
  checkb "no spaces" true
    (not
       (String.contains
          (Harness.verdict_to_string (Harness.Trapped (1, "a b c")))
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
  Alcotest.check verdict_t "budget blowout classified" Harness.Step_timeout
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
   configuration as a fault-free run. *)
let equivalent_under_faults ~modes ~retry_fail_verify seed =
  let n_ops = 8 and poison = [ 2; 5 ] in
  let prog, clean_target = synthetic ~n_ops ~poison () in
  let clean = Bfs.search clean_target in
  let faults = Faults.create { Faults.seed; rate = 0.2; modes; transient = true } in
  let _, faulty_target = synthetic ~faults ~n_ops ~poison () in
  let h, t = Harness.wrap_target ~retries:2 ~retry_fail_verify faulty_target in
  let faulty = Bfs.search t in
  checkb "faults actually fired" true (Faults.injected faults > 0);
  checks "same final configuration"
    (Config.digest prog clean.Bfs.final)
    (Config.digest prog faulty.Bfs.final);
  checkb "retries were exercised" true ((Harness.counters h).Harness.retried > 0);
  checkb "faulty run passes" true faulty.Bfs.final_pass

let test_transient_faults_same_final_config () =
  equivalent_under_faults ~modes:[ Faults.Trap; Faults.Hang ] ~retry_fail_verify:false 11

let test_transient_corruption_same_final_config () =
  (* silent corruption forges fail-verify verdicts, so retries must extend
     to them for the campaign to converge on the fault-free answer *)
  equivalent_under_faults
    ~modes:[ Faults.Trap; Faults.Hang; Faults.Bitflip; Faults.Corrupt; Faults.Crash ]
    ~retry_fail_verify:true 11

(* ------------------------------------------------- journal *)

let with_temp_journal f =
  let path = Filename.temp_file "craft_journal" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let prog, _ = synthetic ~n_ops:4 ~poison:[ 1 ] () in
      let cands = Static.candidates prog in
      let cfg1 = Config.set_insn Config.empty cands.(0).Static.addr Config.Single in
      let cfg2 = Config.set_module Config.empty "syn" Config.Single in
      let j = Journal.create ~path prog in
      Journal.record j cfg1 Harness.Pass;
      Journal.record j cfg2 (Harness.Trapped (12, "replaced operand reaches a double-precision op"));
      Journal.record j Config.empty Harness.Step_timeout;
      (* duplicate digests are not re-appended *)
      Journal.record j cfg1 Harness.Fail_verify;
      checki "entries" 3 (Journal.entries j);
      Journal.close j;
      Journal.close j;
      let j2 = Journal.create ~resume:true ~path prog in
      checki "replayed" 3 (Journal.replayed j2);
      checkb "verdict survives" true (Journal.lookup j2 cfg1 = Some Harness.Pass);
      checkb "payload survives" true
        (Journal.lookup j2 cfg2
        = Some (Harness.Trapped (12, "replaced operand reaches a double-precision op")));
      checkb "timeout survives" true (Journal.lookup j2 Config.empty = Some Harness.Step_timeout);
      Journal.close j2)

let test_journal_tolerates_garbage () =
  with_temp_journal (fun path ->
      let prog, _ = synthetic ~n_ops:4 ~poison:[] () in
      let j = Journal.create ~path prog in
      Journal.record j Config.empty Harness.Pass;
      Journal.close j;
      (* corrupt the file: a garbage middle line and a truncated last record *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not a record at all\n";
      output_string oc "9f9f truncated-half-rec";
      close_out oc;
      let j2 = Journal.create ~resume:true ~path prog in
      checki "only the valid record survives" 1 (Journal.replayed j2);
      checkb "lookup works" true (Journal.lookup j2 Config.empty = Some Harness.Pass);
      Journal.close j2)

(* write -> interrupt mid-campaign (journal truncated to a prefix plus a
   half-written record) -> resume: identical final configuration, strictly
   fewer fresh evaluations, partial record dropped. *)
let test_journal_interrupt_resume () =
  with_temp_journal (fun path ->
      let n_ops = 8 and poison = [ 2; 5 ] in
      let prog, target = synthetic ~n_ops ~poison () in
      let h1, t1 = Harness.wrap_target target in
      let j1 = Journal.create ~path prog in
      let full = Bfs.search (Journal.wrap_target j1 ~harness:h1 t1) in
      let fresh_full = Journal.fresh j1 in
      Journal.close j1;
      checkb "full run recorded evaluations" true (fresh_full > 5);
      (* simulate the crash: keep the header + first 5 records, then a
         half-written line with no trailing newline *)
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let keep = List.filteri (fun i _ -> i < 6) (List.rev !lines) in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      output_string oc "8722950da476b334 pa";
      close_out oc;
      (* resume *)
      let h2, t2 = Harness.wrap_target target in
      let j2 = Journal.create ~resume:true ~path prog in
      let resumed = Bfs.search (Journal.wrap_target j2 ~harness:h2 t2) in
      checki "replayed the intact prefix" 5 (Journal.replayed j2);
      checks "same final configuration"
        (Config.digest prog full.Bfs.final)
        (Config.digest prog resumed.Bfs.final);
      checkb "strictly fewer fresh evaluations" true (Journal.fresh j2 < fresh_full);
      checki "resumed run completed the journal" fresh_full
        (Journal.fresh j2 + Journal.replayed j2);
      Journal.close j2)

let test_journal_resume_skips_everything () =
  with_temp_journal (fun path ->
      let prog, target = synthetic ~n_ops:6 ~poison:[ 1 ] () in
      let h1, t1 = Harness.wrap_target target in
      let j1 = Journal.create ~path prog in
      let first = Bfs.search (Journal.wrap_target j1 ~harness:h1 t1) in
      Journal.close j1;
      let h2, t2 = Harness.wrap_target target in
      let j2 = Journal.create ~resume:true ~path prog in
      let second = Bfs.search (Journal.wrap_target j2 ~harness:h2 t2) in
      checki "no fresh evaluations on resume" 0 (Journal.fresh j2);
      checki "no program runs at all" 0 (Harness.counters h2).Harness.attempts;
      checks "same final configuration"
        (Config.digest prog first.Bfs.final)
        (Config.digest prog second.Bfs.final);
      Journal.close j2)

(* ------------------------------------------------- backoff clamp *)

let test_backoff_clamped_at_ceiling () =
  (* a large retry budget with a huge base must saturate each modeled delay
     at the documented ceiling instead of overflowing [1 lsl attempt] *)
  let h = Harness.make ~retries:80 ~backoff:max_int (fun _ -> raise (Vm.Limit 1)) in
  Alcotest.check verdict_t "still timeout" Harness.Step_timeout
    (Harness.eval h Config.empty);
  let c = Harness.counters h in
  checki "all retries performed" 80 c.Harness.retried;
  checkb "accumulator did not wrap negative" true (c.Harness.backoff_units > 0);
  checki "every delay saturates at the ceiling" (80 * Harness.max_backoff_unit)
    c.Harness.backoff_units;
  (* small bases below the ceiling still follow the exponential curve *)
  let h' = Harness.make ~retries:3 ~backoff:2 (fun _ -> raise (Vm.Limit 1)) in
  ignore (Harness.eval h' Config.empty);
  checki "unclamped region unchanged" 14 (Harness.counters h').Harness.backoff_units

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
          return Harness.Pass;
          return Harness.Fail_verify;
          return Harness.Step_timeout;
          map (fun (a, s) -> Harness.Trapped (abs a, s)) (pair small_nat payload);
          map (fun s -> Harness.Crashed s) payload;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"verdict roundtrip survives hostile payloads" gen
       (fun v ->
         let s = Harness.verdict_to_string v in
         (* single journal-field token: no reserved separator leaks through *)
         (not (String.exists (fun c -> c = ' ' || c = '|' || c = '\n' || c = '\t') s))
         && Harness.verdict_of_string s = Some v))

let test_journal_trailing_corruption_fuzz =
  let gen =
    QCheck2.Gen.(pair (int_bound 1000) (string_size ~gen:(char_range '\x00' '\x7e') (int_bound 48)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"journal tolerates corrupted trailing records" gen
       (fun (seed, junk) ->
         with_temp_journal (fun path ->
             let prog, _ = synthetic ~n_ops:4 ~poison:[ 1 ] () in
             let cands = Static.candidates prog in
             let cfg1 = Config.set_insn Config.empty cands.(0).Static.addr Config.Single in
             let crash = Harness.Crashed "odd: 100% | x\ty" in
             let j = Journal.create ~path prog in
             Journal.record j Config.empty Harness.Pass;
             Journal.record j cfg1 crash;
             Journal.close j;
             (* simulate a crash mid-append: garbage / a truncated half-record
                after the intact prefix *)
             let oc = open_out_gen [ Open_append ] 0o644 path in
             if seed mod 3 = 0 then output_string oc "\n";
             output_string oc junk;
             close_out oc;
             let j2 = Journal.create ~resume:true ~path prog in
             let ok =
               Journal.replayed j2 >= 2
               && Journal.lookup j2 Config.empty = Some Harness.Pass
               && Journal.lookup j2 cfg1 = Some crash
             in
             Journal.close j2;
             ok)))

let suite =
  [
    ("verdict classification", `Quick, test_classification);
    ("counters tally per attempt", `Quick, test_counters_tally);
    ("retry recovers a transient fault", `Quick, test_retry_recovers_transient);
    ("deterministic exponential backoff", `Quick, test_backoff_deterministic);
    ("backoff clamps at the ceiling", `Quick, test_backoff_clamped_at_ceiling);
    ("retry_fail_verify is opt-in", `Quick, test_retry_fail_verify_opt_in);
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
    ("journal roundtrip", `Quick, test_journal_roundtrip);
    ("journal tolerates garbage + truncation", `Quick, test_journal_tolerates_garbage);
    ("journal interrupt/resume", `Quick, test_journal_interrupt_resume);
    ("journal full resume skips everything", `Quick, test_journal_resume_skips_everything);
  ]
