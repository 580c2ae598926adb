(* Tests for the supervised evaluation worker pool: ordering, wall-clock
   deadlines over genuinely non-terminating tasks, classification of what
   escapes a task, degradation to serial after abandoned workers, and the
   cooperative VM-watchdog cancellation path. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let verdict_t = Alcotest.testable Verdict.pp_verdict ( = )

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let with_pool ?options ?log f =
  let p = Pool.create ?options ?log () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* A task that never returns and never touches the VM: the step budget and
   the cooperative watchdog are both blind to it, so only the wall-clock
   monitor's abandon-after-grace tier can resolve it. The zombie worker
   keeps sleeping and dies with the test process. *)
let hang () =
  while true do
    Unix.sleepf 0.005
  done;
  assert false

(* ------------------------------------------------- ordering *)

(* one task through [Pool.run]: one verdict back *)
let run1 p thunk =
  match Pool.run p [ thunk ] with [ v ] -> v | _ -> Alcotest.fail "one task, one verdict"

let test_results_in_submission_order () =
  with_pool ~options:{ Pool.default_options with workers = 3 } (fun p ->
      let thunks =
        List.init 20 (fun i () ->
            (* stagger completions so submission order <> completion order *)
            Unix.sleepf (float_of_int ((i * 7) mod 5) *. 0.002);
            Verdict.Trapped (i, "tag"))
      in
      let out = Pool.run p thunks in
      List.iteri
        (fun i v -> Alcotest.check verdict_t "order" (Verdict.Trapped (i, "tag")) v)
        out;
      let s = Pool.stats p in
      checki "all completed" 20 s.Pool.completed;
      checki "no replacement" 0 s.Pool.restarts)

let test_reusable_across_waves () =
  with_pool ~options:{ Pool.default_options with workers = 2 } (fun p ->
      for _ = 1 to 5 do
        let out = Pool.run p (List.init 4 (fun _ () -> Verdict.Pass)) in
        checkb "wave all pass" true (List.for_all (( = ) Verdict.Pass) out)
      done;
      checki "20 tasks over one pool" 20 (Pool.stats p).Pool.tasks)

(* ------------------------------------------------- deadlines *)

let test_nonterminating_task_times_out () =
  let t0 = Unix.gettimeofday () in
  with_pool
    ~options:
      {
        Pool.default_options with
        workers = 2;
        deadline = Some 0.1;
        grace = 0.1;
      }
    (fun p ->
      let thunks =
        [
          (fun () -> Verdict.Pass);
          (fun () -> hang ());
          (fun () -> Verdict.Fail_verify);
          (fun () -> Verdict.Pass);
        ]
      in
      let out = Pool.run p thunks in
      (* the hung task resolves as a timeout; every other item still
         completes — the campaign is never frozen *)
      Alcotest.check (Alcotest.list verdict_t) "verdicts"
        [ Verdict.Pass; Verdict.Step_timeout; Verdict.Fail_verify; Verdict.Pass ]
        out;
      let s = Pool.stats p in
      checkb "deadline miss recorded" true (s.Pool.deadline_misses >= 1);
      checkb "worker abandoned" true (s.Pool.abandoned >= 1);
      checkb "replacement staffed" true (s.Pool.restarts >= 1);
      checkb "events narrated" true (Pool.drain_events p <> []));
  checkb "completed within deadline + grace (not hung forever)" true
    (Unix.gettimeofday () -. t0 < 5.0)

let test_cooperative_vm_cancel () =
  (* A VM program that runs far past the deadline: the monitor's first tier
     (cancel flag -> per-insn watchdog -> Vm.Deadline) must stop it without
     ever reaching the abandon tier. *)
  let t = Builder.create () in
  let cell = Builder.alloc_f t 1 in
  let main =
    Builder.func t ~module_:"spin" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        Builder.for_range b 0 50_000_000 (fun _ ->
            let v = Builder.loadf b (Builder.at cell) in
            Builder.storef b (Builder.at cell) (Builder.fadd b v v)))
  in
  let prog = Builder.program t ~main in
  with_pool
    ~options:
      {
        Pool.default_options with
        workers = 1;
        deadline = Some 0.05;
        grace = 30.0 (* far away: only the cooperative tier may fire *);
      }
    (fun p ->
      let v =
        run1 p (fun () ->
            Verdict.classify (fun () ->
                let vm = Vm.create prog in
                Vm.run vm;
                true))
      in
      Alcotest.check verdict_t "cancelled cooperatively" Verdict.Step_timeout v;
      let s = Pool.stats p in
      checkb "deadline miss recorded" true (s.Pool.deadline_misses >= 1);
      checki "never abandoned" 0 s.Pool.abandoned;
      checki "no replacement" 0 s.Pool.restarts)

(* ------------------------------------------------- escaping exceptions *)

(* An exception escaping a task is that task's verdict, classified as every
   other layer classifies it: the task runs once and its worker takes the
   next task. *)
let test_escaping_exception_is_the_verdict () =
  with_pool ~options:{ Pool.default_options with workers = 1 } (fun p ->
      let raised = Atomic.make 0 in
      let worker = Atomic.make (-1) in
      let on_worker () = Atomic.set worker (Domain.self () :> int) in
      let out =
        Pool.run p
          [
            (fun () ->
              on_worker ();
              Verdict.Pass);
            (fun () ->
              Atomic.incr raised;
              failwith "evaluator blew past containment");
            (fun () -> raise (Vm.Trap (7, "boom")));
            (fun () -> raise (Vm.Limit 5));
          ]
      in
      Alcotest.check (Alcotest.list verdict_t) "verdicts"
        [
          Verdict.Pass;
          Verdict.Crashed "Failure(\"evaluator blew past containment\")";
          Verdict.Trapped (7, "boom");
          Verdict.Step_timeout;
        ]
        out;
      checki "the raising thunk ran once" 1 (Atomic.get raised);
      let first = Atomic.get worker in
      Alcotest.check verdict_t "next wave" Verdict.Pass
        (run1 p (fun () ->
             on_worker ();
             Verdict.Pass));
      checki "the same worker serves the next wave" first (Atomic.get worker);
      (* the campaign-kill exception ends one task under a pool *)
      (match run1 p (fun () -> raise Bfs.Aborted) with
      | Verdict.Crashed _ -> ()
      | v -> Alcotest.failf "Aborted: expected a crash, got %a" Verdict.pp_verdict v);
      checki "no replacement" 0 (Pool.stats p).Pool.restarts)

(* Abandoned workers are replaced until more than [max_worker_loss] have
   been lost; then the pool degrades and the submitter runs what is left
   inline, classifying what escapes it the same way. *)
let test_collapse_degrades_to_serial () =
  let events = ref [] in
  with_pool
    ~options:
      {
        Pool.default_options with
        workers = 1;
        deadline = Some 0.05;
        grace = 0.05;
        max_worker_loss = 1;
      }
    ~log:(fun s -> events := s :: !events)
    (fun p ->
      let out =
        Pool.run p (List.init 6 (fun i () -> if i < 2 then hang () else Verdict.Pass))
      in
      Alcotest.check (Alcotest.list verdict_t) "verdicts"
        Verdict.[ Step_timeout; Step_timeout; Pass; Pass; Pass; Pass ]
        out;
      let s = Pool.stats p in
      checkb "pool degraded" true s.Pool.degraded;
      checki "both hung workers abandoned" 2 s.Pool.abandoned;
      checki "one replacement staffed" 1 s.Pool.restarts;
      checki "the rest ran inline" 4 s.Pool.inline_runs;
      checkb "degradation logged" true
        (List.exists (fun e -> has_substring ~sub:"degrading" e) !events);
      (* a degraded pool keeps accepting and finishing work *)
      Alcotest.check verdict_t "still serves" Verdict.Pass
        (run1 p (fun () -> Verdict.Pass)))

(* a degraded pool runs tasks inline and classifies what escapes them the
   way every other layer does *)
let test_degraded_pool_classifies () =
  with_pool
    ~options:
      {
        Pool.default_options with
        workers = 1;
        deadline = Some 0.05;
        grace = 0.05;
        max_worker_loss = 0;
      }
    (fun p ->
      Alcotest.check verdict_t "the hung task times out" Verdict.Step_timeout (run1 p hang);
      checkb "pool degraded" true (Pool.stats p).Pool.degraded;
      Alcotest.check verdict_t "a trap is a trap"
        (Verdict.Trapped (7, "boom"))
        (run1 p (fun () -> raise (Vm.Trap (7, "boom"))));
      Alcotest.check verdict_t "a step blowout is a timeout" Verdict.Step_timeout
        (run1 p (fun () -> raise (Vm.Limit 5)));
      (match run1 p (fun () -> raise Not_found) with
      | Verdict.Crashed _ -> ()
      | v -> Alcotest.failf "expected a crash, got %a" Verdict.pp_verdict v);
      checki "all three ran inline" 3 (Pool.stats p).Pool.inline_runs)

(* ------------------------------------------------- Bfs integration *)

let test_bfs_campaign_survives_hung_evaluator () =
  (* acceptance: a deliberately non-terminating evaluator (infinite loop
     OUTSIDE the VM step budget) on one configuration; the supervised
     campaign completes, records a timeout verdict for it, and finishes
     the remaining items *)
  let _, target = Test_harness.synthetic ~n_ops:6 ~poison:[ 1 ] () in
  let hung = Atomic.make false in
  let hostile =
    {
      target with
      Bfs.Target.eval =
        (fun cfg ->
          if not (Atomic.exchange hung true) then hang ()
          else target.Bfs.Target.eval cfg);
    }
  in
  with_pool
    ~options:
      {
        Pool.default_options with
        workers = 2;
        deadline = Some 0.1;
        grace = 0.1;
      }
    (fun p ->
      let res =
        Bfs.search ~options:{ Bfs.default_options with workers = 2; pool = Some p } hostile
      in
      checkb "campaign completed" true (res.Bfs.tested > 0);
      checkb "timeout verdict in the narration" true
        (List.exists
           (fun l -> has_prefix ~prefix:"TIMEOUT" l)
           res.Bfs.log);
      let s = Pool.stats p in
      checkb "abandoned the hung worker" true (s.Pool.abandoned >= 1);
      checkb "rest of the campaign completed" true (s.Pool.completed >= res.Bfs.tested - 1))

let test_bfs_transient_pool_classifies_crashes () =
  (* no caller pool: workers > 1 staffs a transient one; a hostile evaluator
     raising arbitrary exceptions yields CRASH verdicts per item, and the
     transient pool is shut down by the search itself *)
  let _, target = Test_harness.synthetic ~n_ops:6 ~poison:[] () in
  let hostile =
    { target with Bfs.Target.eval = (fun _ -> failwith "dead evaluator") }
  in
  let res = Bfs.search ~options:{ Bfs.default_options with workers = 3 } hostile in
  checkb "search completes" true (res.Bfs.tested > 0);
  checki "nothing passes" 0 res.Bfs.static_replaced;
  checkb "crashes classified in the narration" true
    (List.exists (fun l -> has_prefix ~prefix:"CRASH" l) res.Bfs.log)

let test_bfs_oom_and_stack_overflow_are_crash_verdicts () =
  (* satellite: OOM / Stack_overflow from an evaluation surface as Crashed
     verdicts (per-item), not as silent failures or campaign aborts *)
  let _, target = Test_harness.synthetic ~n_ops:4 ~poison:[] () in
  let n = Atomic.make 0 in
  let hostile =
    {
      target with
      Bfs.Target.eval =
        (fun cfg ->
          match Atomic.fetch_and_add n 1 with
          | 0 -> raise Stack_overflow
          | 1 -> raise Out_of_memory
          | _ -> target.Bfs.Target.eval cfg);
    }
  in
  let res = Bfs.search ~options:{ Bfs.default_options with workers = 2 } hostile in
  checkb "campaign completed" true (res.Bfs.tested > 2);
  checki "two crash verdicts" 2
    (List.length
       (List.filter (fun l -> has_prefix ~prefix:"CRASH" l) res.Bfs.log))

let test_strategies_under_pool () =
  (* every evaluation of every strategy runs under the caller's pool: the
     waves, BFS's shadow-seed probe and per-structure lattice descent, the
     final union and the top-up of the flat machines *)
  let program, target = Test_harness.synthetic ~n_ops:6 ~poison:[ 2; 4 ] () in
  let tracer =
    Shadow_tracer.create ~config:(Shadow_tracer.all_single program) program
  in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:(fun _ -> ()) in
  let shadow = Bfs.shadow (Shadow_report.make program tracer) in
  let formats = Result.get_ok (Formats.menu_of_string "bf16,f16,single,double") in
  List.iter
    (fun tok ->
      with_pool ~options:{ Pool.default_options with workers = 2 } (fun p ->
          let r =
            Strategy.run
              ~options:
                { Bfs.default_options with pool = Some p; shadow = Some shadow; formats }
              tok target
          in
          checkb "passes" true r.Bfs.final_pass;
          checki
            (Strategy.to_string tok ^ ": every evaluation supervised")
            r.Bfs.tested (Pool.stats p).Pool.tasks))
    Strategy.[ Bfs; Split; Delta; Anneal default_seed ]

let suite =
  [
    ("results in submission order", `Quick, test_results_in_submission_order);
    ("one pool serves many waves", `Quick, test_reusable_across_waves);
    ("non-terminating task times out", `Quick, test_nonterminating_task_times_out);
    ("cooperative VM cancel", `Quick, test_cooperative_vm_cancel);
    ("what escapes a task is a verdict", `Quick, test_escaping_exception_is_the_verdict);
    ("pool collapse degrades to serial", `Quick, test_collapse_degrades_to_serial);
    ("a degraded pool classifies a trap as a trap", `Quick, test_degraded_pool_classifies);
    ("bfs campaign survives a hung evaluator", `Quick, test_bfs_campaign_survives_hung_evaluator);
    ("bfs transient pool classifies crashes", `Quick, test_bfs_transient_pool_classifies_crashes);
    ( "oom and stack overflow become crash verdicts",
      `Quick,
      test_bfs_oom_and_stack_overflow_are_crash_verdicts );
    ("strategies run under pool supervision", `Quick, test_strategies_under_pool);
  ]
