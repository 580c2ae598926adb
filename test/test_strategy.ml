(* Tests for the pluggable search-strategy subsystem: token parsing,
   bfs-token fidelity (Strategy.run Bfs replays the exact evaluation
   sequence of Bfs.search on fuzzed programs), split/delta/anneal sanity
   on known-answer synthetics, anneal fixed-seed determinism across the
   sequential and pool evaluation paths, exact resume of a killed
   campaign from its [--journal] store log under every strategy, and the
   NAS bake-off: no strategy saves fewer bits than BFS.
   [strategies_suite] holds the delta-debugging and greedy-sweep
   known answers. Byte-for-byte fidelity of every strategy to the
   two-driver recording is the replay suite's job (test_replay.ml). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* the known-answer synthetic from the BFS tests: [n_ops] const+add
   chains, the poisoned ones losing bits in single precision *)
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
  let reference = Array.init n_ops (fun k -> if List.mem k poison then 0.2 else 1.0) in
  Bfs.Target.make program
    ~setup:(fun _ -> ())
    ~output:(fun vm -> Vm.read_f vm out n_ops)
    ~verify:(fun res -> res = reference)

(* ------------------------------------------------------------- tokens *)

let test_tokens () =
  let ok s t =
    match Strategy.of_string s with
    | Ok t' -> checkb (Printf.sprintf "%S parses" s) true (t' = t)
    | Error why -> Alcotest.failf "%S refused: %s" s why
  in
  ok "" Strategy.Bfs;
  ok "bfs" Strategy.Bfs;
  ok " BFS " Strategy.Bfs;
  ok "split" Strategy.Split;
  ok "delta" Strategy.Delta;
  ok "anneal" (Strategy.Anneal Strategy.default_seed);
  ok "anneal:42" (Strategy.Anneal 42);
  List.iter
    (fun s ->
      checkb
        (Printf.sprintf "%S refused" s)
        true
        (Result.is_error (Strategy.of_string s)))
    [ "zz9"; "anneal:"; "anneal:x"; "bfs;drop"; "b fs" ];
  List.iter
    (fun t ->
      checkb "to_string round-trips" true
        (Strategy.of_string (Strategy.to_string t) = Ok t))
    [
      Strategy.Bfs;
      Strategy.Split;
      Strategy.Delta;
      Strategy.Anneal Strategy.default_seed;
      Strategy.Anneal 7;
    ];
  checks "default seed prints bare" "anneal"
    (Strategy.to_string (Strategy.Anneal Strategy.default_seed))

(* --------------------------------------------------- bfs delegation *)

(* wrap both evaluation entry points so every configuration tested is
   recorded (as its digest) in evaluation order *)
let recording target =
  let log = ref [] in
  let m = Mutex.create () in
  let note cfg =
    Mutex.lock m;
    log := Config.digest target.Bfs.Target.program cfg :: !log;
    Mutex.unlock m
  in
  let wrap f cfg =
    note cfg;
    f cfg
  in
  ( {
      target with
      Bfs.Target.eval = wrap target.Bfs.Target.eval;
      raw_eval = wrap target.Bfs.Target.raw_eval;
    },
    log )

(* the [bfs] token must select the breadth-first machine with the caller's
   options untouched: same evaluations, log and final as Bfs.search *)
let prop_bfs_delegation =
  let gen =
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_bound 4) (int_bound 5)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"Strategy.run Bfs replays Bfs.search's exact eval sequence" gen
       (fun (n_ops, poison) ->
         let t1, log1 = recording (synthetic ~n_ops ~poison) in
         let r1 = Bfs.search t1 in
         let t2, log2 = recording (synthetic ~n_ops ~poison) in
         let r2 = Strategy.run Strategy.Bfs t2 in
         !log1 <> [] && !log1 = !log2
         && r1.Bfs.tested = r2.Bfs.tested
         && r1.Bfs.final_pass = r2.Bfs.final_pass
         && r1.Bfs.log = r2.Bfs.log
         && Config.digest t1.Bfs.Target.program r1.Bfs.final
            = Config.digest t2.Bfs.Target.program r2.Bfs.final))

(* -------------------------------------------- the machine strategies *)

let test_machines_find_the_answer () =
  let bfs = Bfs.search (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
  List.iter
    (fun tok ->
      let name = Strategy.to_string tok in
      let r = Strategy.run tok (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
      checkb (name ^ " passes") true r.Bfs.final_pass;
      (* exactly the benign 8 chains * 2 insns survive; the top-up sweep
         makes every strategy maximal over the same move set *)
      checki (name ^ " replaced") 16 r.Bfs.static_replaced;
      checkb (name ^ " saves at least bfs bits") true
        (r.Bfs.bits_saved >= bfs.Bfs.bits_saved))
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let test_machines_all_poisoned () =
  List.iter
    (fun tok ->
      let name = Strategy.to_string tok in
      let r = Strategy.run tok (synthetic ~n_ops:4 ~poison:[ 0; 1; 2; 3 ]) in
      checkb (name ^ " still passes") true r.Bfs.final_pass;
      checkb (name ^ " keeps few") true (r.Bfs.static_replaced <= 4))
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let test_anneal_determinism () =
  let t = synthetic ~n_ops:12 ~poison:[ 2; 9 ] in
  let p = t.Bfs.Target.program in
  let go workers =
    Strategy.run
      ~options:{ Bfs.default_options with workers }
      (Strategy.Anneal 42) t
  in
  let a = go 1 in
  let b = go 1 in
  let c = go 4 in
  checkb "passes" true a.Bfs.final_pass;
  checks "same seed, same final (sequential rerun)"
    (Config.digest p a.Bfs.final)
    (Config.digest p b.Bfs.final);
  checks "same seed, same final (pool path)"
    (Config.digest p a.Bfs.final)
    (Config.digest p c.Bfs.final);
  checki "same evals" a.Bfs.tested c.Bfs.tested;
  checki "same bits" a.Bfs.bits_saved c.Bfs.bits_saved

let test_machines_respect_base_hints () =
  let k = Nas_ep.make Kernel.W in
  let cands = Static.candidates k.Kernel.program in
  let ignored =
    Array.to_list cands
    |> List.filter (fun i -> Config.effective k.Kernel.hints i = Config.Ignore)
  in
  checkb "ep.W carries ignore hints" true (ignored <> []);
  List.iter
    (fun tok ->
      let name = Strategy.to_string tok in
      let r =
        Strategy.run
          ~options:{ Bfs.default_options with base = k.Kernel.hints }
          tok (Kernel.target k)
      in
      (* ignored RNG instructions are not in the universe and stay ignored *)
      checki (name ^ " universe excludes ignored")
        (Array.length cands - List.length ignored)
        r.Bfs.candidates;
      checkb (name ^ " hints survive") true
        (List.for_all (fun i -> Config.effective r.Bfs.final i = Config.Ignore) ignored))
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

(* ------------------------------- delta-debugging and the greedy sweep *)

(* The [strategies] suite: the known-answer properties of the ddmin and
   greedy searches, held by their wave-machine forms — [delta] and the
   greedy sweep that [anneal] starts from when no shadow seed is given. *)

let test_delta_debug_finds_answer () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
  checkb "passes" true r.Bfs.final_pass;
  (* exactly the benign 8 chains * 2 insns are single *)
  checki "replaced" 16 r.Bfs.static_replaced;
  checki "candidates" 20 r.Bfs.candidates

let test_delta_debug_all_pass () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:6 ~poison:[]) in
  checkb "passes" true r.Bfs.final_pass;
  checki "everything" 12 r.Bfs.static_replaced;
  (* the first test (everything single) already passes: nothing is
     shrunk or grown back, and the finish re-verifies that one set *)
  checkb "first test passes" true
    (List.mem "DELTA active set of 12 passes" r.Bfs.log);
  checki "one test plus the final union" 2 r.Bfs.tested

let test_delta_debug_none_pass () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:4 ~poison:[ 0; 1; 2; 3 ]) in
  checkb "passes" true r.Bfs.final_pass;
  (* only the exact constants could survive; the adds all fail *)
  checkb "few replaced" true (r.Bfs.static_replaced <= 4)

let test_greedy_always_passes () =
  let r =
    Strategy.run (Strategy.Anneal Strategy.default_seed)
      (synthetic ~n_ops:8 ~poison:[ 2 ])
  in
  checkb "passes" true r.Bfs.final_pass;
  checkb "greedy sweep from empty" true
    (List.mem "ANNEAL no shadow seed; greedy sweep from empty" r.Bfs.log);
  (* the first sweep offers every candidate once *)
  checkb "a test per candidate" true (r.Bfs.tested >= r.Bfs.candidates);
  checki "all benign kept" 14 r.Bfs.static_replaced

(* ------------------------------------------------------- journal resume *)

(* A killed campaign resumes one way: it walks again from the start while
   its store log serves every verdict the killed run recorded, so the
   resumed run is the uninterrupted campaign, configuration for
   configuration. The kills run sequentially: under a pool, [Aborted]
   escapes one task and is that item's crash verdict, not the campaign's
   death. *)
let test_journal_resume_is_exact () =
  List.iter
    (fun tok ->
      let target = synthetic ~n_ops:8 ~poison:[ 2; 5 ] in
      let program = target.Bfs.Target.program in
      let full = Strategy.run tok target in
      List.iter
        (fun kill ->
          let label = Printf.sprintf "%s killed after %d" (Strategy.to_string tok) kill in
          let path = Filename.temp_file "craft_strategy" ".journal" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let journaled ~resume =
                let _, t = Harness.wrap_target target in
                let store = Result.get_ok (Store.open_journal ~resume ~path) in
                (store, Store.wrap_target store ~context:"syn" t)
              in
              let store, t = journaled ~resume:false in
              let calls = ref 0 in
              let eval cfg =
                incr calls;
                if !calls > kill then raise Bfs.Aborted else t.Bfs.Target.eval cfg
              in
              (match Strategy.run tok { t with Bfs.Target.eval } with
              | _ -> Alcotest.failf "%s: the kill did not abort the campaign" label
              | exception Bfs.Aborted -> ());
              Store.close store;
              let store, t = journaled ~resume:true in
              let r = Strategy.run tok t in
              Store.close store;
              let s = Store.stats store in
              checks (label ^ ": final")
                (Config.digest program full.Bfs.final)
                (Config.digest program r.Bfs.final);
              checki (label ^ ": tested") full.Bfs.tested r.Bfs.tested;
              checkb (label ^ ": passing flags") true
                (r.Bfs.passing_flags = full.Bfs.passing_flags);
              checkb (label ^ ": log") true (r.Bfs.log = full.Bfs.log);
              checkb (label ^ ": journal replayed") true (s.Store.replayed > 0);
              checkb
                (Printf.sprintf "%s: fresh (%d) < tested (%d)" label s.Store.misses
                   r.Bfs.tested)
                true
                (s.Store.misses < r.Bfs.tested)))
        [ 2; 5 ])
    [ Strategy.Bfs; Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

(* ------------------------------------------------ bake-off on NAS kernels *)

(* second phase on, hints base: every strategy's final
   passes, re-verified by one more evaluation, and saves at least as many
   bits as BFS's. The (evaluations, bits saved) pins are the numbers
   EXPERIMENTS.md quotes for the bake-off. *)
let test_no_worse_than_bfs () =
  let strategies =
    [ Strategy.Bfs; Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]
  in
  List.iter
    (fun ((k : Kernel.t), pins) ->
      let options = { Bfs.default_options with second_phase = true; base = k.Kernel.hints } in
      let target = Kernel.target k in
      let results = List.map (fun tok -> (tok, Strategy.run ~options tok target)) strategies in
      let bfs = List.assoc Strategy.Bfs results in
      List.iter2
        (fun (tok, (r : Bfs.result)) (evals, bits) ->
          let label = k.Kernel.name ^ "/" ^ Strategy.to_string tok in
          checkb (label ^ ": final passes") true
            (r.Bfs.final_pass && target.Bfs.Target.eval r.Bfs.final = Verdict.Pass);
          if r.Bfs.bits_saved < bfs.Bfs.bits_saved then
            Alcotest.failf "%s: saved %d bits, BFS saved %d" label r.Bfs.bits_saved
              bfs.Bfs.bits_saved;
          checki (label ^ ": evaluations") evals r.Bfs.tested;
          checki (label ^ ": bits saved") bits r.Bfs.bits_saved)
        results pins)
    [
      (Nas_cg.make Kernel.W, [ (45, 576); (75, 576); (132, 576); (96, 576) ]);
      (Nas_mg.make Kernel.W, [ (67, 480); (105, 544); (144, 864); (103, 864) ]);
      (Nas_ep.make Kernel.W, [ (10, 800); (17, 800); (18, 800); (46, 800) ]);
    ]

let suite =
  [
    ("strategy: token parse/print", `Quick, test_tokens);
    prop_bfs_delegation;
    ("strategy: split/delta/anneal find the known answer", `Quick, test_machines_find_the_answer);
    ("strategy: machines survive an all-poisoned kernel", `Quick, test_machines_all_poisoned);
    ("strategy: anneal seed is deterministic across eval paths", `Quick, test_anneal_determinism);
    ("strategy: machines respect base hints", `Quick, test_machines_respect_base_hints);
    ("strategy: journal resume replays the uninterrupted campaign", `Quick, test_journal_resume_is_exact);
    ("strategy: no strategy saves fewer bits than BFS", `Quick, test_no_worse_than_bfs);
  ]

let strategies_suite =
  [
    ("delta_debug finds the answer", `Quick, test_delta_debug_finds_answer);
    ("delta_debug: all pass", `Quick, test_delta_debug_all_pass);
    ("delta_debug: none pass", `Quick, test_delta_debug_none_pass);
    ("greedy always passes", `Quick, test_greedy_always_passes);
  ]
