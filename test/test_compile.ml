(* Differential tests for the closure-compiling backend: Compile.run must
   be bit-identical to Vm.run — heaps, counts, bcounts, step totals and
   trap/Limit classification — on every kernel and on random programs,
   across smode × checked × mixed precision configurations; hooks of any
   kind must force the interpreter fallback; and a Compiled-backend pool
   run must still cancel cooperatively under a wall-clock deadline. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------------------------------------------- differential driver *)

type outcome = Finished | Trapped of int * string | Limited of int

let outcome_str = function
  | Finished -> "finished"
  | Trapped (a, r) -> Printf.sprintf "trap@%d: %s" a r
  | Limited n -> Printf.sprintf "limit %d" n

let run_with runner ?(checked = true) ?(smode = Vm.Flagged) ?max_steps ~setup prog =
  let vm = Vm.create ~checked ~smode ?max_steps prog in
  setup vm;
  let out =
    match runner vm with
    | () -> Finished
    | exception Vm.Trap (a, r) -> Trapped (a, r)
    | exception Vm.Limit n -> Limited n
  in
  (out, vm)

let float_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

let diff_state label (oi, (vi : Vm.t)) (oc, (vc : Vm.t)) =
  if oi <> oc then
    Alcotest.failf "%s: outcome differs (interp %s, compiled %s)" label (outcome_str oi)
      (outcome_str oc);
  if not (float_bits_equal vi.Vm.fheap vc.Vm.fheap) then
    Alcotest.failf "%s: float heaps differ" label;
  if vi.Vm.iheap <> vc.Vm.iheap then Alcotest.failf "%s: int heaps differ" label;
  if vi.Vm.counts <> vc.Vm.counts then Alcotest.failf "%s: instruction counts differ" label;
  if vi.Vm.bcounts <> vc.Vm.bcounts then Alcotest.failf "%s: block counts differ" label;
  if vi.Vm.steps <> vc.Vm.steps then
    Alcotest.failf "%s: step totals differ (interp %d, compiled %d)" label vi.Vm.steps
      vc.Vm.steps

let differential ?checked ?smode ?max_steps ~setup label prog =
  let i = run_with Vm.run ?checked ?smode ?max_steps ~setup prog in
  let c = run_with (fun vm -> Compile.run vm) ?checked ?smode ?max_steps ~setup prog in
  diff_state label i c

(* ------------------------------------------------------------ kernel suite *)

let all_w () =
  [
    Nas_ep.make Kernel.W;
    Nas_cg.make Kernel.W;
    Nas_ft.make Kernel.W;
    Nas_mg.make Kernel.W;
    Nas_bt.make Kernel.W;
    Nas_lu.make Kernel.W;
    Nas_sp.make Kernel.W;
  ]

let all_single_cfg prog =
  Array.fold_left
    (fun acc (info : Static.insn_info) -> Config.set_insn acc info.Static.addr Config.Single)
    Config.empty (Static.candidates prog)

let random_cfg rng prog =
  Array.fold_left
    (fun acc (info : Static.insn_info) ->
      match Rng.int rng 3 with
      | 0 -> Config.set_insn acc info.Static.addr Config.Single
      | _ -> acc)
    Config.empty (Static.candidates prog)

let test_kernels_differential () =
  List.iter
    (fun (k : Kernel.t) ->
      let rng = Rng.create 20240806 in
      let configs =
        [ ("empty", Config.empty); ("hints", k.hints); ("all-single", all_single_cfg k.program) ]
        @ List.init 2 (fun i ->
              (Printf.sprintf "mixed-%d" i, random_cfg rng k.program))
      in
      List.iter
        (fun (cname, cfg) ->
          let patched = Patcher.patch k.program cfg in
          differential ~checked:true ~setup:k.setup
            (Printf.sprintf "%s/%s" k.name cname)
            patched)
        configs)
    (all_w ())

let test_kernels_native_differential () =
  List.iter
    (fun (k : Kernel.t) ->
      differential ~checked:false ~setup:k.setup (k.name ^ "/native") k.program)
    (all_w ())

let test_kernels_plain_differential () =
  List.iter
    (fun (k : Kernel.t) ->
      let conv = To_single.convert k.program in
      differential ~checked:true ~smode:Vm.Plain ~setup:k.setup (k.name ^ "/plain-checked")
        conv;
      differential ~checked:false ~smode:Vm.Plain ~setup:k.setup
        (k.name ^ "/plain-unchecked") conv)
    (all_w ())

(* --------------------------------------------------------- trap equivalence *)

let at off = { Ir.base = None; index = None; scale = 0; offset = off }

let mk_prog ?(n_fregs = 4) ?(n_iregs = 4) ?(fheap = 4) ?(iheap = 4) ops =
  let instrs = Array.of_list (List.mapi (fun i op -> { Ir.addr = i; op }) ops) in
  let f =
    {
      Ir.fid = 0;
      fname = "main";
      module_name = "m";
      n_fargs = 0;
      n_iargs = 0;
      ret_fregs = [||];
      ret_iregs = [||];
      n_fregs;
      n_iregs;
      entry = 0;
      blocks = [| { Ir.label = 0; instrs; term = Ir.Ret } |];
    }
  in
  { Ir.funcs = [| f |]; main = 0; fheap_size = fheap; iheap_size = iheap; modules = [| "m" |] }

let no_setup (_ : Vm.t) = ()

let test_trap_equivalence () =
  let cases =
    [
      (* runtime out-of-bounds float load *)
      ("oob-load", mk_prog [ Ir.Iconst (0, 10); Ir.Fload (0, at 0) ], false);
      ( "oob-load-indexed",
        mk_prog
          [
            Ir.Iconst (0, 3);
            Ir.Fload (1, { Ir.base = Some 0; index = Some 0; scale = 2; offset = 0 });
          ],
        false );
      (* compile-time-constant out-of-bounds store *)
      ("oob-store-const", mk_prog [ Ir.Fconst (Ir.D, 0, 1.0); Ir.Fstore (at 9, 0) ], false);
      ("div-zero", mk_prog [ Ir.Iconst (0, 5); Ir.Iconst (1, 0); Ir.Ibin (Ir.Idiv, 2, 0, 1) ], false);
      ("rem-zero", mk_prog [ Ir.Iconst (0, 5); Ir.Iconst (1, 0); Ir.Ibin (Ir.Irem, 2, 0, 1) ], false);
      (* checked-mode instrumentation invariants *)
      ("upcast-unreplaced", mk_prog [ Ir.Fconst (Ir.D, 0, 1.0); Ir.Fupcast (1, 0) ], true);
      ( "s-op-unreplaced",
        mk_prog [ Ir.Fconst (Ir.D, 0, 1.0); Ir.Fbin (Ir.S, Ir.Add, 1, 0, 0) ],
        true );
      ( "d-op-replaced",
        mk_prog [ Ir.Fconst (Ir.D, 0, 1.0); Ir.Fdowncast (1, 0); Ir.Fbin (Ir.D, Ir.Add, 2, 1, 1) ],
        true );
    ]
  in
  List.iter
    (fun (name, prog, checked) -> differential ~checked ~setup:no_setup name prog)
    cases

(* overlapping packed register windows: lane 1 must read its operands
   before lane 0's result lands (the Fbinp lane-overlap fix) *)
let test_fbinp_overlap () =
  (* d = a + 1 with a = b = 0: lanes (f1, f2) <- (f0, f1) + (f0, f1).
     Element-wise semantics give (4, 6); the old write-then-read order fed
     lane 0's result 4 into lane 1 and produced 8. *)
  let prog =
    mk_prog
      [
        Ir.Fconst (Ir.D, 0, 2.0);
        Ir.Fconst (Ir.D, 1, 3.0);
        Ir.Fbinp (Ir.D, Ir.Add, 1, 0, 0);
        Ir.Fstore (at 0, 1);
        Ir.Fstore (at 1, 2);
      ]
  in
  List.iter
    (fun (name, runner) ->
      let _, vm = run_with runner ~checked:false ~setup:no_setup prog in
      Alcotest.(check (float 0.0)) (name ^ ": lane 0") 4.0 (Vm.get_f vm 0);
      Alcotest.(check (float 0.0)) (name ^ ": lane 1") 6.0 (Vm.get_f vm 1))
    [ ("interp", Vm.run); ("compiled", fun vm -> Compile.run vm) ];
  (* and the packed S path through the same window *)
  let prog_s =
    mk_prog
      [
        Ir.Fconst (Ir.S, 0, 2.0);
        Ir.Fconst (Ir.S, 1, 3.0);
        Ir.Fbinp (Ir.S, Ir.Add, 1, 0, 0);
        Ir.Fstore (at 0, 1);
        Ir.Fstore (at 1, 2);
      ]
  in
  differential ~checked:true ~setup:no_setup "fbinp-overlap-single" prog_s;
  let _, vm = run_with Vm.run ~checked:true ~setup:no_setup prog_s in
  Alcotest.(check (float 0.0)) "S lane 1 element-wise" 6.0 (Replaced.coerce (Vm.get_f vm 1))

(* ------------------------------------------------------- fuzz differential *)

let fuzz_setup input vm = Vm.write_f vm 0 input

let test_fuzz_differential () =
  for seed = 1 to 25 do
    let prog, input = Test_fuzz.random_program (seed * 7919) in
    let rng = Rng.create (seed + 31337) in
    differential ~checked:false ~setup:(fuzz_setup input)
      (Printf.sprintf "fuzz %d native" seed)
      prog;
    for v = 1 to 2 do
      let cfg = random_cfg rng prog in
      let patched = Patcher.patch prog cfg in
      differential ~checked:true ~setup:(fuzz_setup input)
        (Printf.sprintf "fuzz %d cfg %d" seed v)
        patched
    done
  done

let test_limit_equivalence () =
  for seed = 1 to 10 do
    let prog, input = Test_fuzz.random_program (seed * 131) in
    let patched = Patcher.patch prog (all_single_cfg prog) in
    List.iter
      (fun budget ->
        differential ~checked:true ~max_steps:budget ~setup:(fuzz_setup input)
          (Printf.sprintf "fuzz %d limit %d" seed budget)
          patched)
      [ 7; 100; 1000 ]
  done

let qcheck_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"compiled = interp on random programs"
       QCheck2.Gen.(int_range 1 10_000)
       (fun seed ->
         let prog, input = Test_fuzz.random_program ((seed * 37) + 11) in
         let cfg = random_cfg (Rng.create (seed + 1)) prog in
         let patched = Patcher.patch prog cfg in
         let i = run_with Vm.run ~checked:true ~setup:(fuzz_setup input) patched in
         let c =
           run_with (fun vm -> Compile.run vm) ~checked:true ~setup:(fuzz_setup input) patched
         in
         diff_state (Printf.sprintf "qcheck seed %d" seed) i c;
         true))

(* ------------------------------------------------------------- code cache *)

let n_blocks (p : Ir.program) =
  Array.fold_left (fun acc (f : Ir.func) -> acc + Array.length f.Ir.blocks) 0 p.Ir.funcs

let test_cache_reuse () =
  let prog, input = Test_fuzz.random_program 4242 in
  let p1 = Patcher.patch prog Config.empty in
  let n = n_blocks p1 in
  let cache = Compile.create_cache () in
  let run p =
    let vm = Vm.create ~checked:true p in
    fuzz_setup input vm;
    match Compile.run ~cache vm with () -> () | exception Vm.Trap _ -> ()
  in
  run p1;
  let s1 = Compile.stats cache in
  checki "first run misses every block" n s1.Code_cache.misses;
  checki "first run hits nothing" 0 s1.Code_cache.hits;
  run p1;
  let s2 = Compile.stats cache in
  checki "identical rerun hits every block" n s2.Code_cache.hits;
  checki "identical rerun compiles nothing" n s2.Code_cache.misses;
  (* flip only the helper function: the patched layout is config-invariant,
     so every block outside the helper must still hit *)
  let helper_cfg =
    Array.fold_left
      (fun acc (info : Static.insn_info) ->
        if info.Static.fname = "helper" then Config.set_insn acc info.Static.addr Config.Single
        else acc)
      Config.empty (Static.candidates prog)
  in
  let p2 = Patcher.patch prog helper_cfg in
  checki "layout invariant under the flip" n (n_blocks p2);
  let helper_blocks =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        if f.Ir.fname = "helper" then acc + Array.length f.Ir.blocks else acc)
      0 p2.Ir.funcs
  in
  run p2;
  let s3 = Compile.stats cache in
  let new_misses = s3.Code_cache.misses - s2.Code_cache.misses in
  checkb "one-function flip recompiles at most that function's blocks" true
    (new_misses <= helper_blocks && new_misses > 0);
  checki "everything else hits" (s2.Code_cache.hits + (n - new_misses)) s3.Code_cache.hits;
  checkb "hit rate above one half across the mini-campaign" true
    (Code_cache.hit_rate s3 > 0.5)

(* -------------------------------------------------------- hook fallbacks *)

let test_hook_forces_interpreter () =
  let prog, input = Test_fuzz.random_program 999 in
  let patched = Patcher.patch prog (all_single_cfg prog) in
  (* reference: pure interpreter *)
  let ri = run_with Vm.run ~checked:true ~setup:(fuzz_setup input) patched in
  (* a test probe hook: Compile.run must route through the interpreter,
     which is the only engine that fires hooks *)
  let fired = ref 0 in
  let setup vm =
    fuzz_setup input vm;
    ignore (Vm.add_hook vm (fun _ _ -> incr fired))
  in
  let rc = run_with (fun vm -> Compile.run vm) ~checked:true ~setup patched in
  checkb "hook fired under the compiled backend" true (!fired > 0);
  diff_state "hooked compiled run = interp" ri rc

let test_shadow_tracer_forces_interpreter () =
  let prog, input = Test_fuzz.random_program 1234 in
  let tracer = Shadow_tracer.create prog in
  let vm = Vm.create prog in
  fuzz_setup input vm;
  ignore (Shadow_tracer.attach tracer vm);
  (match Compile.run vm with () -> () | exception Vm.Trap _ -> ());
  checkb "tracer observed instructions under the compiled backend" true
    (Shadow_tracer.observations tracer > 0)

let test_faults_force_interpreter () =
  let prog, input = Test_fuzz.random_program 777 in
  let inj =
    Faults.create { Faults.seed = 3; rate = 1.0; modes = [ Faults.Trap ]; transient = false }
  in
  let target =
    Bfs.Target.make ~faults:inj prog
      ~setup:(fuzz_setup input)
      ~output:(fun vm -> Vm.read_f vm 0 Test_fuzz.n_slots)
      ~verify:(fun _ -> true)
  in
  checkb "always-faulting evaluation fails" false
    (target.Bfs.Target.eval Config.empty = Verdict.Pass);
  checkb "the injector actually fired" true (Faults.injected inj > 0)

(* --------------------------------------- campaign equivalence + deadlines *)

(* The reference engine: [Bfs.Target.make]'s target with every
   evaluation run by the interpreter instead of the compiled backend. *)
let interpreted program ~setup ~output ~verify =
  let raw_eval cfg =
    let vm = Vm.create ~checked:true (Patcher.patch program cfg) in
    setup vm;
    Vm.run vm;
    verify (output vm)
  in
  {
    (Bfs.Target.make program ~setup ~output ~verify) with
    Bfs.Target.eval = (fun cfg -> Verdict.classify (fun () -> raw_eval cfg));
    raw_eval;
    code_cache = None;
  }

(* one harnessed BFS campaign per engine on a fuzz program and on cg.W and
   mg.W (hints base): finals, evaluation counts and verdict counters agree *)
let test_campaign_equivalence () =
  let campaign ~base target =
    let h, target = Harness.wrap_target target in
    let r = Bfs.search ~options:{ Bfs.default_options with base } target in
    (r, Harness.counters h)
  in
  let same label ~base target_of =
    let ri, ci = campaign ~base (target_of interpreted) in
    let rc, cc = campaign ~base (target_of (fun program -> Bfs.Target.make program)) in
    checkb (label ^ ": final configurations identical") true
      (compare ri.Bfs.final rc.Bfs.final = 0);
    checki (label ^ ": same number of evaluations") ri.Bfs.tested rc.Bfs.tested;
    checkb (label ^ ": same final verdict") true (ri.Bfs.final_pass = rc.Bfs.final_pass);
    checkb (label ^ ": same verdict counters") true (ci = cc)
  in
  let prog, input = Test_fuzz.random_program 31415 in
  let reference =
    let vm = Vm.create prog in
    fuzz_setup input vm;
    Vm.run vm;
    Vm.read_f vm 0 Test_fuzz.n_slots
  in
  same "fuzz" ~base:Config.empty (fun make ->
      make prog ~setup:(fuzz_setup input)
        ~output:(fun vm -> Vm.read_f vm 0 Test_fuzz.n_slots)
        ~verify:(fun out ->
          Array.for_all2
            (fun a b ->
              let scale = Float.max 1.0 (Float.abs b) in
              Float.abs (a -. b) /. scale < 1e-4)
            out reference));
  List.iter
    (fun (k : Kernel.t) ->
      same k.name ~base:k.hints (fun make ->
          make k.program ~setup:k.setup ~output:k.output ~verify:k.verify))
    [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W ]

let test_compiled_pool_deadline () =
  (* a compiled evaluation that runs far past the wall-clock deadline must
     still be cancelled cooperatively: the pool's watchdog polls its cancel
     flag per block in compiled code and raises Vm.Deadline on the worker *)
  let t = Builder.create () in
  let cell = Builder.alloc_f t 1 in
  let main =
    Builder.func t ~module_:"spin" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        Builder.for_range b 0 50_000_000 (fun _ ->
            let v = Builder.loadf b (Builder.at cell) in
            Builder.storef b (Builder.at cell) (Builder.fadd b v v)))
  in
  let prog = Builder.program t ~main in
  let p =
    Pool.create
      ~options:
        {
          Pool.default_options with
          workers = 1;
          deadline = Some 0.05;
          grace = 30.0 (* far away: only the cooperative tier may fire *);
        }
      ()
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let v =
        List.hd
          (Pool.run p
             [
               (fun () ->
                 Verdict.classify (fun () ->
                     let vm = Vm.create prog in
                     Compile.run vm;
                     true));
             ])
      in
      Alcotest.check Alcotest.string "cancelled cooperatively"
        (Verdict.verdict_label Verdict.Step_timeout)
        (Verdict.verdict_label v);
      let s = Pool.stats p in
      checkb "deadline miss recorded" true (s.Pool.deadline_misses >= 1);
      checki "never abandoned" 0 s.Pool.abandoned)

let suite =
  [
    ("kernels: compiled = interp (patched, mixed configs)", `Quick, test_kernels_differential);
    ("kernels: compiled = interp (native)", `Quick, test_kernels_native_differential);
    ("kernels: compiled = interp (plain single)", `Quick, test_kernels_plain_differential);
    ("traps classify identically", `Quick, test_trap_equivalence);
    ("packed lanes read before writes (overlap fix)", `Quick, test_fbinp_overlap);
    ("fuzz: compiled = interp", `Quick, test_fuzz_differential);
    ("fuzz: Limit fires identically", `Quick, test_limit_equivalence);
    qcheck_differential;
    ("code cache: reuse across configurations", `Quick, test_cache_reuse);
    ("hooks force the interpreter", `Quick, test_hook_forces_interpreter);
    ("shadow tracer forces the interpreter", `Quick, test_shadow_tracer_forces_interpreter);
    ("fault injector forces the interpreter", `Quick, test_faults_force_interpreter);
    ("BFS campaign identical across backends", `Quick, test_campaign_equivalence);
    ("compiled pool run honours the deadline", `Quick, test_compiled_pool_deadline);
  ]
