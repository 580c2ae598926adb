(* The campaign benchmark: a kernel goes in, a verified mixed-precision
   configuration comes out, and this program times that end to end.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
     perf.exe --write-golden

   Each run measures whole rounds of a fixed campaign list (the seed only
   shuffles each round), checks every final
   against perfbench/golden.txt, and prints one JSON object as the last
   line of stdout: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. A traced run measures half its time untraced
   and half traced (spans around public closures, see Spans), reports the
   difference as trace.overhead_pct, and writes the spans as JSON Lines
   under perfbench/out/. See perfbench/README.md for workloads, metrics
   and bounds. *)

let makers =
  [
    ("ep", Nas_ep.make);
    ("cg", Nas_cg.make);
    ("ft", Nas_ft.make);
    ("mg", Nas_mg.make);
    ("bt", Nas_bt.make);
    ("lu", Nas_lu.make);
    ("sp", Nas_sp.make);
  ]

let spec ?(menu = "") ?(wave = 1) strategy cls bench = { Golden.bench; cls; strategy; menu; wave }

(* The campaigns of one round, per workload. *)
let search_w = List.map (fun (b, _) -> spec Strategy.Bfs Kernel.W b) makers

(* mg.A runs twice a round, so that with five campaigns the median falls
   inside the mg.A campaigns and p90 inside the cg.A ones, not on the
   boundary between two kernels. *)
let pool_a = List.map (spec ~wave:2 Strategy.Bfs Kernel.A) [ "cg"; "mg"; "mg"; "ft"; "ep" ]

let lattice_w =
  List.concat_map
    (fun s -> List.map (spec ~menu:"bf16,f16,single,double" s Kernel.W) [ "cg"; "mg"; "ep" ])
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let served_w =
  List.concat_map
    (fun s -> List.map (spec ~wave:2 s Kernel.W) [ "cg"; "mg"; "ep" ])
    [ Strategy.Bfs; Strategy.Delta ]

let workloads =
  [ ("search-W", search_w); ("pool-A", pool_a); ("lattice-W", lattice_w); ("served-W", served_w) ]

let setup_repeats = 11

(* The served clients poll a job's status every 2 ms. Client.wait's
   default 50 ms poll is about 60% of a whole cg.W campaign and would
   quantise campaign_s_p50/p90 to multiples of itself. *)
let poll_interval = 0.002

let pool_workers = min 2 (Domain.recommended_domain_count ())
let out_dir = "perfbench/out"

(* ------------------------------------------------------------- helpers *)

let log fmt = Printf.ksprintf prerr_endline fmt
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float (List.length xs)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Linear interpolation between closest ranks. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* (files, bytes) of the regular files under [dir]. *)
let rec disk_usage dir =
  Array.fold_left
    (fun (f, b) n ->
      let p = Filename.concat dir n in
      let st = Unix.lstat p in
      match st.Unix.st_kind with
      | Unix.S_DIR ->
          let f', b' = disk_usage p in
          (f + f', b + b')
      | Unix.S_REG -> (f + 1, b + st.Unix.st_size)
      | _ -> (f, b))
    (0, 0) (Sys.readdir dir)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0))
  |> Option.value ~default:0.0

let menu (s : Golden.spec) =
  if s.Golden.menu = "" then Bfs.default_options.Bfs.formats
  else Result.get_ok (Formats.menu_of_string s.Golden.menu)

let kernel_key (s : Golden.spec) = (s.Golden.bench, s.Golden.cls)

let build_kernels specs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl (kernel_key s)) then
        Hashtbl.replace tbl (kernel_key s) ((List.assoc s.Golden.bench makers) s.Golden.cls))
    specs;
  tbl

let new_pool () = Pool.create ~options:{ Pool.default_options with workers = pool_workers } ()

(* ---------------------------------------------------------- a campaign *)

type sample = { seconds : float; evals : int }

(* What one measured phase of a run produced. *)
type phase = {
  mutable attempted : int;
  mutable samples : sample list;
  mutable wall : float;
  mutable failed : int;
  mutable passed : int;  (** harness attempts that passed *)
  mutable attempts : int;
  mutable trapped : int;
  mutable retried : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let new_phase () =
  {
    attempted = 0;
    samples = [];
    wall = 0.0;
    failed = 0;
    passed = 0;
    attempts = 0;
    trapped = 0;
    retried = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let tracing = Atomic.make false

let check golden p spec outcome =
  match Result.bind outcome (Golden.check golden spec) with
  | Ok () -> ()
  | Error why ->
      log "MISMATCH %s" why;
      p.failed <- p.failed + 1

(* One inline campaign, exactly as `craft search` runs it: the harness
   wraps Kernel.target, and Strategy.run is the timed call. *)
let run_campaign ?pool kernels (s : Golden.spec) =
  let k = Hashtbl.find kernels (kernel_key s) in
  let trace = Atomic.get tracing in
  let campaign = Spans.fresh_id () in
  let target = Kernel.target (if trace then Spans.kernel ~campaign ~parent:campaign k else k) in
  let target = if trace then Spans.target ~campaign ~parent:campaign target else target in
  let harness, target = Harness.wrap_target target in
  let options =
    { Bfs.default_options with workers = s.Golden.wave; base = k.Kernel.hints; pool; formats = menu s }
  in
  let t0 = Spans.now () in
  let r = Strategy.run ~options s.Golden.strategy target in
  let t1 = Spans.now () in
  if trace then
    Spans.record
      { Spans.id = campaign; name = "campaign"; start = t0; stop = t1; parent = 0; campaign; count = 0 };
  let outcome =
    Golden.outcome_of k.Kernel.program r.Bfs.final
      ~text:(Config.print k.Kernel.program r.Bfs.final)
      ~pass:r.Bfs.final_pass ~evals:r.Bfs.tested
  in
  (t1 -. t0, outcome, harness, target.Bfs.Target.code_cache)

(* Whether to start round [n + 1] after [n] whole rounds took [elapsed]
   seconds: yes while that ends nearer to [budget] than stopping now, so
   a run measures whole rounds for about [budget] seconds, at least one. *)
let another_round ~budget ~elapsed n =
  n = 0 || elapsed +. (elapsed /. float n /. 2.0) <= budget

(* Run whole rounds of [specs], each in a seeded order. Returns the
   measured wall time. *)
let rounds ~rng ~budget specs f =
  let t0 = Spans.now () in
  let rec go n =
    if another_round ~budget ~elapsed:(Spans.now () -. t0) n then begin
      List.iter f (shuffle rng specs);
      go (n + 1)
    end
  in
  go 0;
  Spans.now () -. t0

let inline_phase ?pool ~golden ~rng ~budget kernels specs =
  let p = new_phase () in
  p.wall <-
    rounds ~rng ~budget specs (fun s ->
        p.attempted <- p.attempted + 1;
        let seconds, outcome, harness, cache = run_campaign ?pool kernels s in
        check golden p s (Ok outcome);
        let c = Harness.counters harness in
        p.samples <- { seconds; evals = outcome.Golden.evals } :: p.samples;
        p.passed <- p.passed + c.Harness.pass;
        p.attempts <- p.attempts + c.Harness.attempts;
        p.trapped <- p.trapped + c.Harness.trapped;
        p.retried <- p.retried + c.Harness.retried;
        Option.iter
          (fun c ->
            let st = Compile.stats c in
            p.cache_hits <- p.cache_hits + st.Code_cache.hits;
            p.cache_misses <- p.cache_misses + st.Code_cache.misses)
          cache);
  p

(* -------------------------------------------------------------- served *)

type daemon = {
  dir : string;
  pool : Pool.t;
  cache : Compile.cache;
  store : Store.t;
  sched : Scheduler.t;
  srv : Server.t;
}

let socket dir = Server.Unix_path (Filename.concat dir "d.sock")

(* The campaign id of the submission in flight: clients submit one at a
   time under [submit_lock], so the resolve call a submit triggers knows
   which campaign its traced kernel belongs to. *)
let submit_lock = Mutex.create ()
let pending = ref 0

(* `craft serve` defaults, in process: 2 runners, wave 2. With [durable]
   the daemon keeps its state under [dir] like `craft serve` does (store
   log fsynced every 32 verdicts, job WAL, per-job journal, checkpoint
   and result); without, jobs and store live in memory and [dir] holds
   only the socket. *)
let start_daemon ~durable ~dir kernels =
  mkdir_p dir;
  let resolve (w : Wire.job_spec) =
    match (w.Wire.cls, Hashtbl.find_opt kernels (w.Wire.bench, Kernel.W)) with
    | "W", Some k ->
        Ok (if Atomic.get tracing then Spans.kernel ~campaign:!pending ~parent:!pending k else k)
    | _ -> Error (Printf.sprintf "%s.%s is not served here" w.Wire.bench w.Wire.cls)
  in
  let pool = new_pool () in
  let cache = Compile.create_cache () in
  let path = if durable then Some (Filename.concat dir "store.log") else None in
  let store = Store.create ?path ~fsync_every:32 () in
  let sched =
    Scheduler.create
      ~options:{ Scheduler.default_options with state_dir = (if durable then Some dir else None) }
      ~resolve ~pool ~cache ~store ()
  in
  { dir; pool; cache; store; sched; srv = Server.start ~scheduler:sched (socket dir) }

let stop_daemon d =
  Server.stop d.srv;
  Scheduler.shutdown d.sched ();
  Pool.shutdown d.pool;
  Store.close d.store;
  rm_rf d.dir

type job = { spec : Golden.spec; wire : Wire.job_spec }

(* What the traced phase needs per served job. *)
type served = { latency : float; status : Wire.job_status; submit_s : float; polls : int }

type frames = {
  lock : Mutex.t;
  mutable frames : int;
  mutable encode : float;
  mutable decode : float;
}

(* Time Wire encode and decode of frames a client exchanged. *)
let time_frames fr frames =
  List.iter
    (fun f ->
      let t0 = Spans.now () in
      let b = Wire.encode f in
      let t1 = Spans.now () in
      ignore (Wire.decode b ~pos:0 ~len:(Bytes.length b));
      let t2 = Spans.now () in
      Mutex.protect fr.lock (fun () ->
          fr.frames <- fr.frames + 1;
          fr.encode <- fr.encode +. (t1 -. t0);
          fr.decode <- fr.decode +. (t2 -. t1)))
    frames

let terminal = function
  | Wire.Done | Wire.Cancelled | Wire.Failed _ | Wire.Quarantined _ -> true
  | Wire.Queued | Wire.Running -> false

(* One served campaign: submit, poll to terminal, fetch the result. *)
let serve_one c fr (j : job) =
  let trace = Atomic.get tracing in
  let campaign = Spans.fresh_id () in
  let t0 = Spans.now () in
  let submitted =
    Mutex.protect submit_lock (fun () ->
        pending := campaign;
        Client.submit c j.wire)
  in
  let submit_s = Spans.now () -. t0 in
  let rec poll id polls =
    match Client.status ~job:id c with
    | Ok [ st ] when terminal st.Wire.state -> Ok (polls + 1)
    | Ok sts ->
        if trace then time_frames fr [ Wire.Status (Some id); Wire.Status_reply sts ];
        Thread.delay poll_interval;
        poll id (polls + 1)
    | Error e -> Error e
  in
  let ( let* ) = Result.bind in
  let* id = submitted in
  let* polls = poll id 0 in
  let* status, text, summary = Client.result c id in
  let t1 = Spans.now () in
  if trace then begin
    Spans.record
      { Spans.id = campaign; name = "campaign"; start = t0; stop = t1; parent = 0; campaign; count = 0 };
    time_frames fr
      [
        Wire.Submit j.wire;
        Wire.Accepted id;
        Wire.Status (Some id);
        Wire.Status_reply [ status ];
        Wire.Result id;
        Wire.Result_reply { status; config_text = text; summary };
      ]
  end;
  Ok ({ latency = t1 -. t0; status; submit_s; polls }, text, summary)

let served_outcome kernels (j : job) (r : served) text summary =
  let k = Hashtbl.find kernels (kernel_key j.spec) in
  match (r.status.Wire.state, Config.parse k.Kernel.program text) with
  | Wire.Done, Ok cfg ->
      let pass = String.ends_with ~suffix:"final pass" summary in
      Ok (Golden.outcome_of k.Kernel.program cfg ~text ~pass ~evals:r.status.Wire.tested)
  | Wire.Done, Error why -> Error ("unparseable final: " ^ why)
  | _, _ -> Error ("job did not finish: " ^ summary)

(* The served mix. Two clients submit in lock step: a step is one job
   each, both submitted at once, and the next step starts when both have
   their final. A round submits every served spec fresh (a unique
   eval_steps gives a new store key, so the store appends) and repeats
   each fresh job of the round before exactly (the store serves every
   verdict): half the jobs are fresh, half repeats, as the warm-up round
   is all fresh. A step pairs the bfs and the delta campaign of one
   kernel, fresh with fresh and repeat with repeat. The seed only
   shuffles the steps of a round.

   Lock step keeps two campaigns in flight on the scheduler's two runners
   while every job meets the same neighbour in every round. With freely
   overlapping clients a job's latency depends on what happens to run
   beside it on the shared pool, which spreads each spec's latency over a
   factor of two and leaves the percentiles of a run unsteady. *)
type mix = { rng : Random.State.t; mutable fresh : int; latest : (string, job) Hashtbl.t }

let new_mix seed = { rng = Random.State.make [| seed |]; fresh = 0; latest = Hashtbl.create 8 }

let fresh_job mix (s : Golden.spec) =
  mix.fresh <- mix.fresh + 1;
  let j =
    {
      spec = s;
      wire =
        {
          Wire.bench = s.Golden.bench;
          cls = Kernel.class_name s.Golden.cls;
          shadow = false;
          priority = 0;
          eval_steps = Some (2_000_000_000 - mix.fresh);
          formats = s.Golden.menu;
          strategy = Strategy.to_string s.Golden.strategy;
        };
    }
  in
  Hashtbl.replace mix.latest (Golden.key s) j;
  j

let next_round mix =
  let repeats = List.filter_map (fun s -> Hashtbl.find_opt mix.latest (Golden.key s)) served_w in
  let fresh = List.map (fresh_job mix) served_w in
  (* served_w lists the bfs campaigns, then the delta ones, kernel by kernel *)
  let pairs jobs =
    let n = List.length jobs / 2 in
    List.combine (List.filteri (fun i _ -> i < n) jobs) (List.filteri (fun i _ -> i >= n) jobs)
  in
  shuffle mix.rng (pairs fresh @ pairs repeats)

(* Whole rounds of lock-step pairs for about [budget] seconds; [budget =
   0] runs exactly one round (the warm-up). *)
let served_phase ~golden ~budget kernels mix d fr =
  let p = new_phase () in
  let jobs = ref [] in
  let record (j : job) = function
    | Error e ->
        log "served %s: %s" (Golden.key j.spec) e;
        p.failed <- p.failed + 1
    | Ok (r, text, summary) ->
        jobs := r :: !jobs;
        p.samples <- { seconds = r.latency; evals = r.status.Wire.tested } :: p.samples;
        check golden p j.spec (served_outcome kernels j r text summary)
  in
  let step ca cb (ja, jb) =
    let rb = ref (Error "client thread died") in
    let tb = Thread.create (fun () -> rb := serve_one cb fr jb) () in
    let ra = serve_one ca fr ja in
    Thread.join tb;
    p.attempted <- p.attempted + 2;
    record ja ra;
    record jb !rb
  in
  let connect () = Client.connect (socket d.dir) in
  (match (connect (), connect ()) with
  | Ok ca, Ok cb ->
      Fun.protect
        ~finally:(fun () ->
          Client.close ca;
          Client.close cb)
        (fun () ->
          let t0 = Spans.now () in
          let rec go n =
            if another_round ~budget ~elapsed:(Spans.now () -. t0) n then begin
              List.iter (step ca cb) (next_round mix);
              go (n + 1)
            end
          in
          go 0;
          p.wall <- Spans.now () -. t0)
  | (Error e, c) | (c, Error e) ->
      Result.iter Client.close c;
      log "client: %s" e;
      p.attempted <- 1;
      p.failed <- 1);
  (p, !jobs)

(* ------------------------------------------------------------- metrics *)

let end_to_end ~setup_s (p : phase) =
  let secs = List.map (fun s -> s.seconds) p.samples in
  let n = float (List.length p.samples) in
  let evals = float (List.fold_left (fun a s -> a + s.evals) 0 p.samples) in
  [
    ("setup_s", setup_s, "s");
    ("campaigns_per_s", ratio n p.wall, "1/s");
    ("evals_per_s", ratio evals p.wall, "1/s");
    ("campaign_s_p50", median secs, "s");
    ("campaign_s_p90", percentile 0.9 secs, "s");
    ("evals_per_campaign", ratio evals n, "count");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

let total name spans =
  sum
    (List.filter_map
       (fun (s : Spans.span) -> if s.Spans.name = name then Some (s.stop -. s.start) else None)
       spans)

(* Evaluation time: the raw_eval spans inline; served, where the
   scheduler builds the target itself, the kernel and VM spans. *)
let eval_time spans =
  let t = total "eval" spans in
  if t > 0.0 then t
  else sum (List.map (fun n -> total n spans) [ "kernel.setup"; "vm.run"; "kernel.output"; "kernel.verify" ])

let server_layers =
  [
    ("scheduler.queue_wait_s", "s/job");
    ("scheduler.run_s", "s/job");
    ("scheduler.eval_share", "ratio");
    ("client.submit_s", "s/job");
    ("client.polls_per_job", "count/job");
    ("wire.encode_us", "us/frame");
    ("wire.decode_us", "us/frame");
    ("store.hit_ratio", "ratio");
    ("store.waits", "count");
    ("durable.campaign_s", "s/job");
    ("durable.bytes_per_job", "B/job");
    ("durable.files_per_job", "count/job");
  ]

let pool_layers =
  [
    ("pool.busy_ratio", "ratio");
    ("pool.idle_s", "s/campaign");
    ("pool.deadline_misses", "count");
    ("pool.restarts", "count");
  ]

let named names values = List.map2 (fun (name, unit) v -> (name, v, unit)) names values
let zeros names = List.map (fun (name, unit) -> (name, 0.0, unit)) names

(* Per-layer metrics of a traced phase. A layer the workload does not
   cross reports 0. *)
let layers ~(untraced : phase) ~(traced : phase) ~pool ~server spans =
  let per x = x /. float (max 1 (List.length traced.samples)) in
  let selfs = Spans.self_times spans in
  let self name =
    selfs
    |> List.filter_map (fun ((s : Spans.span), t) -> if s.Spans.name = name then Some t else None)
    |> sum
  in
  let vm_run = total "vm.run" spans in
  let steps =
    List.fold_left
      (fun a (s : Spans.span) -> if s.Spans.name = "vm.run" then a +. float s.count else a)
      0.0 spans
  in
  let hits = float traced.cache_hits and misses = float traced.cache_misses in
  let mean_secs (p : phase) = mean (List.map (fun s -> s.seconds) p.samples) in
  let pool =
    match pool with
    | None -> zeros pool_layers
    | Some ((before : Pool.stats), (after : Pool.stats)) ->
        let capacity = float pool_workers *. traced.wall and busy = eval_time spans in
        named pool_layers
          [
            ratio busy capacity;
            per (Float.max 0.0 (capacity -. busy));
            float (after.Pool.deadline_misses - before.Pool.deadline_misses);
            float (after.Pool.restarts - before.Pool.restarts);
          ]
  in
  [
    ("vm.run_s", per vm_run, "s/campaign");
    ("vm.steps", per steps, "steps/campaign");
    ("vm.steps_per_s", ratio steps vm_run, "1/s");
    ("vm.cache_hit_ratio", ratio hits (hits +. misses), "ratio");
    ("vm.cache_misses", per misses, "count/campaign");
    ("eval.prep_s", per (self "eval"), "s/campaign");
    ("kernel.setup_s", per (total "kernel.setup" spans), "s/campaign");
    ("kernel.verify_s", per (total "kernel.verify" spans), "s/campaign");
    ("search.self_s", per (self "campaign"), "s/campaign");
    ("search.profile_s", per (total "profile" spans), "s/campaign");
    ("search.pass_ratio", ratio (float traced.passed) (float traced.attempts), "ratio");
    ("harness.trapped", per (float traced.trapped), "count/campaign");
    ("harness.retried", per (float traced.retried), "count/campaign");
  ]
  @ pool @ server
  @ [ ("trace.overhead_pct", 100.0 *. (ratio (mean_secs traced) (mean_secs untraced) -. 1.0), "%") ]

(* ---------------------------------------------------------------- runs *)

type result = {
  setup_s : float;
  phases : phase list;  (** every phase run, for attempted/failed *)
  untraced : phase;
  layer_metrics : (string * float * string) list;  (** traced runs only *)
}

(* Median set-up time over [setup_repeats] set-ups; all but the last are
   torn down again. *)
let timed_setups setup teardown =
  let rec go i times =
    let t0 = Spans.now () in
    let env = setup i in
    let times = (Spans.now () -. t0) :: times in
    if i + 1 < setup_repeats then begin
      teardown env;
      go (i + 1) times
    end
    else (env, median times)
  in
  go 0 []

let run_inline ~golden ~seed ~seconds ~trace specs =
  let (kernels, pool), setup_s =
    timed_setups
      (fun _ ->
        let kernels = build_kernels specs in
        (kernels, if (List.hd specs).Golden.wave > 1 then Some (new_pool ()) else None))
      (fun (_, pool) -> Option.iter Pool.shutdown pool)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let budget = if trace then seconds /. 2.0 else seconds in
      let untraced = inline_phase ?pool ~golden ~rng ~budget kernels specs in
      if not trace then { setup_s; phases = [ untraced ]; untraced; layer_metrics = [] }
      else begin
        let before = Option.map Pool.stats pool in
        Atomic.set tracing true;
        let traced = inline_phase ?pool ~golden ~rng ~budget kernels specs in
        Atomic.set tracing false;
        let pool = Option.map (fun b -> (b, Pool.stats (Option.get pool))) before in
        {
          setup_s;
          phases = [ untraced; traced ];
          untraced;
          layer_metrics =
            layers ~untraced ~traced ~pool ~server:(zeros server_layers) (Spans.collect ());
        }
      end)

(* One all-fresh round on a durable daemon: what durability costs per
   job, in latency and in state left on disk. *)
let durable_probe ~golden kernels fr =
  let d = start_daemon ~durable:true ~dir:(Printf.sprintf "%s/durable-%d" out_dir (Unix.getpid ())) kernels in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let p, jobs = served_phase ~golden ~budget:0.0 kernels (new_mix 0) d fr in
      let files, bytes = disk_usage d.dir in
      let n = float (List.length jobs) in
      (p, mean (List.map (fun r -> r.latency) jobs), ratio (float bytes) n, ratio (float files) n))

let run_served ~golden ~seed ~seconds ~trace specs =
  let live = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter stop_daemon !live)
    (fun () ->
      let (kernels, d), setup_s =
        timed_setups
          (fun i ->
            let kernels = build_kernels specs in
            let dir = Printf.sprintf "%s/served-%d-%d" out_dir (Unix.getpid ()) i in
            let d = start_daemon ~durable:false ~dir kernels in
            live := Some d;
            (kernels, d))
          (fun (_, d) ->
            live := None;
            stop_daemon d)
      in
      let mix = new_mix seed in
      let fr = { lock = Mutex.create (); frames = 0; encode = 0.0; decode = 0.0 } in
      let budget = if trace then seconds /. 2.0 else seconds in
      let warmup, _ = served_phase ~golden ~budget:0.0 kernels mix d fr in
      let untraced, _ = served_phase ~golden ~budget kernels mix d fr in
      if not trace then { setup_s; phases = [ warmup; untraced ]; untraced; layer_metrics = [] }
      else begin
        let store0 = Store.stats d.store and cache0 = Compile.stats d.cache in
        let pool0 = Pool.stats d.pool in
        Atomic.set tracing true;
        let traced, jobs = served_phase ~golden ~budget kernels mix d fr in
        Atomic.set tracing false;
        let store1 = Store.stats d.store and cache1 = Compile.stats d.cache in
        let pool1 = Pool.stats d.pool in
        traced.cache_hits <- cache1.Code_cache.hits - cache0.Code_cache.hits;
        traced.cache_misses <- cache1.Code_cache.misses - cache0.Code_cache.misses;
        let spans = Spans.collect () in
        let probe, durable_s, bytes, files = durable_probe ~golden kernels fr in
        let walls = List.map (fun r -> r.status.Wire.wall) jobs in
        let hits = store1.Store.hits - store0.Store.hits in
        let lookups = hits + store1.Store.misses - store0.Store.misses in
        let server =
          named server_layers
            [
              mean (List.map (fun r -> r.latency -. r.status.Wire.wall) jobs);
              mean walls;
              ratio (eval_time spans) (sum walls);
              mean (List.map (fun r -> r.submit_s) jobs);
              mean (List.map (fun r -> float r.polls) jobs);
              1e6 *. ratio fr.encode (float fr.frames);
              1e6 *. ratio fr.decode (float fr.frames);
              ratio (float hits) (float lookups);
              float (store1.Store.waits - store0.Store.waits);
              durable_s;
              bytes;
              files;
            ]
        in
        {
          setup_s;
          phases = [ warmup; untraced; traced; probe ];
          untraced;
          layer_metrics = layers ~untraced ~traced ~pool:(Some (pool0, pool1)) ~server spans;
        }
      end)

(* -------------------------------------------------------------- golden *)

(* Every spec once, inline; served specs run with the daemon's wave width
   on a pool, so a matching served final is the served≡inline oracle. *)
let write_golden () =
  let pool = new_pool () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let specs =
        List.concat_map snd workloads
        |> List.sort_uniq (fun a b -> compare (Golden.key a) (Golden.key b))
      in
      let kernels = build_kernels specs in
      Golden.save
        (List.map
           (fun s ->
             let pool = if s.Golden.wave > 1 then Some pool else None in
             let seconds, o, _, _ = run_campaign ?pool kernels s in
             log "%-40s %s (%.3f s)" (Golden.key s) (Golden.to_string o) seconds;
             (s, o))
           specs))

(* ---------------------------------------------------------------- main *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> log "%-24s %16.6f %s" name v unit) metrics;
  let body =
    metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let write = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME search-W | pool-A | lattice-W | served-W");
      ("--seed", Arg.Set_int seed, "N seed for the campaign order and the served mix");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 = per-layer run with spans");
      ("--write-golden", Arg.Set write, " run every campaign spec once and rewrite golden.txt");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* SIGINT and SIGTERM unwind like an exception, so every Fun.protect
     still stops the pool or daemon and removes its state dir and socket *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  if !write then write_golden ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        log "unknown workload %S (use %s)" !workload (String.concat ", " (List.map fst workloads));
        exit 2
    | Some specs ->
        let golden = Golden.load () in
        let trace = !trace = 1 in
        mkdir_p out_dir;
        let t0 = Spans.now () in
        let run = if !workload = "served-W" then run_served else run_inline in
        let r = run ~golden ~seed:!seed ~seconds:!seconds ~trace specs in
        let attempted = List.fold_left (fun a p -> a + p.attempted) 0 r.phases in
        let failed = List.fold_left (fun a p -> a + p.failed) 0 r.phases in
        let correct = failed = 0 && attempted > 0 in
        if trace then begin
          let path = Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir !workload !seed in
          Spans.write_jsonl path ~t0 (Spans.collect ());
          log "spans written to %s" path;
          print_result ~correct ~attempted ~failed r.layer_metrics
        end
        else print_result ~correct ~attempted ~failed (end_to_end ~setup_s:r.setup_s r.untraced);
        if not correct then exit 1
