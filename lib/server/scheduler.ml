type options = {
  max_concurrent : int;
  wave_width : int;
  retries : int;
  state_dir : string option;
}

let default_options = { max_concurrent = 2; wave_width = 2; retries = 0; state_dir = None }

type job = {
  id : string;
  spec : Wire.job_spec;
  campaign : Campaign.t;  (* the spec, validated *)
  kernel : Kernel.t;
  mutable state : Wire.job_state;
  mutable tested : int;
  mutable hits : int;  (* evaluations served from the result store *)
  mutable misses : int;
  mutable started : float;  (* of the current run; 0.0 when not running *)
  mutable wall : float;  (* accumulated over finished runs *)
  mutable events_rev : string list;
  mutable n_events : int;
  stop : bool Atomic.t;
  mutable config_text : string;
  mutable summary : string;
}

type t = {
  opts : options;
  echo : string -> unit;
  resolve : Wire.job_spec -> (Kernel.t, string) result;
  pool : Pool.t;
  cache : Compile.cache;
  store : Store.t;
  fleet : Fleet.t option;
  lock : Mutex.t;
  cond : Condition.t;  (* work queued / job finished / lifecycle change *)
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (* job ids, newest first *)
  mutable next_id : int;
  mutable accepting : bool;
  mutable alive : bool;  (* runners may pick up new jobs *)
  kill : bool Atomic.t;  (* shutdown ~cancel_running: stop running jobs *)
  mutable runners : Thread.t list;
  mutable wal : Wal.t option;  (* job-table WAL; present iff state_dir is *)
  t0 : float;
}

let now () = Unix.gettimeofday ()

(* Lock held. *)
let event t j fmt =
  Format.kasprintf
    (fun line ->
      j.events_rev <- line :: j.events_rev;
      j.n_events <- j.n_events + 1;
      t.echo (Printf.sprintf "%s: %s" j.id line))
    fmt

(* Lock held. *)
let status_of j =
  {
    Wire.id = j.id;
    spec = j.spec;
    state = j.state;
    tested = j.tested;
    store_hits = j.hits;
    store_misses = j.misses;
    wall = (j.wall +. if j.state = Wire.Running then now () -. j.started else 0.0);
  }

(* A spec is admitted when [Campaign.of_spec] validates it and [resolve]
   finds its benchmark — at submission and again at WAL recovery. *)
let admit t (spec : Wire.job_spec) =
  Result.bind (Campaign.of_spec spec) (fun c -> Result.map (fun k -> (c, k)) (t.resolve spec))
  |> Result.map_error (Printf.sprintf "cannot resolve %s.%s: %s" spec.Wire.bench spec.Wire.cls)

let new_job id spec (campaign, kernel) =
  {
    id;
    spec;
    campaign;
    kernel;
    state = Wire.Queued;
    tested = 0;
    hits = 0;
    misses = 0;
    started = 0.0;
    wall = 0.0;
    events_rev = [];
    n_events = 0;
    stop = Atomic.make false;
    config_text = "";
    summary = "";
  }

(* ------------------------------------------------------------- campaigns *)

(* Run one campaign for [j]. Returns the job's terminal state. Called
   without the lock; takes it only for counters and events. *)
let run_campaign t j =
  let k = j.kernel in
  let ctx = Campaign.context ~retries:t.opts.retries j.spec in
  let _, _, harnessed = Campaign.target ~cache:t.cache ctx k in
  let program_key = Store.program_key k.Kernel.program in
  let context = Store.context ctx k in
  let eval cfg =
    let config_digest = Config.digest k.Kernel.program cfg in
    let key = Store.key ~program_key ~context ~config_digest in
    (* fleet offload happens inside the store's compute closure: only
       store misses reach the fleet, and the store's in-flight dedup
       guarantees at most one fleet item per key — which is what keeps
       the store free of lost and duplicate verdicts under chaos *)
    let remote = ref false in
    let compute () =
      match t.fleet with
      | None -> harnessed.Bfs.Target.eval cfg
      | Some fleet ->
          let text = Config.print k.Kernel.program cfg in
          let verdict, origin =
            Fleet.eval fleet ~ctx ~key ~text (fun () -> harnessed.Bfs.Target.eval cfg)
          in
          if origin = `Remote then remote := true;
          verdict
    in
    let verdict, served = Store.find_or_compute t.store ~key compute in
    Mutex.protect t.lock (fun () ->
        j.tested <- j.tested + 1;
        if served then j.hits <- j.hits + 1 else j.misses <- j.misses + 1;
        event t j "EVAL %s %s%s"
          (Verdict.verdict_label verdict)
          (Config.summarize cfg)
          (if served then " [store]" else if !remote then " [fleet]" else ""));
    verdict
  in
  let target = { harnessed with Bfs.Target.eval } in
  if j.spec.Wire.shadow then
    Mutex.protect t.lock (fun () -> event t j "SHADOW tracing %s" k.Kernel.name);
  let res =
    Campaign.run ~pool:t.pool
      ~stop:(fun () -> Atomic.get j.stop || Atomic.get t.kill)
      ~workers:t.opts.wave_width k j.campaign target
  in
  let summary =
    Printf.sprintf
      "tested %d (%d from store), static %.1f%%, dynamic %.1f%%, %d bits saved, final %s"
      j.tested j.hits res.Bfs.static_pct res.Bfs.dynamic_pct res.Bfs.bits_saved
      (if res.Bfs.final_pass then "pass" else "fail")
  in
  let state = if res.Bfs.interrupted then Wire.Cancelled else Wire.Done in
  (state, Config.print k.Kernel.program res.Bfs.final, summary)

(* --------------------------------------------------------------- runners *)

(* Lock held: the queued job with the highest priority (then oldest id). *)
let pick_queued t =
  Hashtbl.fold
    (fun _ j best ->
      if j.state <> Wire.Queued then best
      else
        match best with
        | Some b
          when b.spec.Wire.priority > j.spec.Wire.priority
               || (b.spec.Wire.priority = j.spec.Wire.priority && b.id < j.id) ->
            best
        | _ -> Some j)
    t.jobs None

let result_path root id = Filename.concat (Filename.concat root id) "result"

(* Atomic: the result file is always either absent or a complete
   configuration. *)
let write_result path text = Durable_log.replace ~path (fun oc -> output_string oc text)

(* Lock held; [j.state] is terminal. Persist the outcome so a restarted
   daemon re-lists this job as finished instead of re-running it. *)
let persist_outcome t j =
  match t.wal with
  | None -> ()
  | Some wal ->
      (match t.opts.state_dir with
      | Some root when j.config_text <> "" ->
          write_result (result_path root j.id) j.config_text
      | _ -> ());
      Wal.append wal (Wal.Outcome { id = j.id; state = j.state; summary = j.summary })

(* [state] is terminal: [Done], [Cancelled] or [Failed]. *)
let finish_run t j state config_text summary =
  Mutex.protect t.lock (fun () ->
      j.wall <- j.wall +. (now () -. j.started);
      j.started <- 0.0;
      j.state <- state;
      j.config_text <- config_text;
      j.summary <- summary;
      persist_outcome t j;
      (match state with
      | Wire.Done -> event t j "DONE %s" summary
      | Wire.Cancelled -> event t j "CANCELLED %s" summary
      | Wire.Failed why -> event t j "FAILED %s" why
      | Wire.Quarantined _ | Wire.Queued | Wire.Running -> ());
      Condition.broadcast t.cond)

let rec runner_loop t =
  Mutex.lock t.lock;
  let rec next () =
    if Atomic.get t.kill then begin
      (* cancelled shutdown: nothing queued survives *)
      Hashtbl.iter
        (fun _ j ->
          if j.state = Wire.Queued then begin
            j.state <- Wire.Cancelled;
            j.summary <- "cancelled before starting (server shutdown)";
            persist_outcome t j;
            event t j "CANCELLED before starting (server shutdown)"
          end)
        t.jobs;
      Condition.broadcast t.cond;
      None
    end
    else
      match pick_queued t with
      | Some j -> Some j
      | None ->
          if not t.alive then None
          else begin
            Condition.wait t.cond t.lock;
            next ()
          end
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some j ->
      j.state <- Wire.Running;
      j.started <- now ();
      event t j "RUNNING %s.%s%s (priority %d)" j.spec.Wire.bench j.spec.Wire.cls
        (if j.spec.Wire.shadow then " [shadow-guided]" else "")
        j.spec.Wire.priority;
      Mutex.unlock t.lock;
      (* a dead campaign driver is this job's failure, never the
         scheduler's, and it is final: the pool classifies every
         evaluation, so what escapes is the search's own code (profile run,
         shadow trace, machine), which would die the same way again *)
      let state, text, summary =
        try run_campaign t j with e -> (Wire.Failed (Printexc.to_string e), "", "")
      in
      finish_run t j state text summary;
      runner_loop t

(* -------------------------------------------------------------- recovery *)

let state_label = function
  | Wire.Queued -> "queued"
  | Wire.Running -> "running"
  | Wire.Done -> "done"
  | Wire.Cancelled -> "cancelled"
  | Wire.Failed _ -> "failed"
  | Wire.Quarantined _ -> "quarantined"

(* Replay the job-table WAL a previous daemon life left on this state dir:
   jobs with a terminal outcome are re-listed with their persisted result;
   jobs without one are re-queued and re-walk their campaign against the
   replayed result store. *)
let recover t root wal_path =
  let entries = Wal.replay (Wal.load ~path:wal_path) in
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (id, { Wal.spec; outcome }) ->
          (match
             if String.length id > 1 && id.[0] = 'j' then
               int_of_string_opt (String.sub id 1 (String.length id - 1))
             else None
           with
          | Some n -> t.next_id <- max t.next_id n
          | None -> ());
          match admit t spec with
          | Error why -> t.echo (Printf.sprintf "%s: not recovered (%s)" id why)
          | Ok admitted ->
              let j = new_job id spec admitted in
              Hashtbl.replace t.jobs id j;
              t.order <- id :: t.order;
              (match outcome with
              | Some (state, summary) ->
                  j.state <- state;
                  j.summary <- summary;
                  j.config_text <- Durable_log.read ~path:(result_path root id);
                  event t j "RECOVERED %s (daemon restarted on this state dir)"
                    (state_label state)
              | None ->
                  event t j
                    "RECOVERED requeued after daemon death; will resume from the store"))
        entries;
      Condition.broadcast t.cond)

(* ------------------------------------------------------------- lifecycle *)

let create ?(options = default_options) ?(log = ignore) ?fleet ~resolve ~pool ~cache ~store () =
  let opts =
    {
      options with
      max_concurrent = max 1 options.max_concurrent;
      wave_width = max 1 options.wave_width;
    }
  in
  let t =
    {
      opts;
      echo = log;
      resolve;
      pool;
      cache;
      store;
      fleet;
      lock = Mutex.create ();
      cond = Condition.create ();
      jobs = Hashtbl.create 32;
      order = [];
      next_id = 0;
      accepting = true;
      alive = true;
      kill = Atomic.make false;
      runners = [];
      wal = None;
      t0 = now ();
    }
  in
  (match opts.state_dir with
  | None -> ()
  | Some root ->
      let wal_path = Filename.concat root "jobs.wal" in
      (* replay the previous life's job table before the writer reopens the
         WAL, and before any runner can race the recovered queue *)
      recover t root wal_path;
      t.wal <- Some (Wal.create ~path:wal_path));
  t.runners <- List.init opts.max_concurrent (fun _ -> Thread.create runner_loop t);
  t

let submit t spec =
  Result.bind (admit t spec) (fun admitted ->
      Mutex.protect t.lock (fun () ->
          if not t.accepting then Error "server is draining; not accepting new campaigns"
          else begin
            t.next_id <- t.next_id + 1;
            let id = Printf.sprintf "j%04d" t.next_id in
            let j = new_job id spec admitted in
            Hashtbl.replace t.jobs id j;
            t.order <- id :: t.order;
            Option.iter (fun wal -> Wal.append wal (Wal.Submitted { id; spec })) t.wal;
            event t j "QUEUED %s.%s (priority %d)" spec.Wire.bench spec.Wire.cls
              spec.Wire.priority;
            Condition.broadcast t.cond;
            Ok id
          end))

let find t id = Hashtbl.find_opt t.jobs id

let status t who =
  Mutex.protect t.lock (fun () ->
      match who with
      | Some id -> (
          match find t id with
          | Some j -> Ok [ status_of j ]
          | None -> Error (Printf.sprintf "unknown job %S" id))
      | None -> Ok (List.rev_map (fun id -> status_of (Hashtbl.find t.jobs id)) t.order))

let events t ~job ~from =
  Mutex.protect t.lock (fun () ->
      match find t job with
      | None -> Error (Printf.sprintf "unknown job %S" job)
      | Some j ->
          (* a cursor past the end of the log can only come from a client
             that watched a previous daemon life: restart the stream so the
             recovered job's events are not silently skipped *)
          let from = if from > j.n_events then 0 else max 0 from in
          let lines =
            if from >= j.n_events then []
            else
              List.filteri (fun i _ -> i >= from) (List.rev j.events_rev)
          in
          let next = max from j.n_events in
          Ok (next, lines, Wal.is_terminal j.state && next >= j.n_events))

let result t id =
  Mutex.protect t.lock (fun () ->
      match find t id with
      | None -> Error (Printf.sprintf "unknown job %S" id)
      | Some j ->
          if Wal.is_terminal j.state then Ok (status_of j, j.config_text, j.summary)
          else
            Error
              (Printf.sprintf "job %s is not finished (%s)" id
                 (match j.state with Wire.Running -> "running" | _ -> "queued")))

let cancel t id =
  Mutex.protect t.lock (fun () ->
      match find t id with
      | None -> false
      | Some j -> (
          match j.state with
          | Wire.Queued ->
              j.state <- Wire.Cancelled;
              j.summary <- "cancelled before starting";
              persist_outcome t j;
              event t j "CANCELLED before starting";
              Condition.broadcast t.cond;
              true
          | Wire.Running ->
              Atomic.set j.stop true;
              event t j "CANCEL requested; stopping at the next wave boundary";
              true
          | _ -> false))

let stats t =
  let store = Store.stats t.store in
  let cache = Compile.stats t.cache in
  Mutex.protect t.lock (fun () ->
      let count p = Hashtbl.fold (fun _ j n -> if p j.state then n + 1 else n) t.jobs 0 in
      {
        Wire.submitted = t.next_id;
        completed = count (fun s -> s = Wire.Done);
        failed =
          count (function Wire.Failed _ | Wire.Quarantined _ -> true | _ -> false);
        cancelled = count (fun s -> s = Wire.Cancelled);
        running = count (fun s -> s = Wire.Running);
        queued = count (fun s -> s = Wire.Queued);
        store =
          { Wire.hits = store.Store.hits; misses = store.Store.misses; entries = store.Store.entries };
        cache_hits = cache.Code_cache.hits;
        cache_misses = cache.Code_cache.misses;
        uptime = now () -. t.t0;
      })

let drain t =
  Mutex.protect t.lock (fun () ->
      t.accepting <- false;
      Condition.broadcast t.cond)

let wait_idle t =
  Mutex.protect t.lock (fun () ->
      let busy () =
        Hashtbl.fold
          (fun _ j b -> b || j.state = Wire.Queued || j.state = Wire.Running)
          t.jobs false
      in
      while busy () do
        Condition.wait t.cond t.lock
      done)

let shutdown t ?(cancel_running = false) () =
  drain t;
  if cancel_running then Atomic.set t.kill true;
  let runners =
    Mutex.protect t.lock (fun () ->
        t.alive <- false;
        Condition.broadcast t.cond;
        let rs = t.runners in
        t.runners <- [];
        rs)
  in
  List.iter Thread.join runners;
  match Mutex.protect t.lock (fun () -> let w = t.wal in t.wal <- None; w) with
  | Some wal -> Wal.close wal
  | None -> ()
