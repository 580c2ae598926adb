type options = {
  workers : int;
  deadline : float option;
  grace : float;
  max_worker_loss : int;
  queue_cap : int;
}

let default_options =
  { workers = 2; deadline = None; grace = 0.5; max_worker_loss = 8; queue_cap = 64 }

(* the monitor's polling period, in seconds *)
let poll_interval = 0.002

type stats = {
  tasks : int;
  completed : int;
  deadline_misses : int;
  abandoned : int;
  restarts : int;
  inline_runs : int;
  degraded : bool;
}

type task = { id : int; thunk : unit -> Verdict.verdict }

type slot = {
  mutable dom : unit Domain.t option;
  (* [busy]/[started] guarded by the pool lock; [cancel] is the lock-free
     channel between the monitor and the worker's VM watchdog *)
  mutable busy : task option;
  mutable started : float;
  cancel : bool Atomic.t;
  mutable zombie : bool;  (* abandoned mid-hang; never joined *)
}

type t = {
  opts : options;
  echo : string -> unit;
  lock : Mutex.t;
  cond_work : Condition.t;  (* workers: the queue may have work *)
  cond_done : Condition.t;  (* submitters: a task resolved / pool state changed *)
  work : task Queue.t;
  results : (int, Verdict.verdict) Hashtbl.t;
  mutable slots : slot list;
  mutable next_id : int;
  mutable alive : bool;
  mutable monitor : unit Domain.t option;
  mutable events : string list;  (* newest first; drained by [drain_events] *)
  (* mutable stats *)
  mutable n_tasks : int;
  mutable n_completed : int;
  mutable n_deadline_misses : int;
  mutable n_abandoned : int;
  mutable n_restarts : int;
  mutable n_inline : int;
  mutable is_degraded : bool;
}

let note t fmt =
  Format.kasprintf
    (fun s ->
      t.events <- s :: t.events;
      t.echo s)
    fmt

(* ---------------------------------------------------------------- workers *)

(* Resolve [task] with [v] unless something (a zombie's late completion racing
   its abandonment) already did. Lock held. *)
let deliver t task v =
  if not (Hashtbl.mem t.results task.id) then begin
    Hashtbl.replace t.results task.id v;
    t.n_completed <- t.n_completed + 1;
    Condition.broadcast t.cond_done
  end

let degrade t why =
  if not t.is_degraded then begin
    t.is_degraded <- true;
    note t "pool: degrading to serial evaluation (%s)" why;
    (* wake submitters so they drain the queue inline *)
    Condition.broadcast t.cond_done
  end

let run_task t slot task =
  (* The watchdog polls the cancel flag every 256 executed instructions —
     cheap enough to leave on every supervised VM, reactive enough that a
     cooperative cancellation lands within microseconds. *)
  let tick = ref 0 in
  let watchdog _vm _addr =
    incr tick;
    if !tick land 255 = 0 && Atomic.get slot.cancel then
      raise (Vm.Deadline (Option.value ~default:0.0 t.opts.deadline))
  in
  Vm.with_watchdog watchdog task.thunk

let rec worker_loop t slot =
  Mutex.lock t.lock;
  let rec next () =
    if (not t.alive) || slot.zombie then None
    else
      match Queue.take_opt t.work with
      | Some task -> Some task
      | None ->
          Condition.wait t.cond_work t.lock;
          next ()
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some task ->
      slot.busy <- Some task;
      slot.started <- Unix.gettimeofday ();
      Atomic.set slot.cancel false;
      (* a task freed a queue slot: submitters blocked on [queue_cap] *)
      Condition.broadcast t.cond_done;
      Mutex.unlock t.lock;
      (* an exception escaping the thunk is this task's verdict, classified
         as every other layer classifies it; the task is never rerun *)
      let v = try run_task t slot task with e -> Verdict.classify_exn e in
      Mutex.lock t.lock;
      slot.busy <- None;
      if slot.zombie then
        (* the monitor gave up on us while the task was running; the task was
           already resolved as a deadline miss — drop our late result *)
        Mutex.unlock t.lock
      else begin
        deliver t task v;
        Mutex.unlock t.lock;
        worker_loop t slot
      end

let spawn_worker t ~restart =
  let slot =
    { dom = None; busy = None; started = 0.0; cancel = Atomic.make false; zombie = false }
  in
  match Domain.spawn (fun () -> worker_loop t slot) with
  | dom ->
      slot.dom <- Some dom;
      t.slots <- slot :: t.slots;
      if restart then t.n_restarts <- t.n_restarts + 1
  | exception e ->
      degrade t (Printf.sprintf "cannot spawn a worker domain: %s" (Printexc.to_string e))

(* ---------------------------------------------------------------- monitor *)

let monitor_loop t =
  let rec loop () =
    Unix.sleepf poll_interval;
    Mutex.lock t.lock;
    if not t.alive then Mutex.unlock t.lock
    else begin
      (match t.opts.deadline with
      | None -> ()
      | Some d ->
          let now = Unix.gettimeofday () in
          List.iter
            (fun slot ->
              match slot.busy with
              | Some task when not slot.zombie -> (
                  let elapsed = now -. slot.started in
                  if elapsed > d && not (Atomic.get slot.cancel) then begin
                    (* first tier: cooperative cancel through the VM watchdog *)
                    t.n_deadline_misses <- t.n_deadline_misses + 1;
                    note t "pool: task %d exceeded its %.3fs deadline; cancelling" task.id d;
                    Atomic.set slot.cancel true
                  end
                  else if Atomic.get slot.cancel && elapsed > d +. t.opts.grace then begin
                    (* second tier: the worker ignored the cancel (hung outside
                       the VM, where the watchdog cannot run). OCaml domains
                       cannot be killed, so abandon it and staff a
                       replacement, within the loss budget. *)
                    slot.zombie <- true;
                    t.n_abandoned <- t.n_abandoned + 1;
                    note t
                      "pool: task %d unresponsive %.3fs after cancellation; abandoning worker"
                      task.id t.opts.grace;
                    deliver t task Verdict.Step_timeout;
                    if t.n_abandoned > t.opts.max_worker_loss then
                      degrade t
                        (Printf.sprintf "abandoned %d workers (budget %d)" t.n_abandoned
                           t.opts.max_worker_loss)
                    else spawn_worker t ~restart:true
                  end)
              | _ -> ())
            t.slots);
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

(* ---------------------------------------------------------------- lifecycle *)

let create ?(options = default_options) ?(log = ignore) () =
  let t =
    {
      opts =
        {
          options with
          workers = max 1 options.workers;
          grace = Float.max 0.01 options.grace;
          queue_cap = max 1 options.queue_cap;
        };
      echo = log;
      lock = Mutex.create ();
      cond_work = Condition.create ();
      cond_done = Condition.create ();
      work = Queue.create ();
      results = Hashtbl.create 64;
      slots = [];
      next_id = 0;
      alive = true;
      monitor = None;
      events = [];
      n_tasks = 0;
      n_completed = 0;
      n_deadline_misses = 0;
      n_abandoned = 0;
      n_restarts = 0;
      n_inline = 0;
      is_degraded = false;
    }
  in
  Mutex.protect t.lock (fun () ->
      for _ = 1 to t.opts.workers do
        if not t.is_degraded then spawn_worker t ~restart:false
      done;
      if t.opts.deadline <> None && not t.is_degraded then
        match Domain.spawn (fun () -> monitor_loop t) with
        | dom -> t.monitor <- Some dom
        | exception e ->
            degrade t
              (Printf.sprintf "cannot spawn the monitor domain: %s" (Printexc.to_string e)));
  t

let shutdown t =
  let workers =
    Mutex.protect t.lock (fun () ->
        if not t.alive then []
        else begin
          t.alive <- false;
          Condition.broadcast t.cond_work;
          Condition.broadcast t.cond_done;
          let joinable =
            List.filter_map (fun s -> if s.zombie then None else s.dom) t.slots
          in
          let m = t.monitor in
          t.monitor <- None;
          (* zombies hold genuinely hung tasks and can never be joined; they
             are intentionally leaked and die with the process *)
          match m with Some d -> d :: joinable | None -> joinable
        end)
  in
  List.iter (fun d -> try Domain.join d with _ -> ()) workers

(* ---------------------------------------------------------------- running *)

let run t thunks =
  match thunks with
  | [] -> []
  | _ ->
      Mutex.lock t.lock;
      if (not t.alive) || t.is_degraded then begin
        (* serial fallback: no supervision, but classify-contained and alive *)
        t.n_tasks <- t.n_tasks + List.length thunks;
        t.n_inline <- t.n_inline + List.length thunks;
        t.n_completed <- t.n_completed + List.length thunks;
        Mutex.unlock t.lock;
        List.map (fun thunk -> try thunk () with e -> Verdict.classify_exn e) thunks
      end
      else begin
        let tasks =
          List.map
            (fun thunk ->
              let id = t.next_id in
              t.next_id <- t.next_id + 1;
              { id; thunk })
            thunks
        in
        t.n_tasks <- t.n_tasks + List.length tasks;
        (* bounded submission: never hold more than [queue_cap] undispatched *)
        List.iter
          (fun task ->
            while
              t.alive && (not t.is_degraded) && Queue.length t.work >= t.opts.queue_cap
            do
              Condition.wait t.cond_done t.lock
            done;
            Queue.push task t.work;
            Condition.signal t.cond_work)
          tasks;
        let unresolved () =
          List.filter (fun task -> not (Hashtbl.mem t.results task.id)) tasks
        in
        let take_queued pending =
          (* pull one of our still-queued tasks for inline execution *)
          let n = Queue.length t.work in
          let found = ref None in
          for _ = 1 to n do
            let task = Queue.pop t.work in
            if !found = None && List.memq task pending then found := Some task
            else Queue.push task t.work
          done;
          !found
        in
        let rec wait_all () =
          match unresolved () with
          | [] -> ()
          | pending ->
              if t.is_degraded || not t.alive then begin
                match take_queued pending with
                | Some task ->
                    Mutex.unlock t.lock;
                    let v = try task.thunk () with e -> Verdict.classify_exn e in
                    Mutex.lock t.lock;
                    t.n_inline <- t.n_inline + 1;
                    deliver t task v;
                    wait_all ()
                | None ->
                    (* in flight on a surviving worker; wait for its verdict *)
                    Condition.wait t.cond_done t.lock;
                    wait_all ()
              end
              else begin
                Condition.wait t.cond_done t.lock;
                wait_all ()
              end
        in
        wait_all ();
        let out =
          List.map
            (fun task ->
              let v = Hashtbl.find t.results task.id in
              Hashtbl.remove t.results task.id;
              v)
            tasks
        in
        Mutex.unlock t.lock;
        out
      end

(* ---------------------------------------------------------------- observers *)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        tasks = t.n_tasks;
        completed = t.n_completed;
        deadline_misses = t.n_deadline_misses;
        abandoned = t.n_abandoned;
        restarts = t.n_restarts;
        inline_runs = t.n_inline;
        degraded = t.is_degraded;
      })

let drain_events t =
  Mutex.protect t.lock (fun () ->
      let es = List.rev t.events in
      t.events <- [];
      es)

let report t =
  let s = stats t in
  Printf.sprintf
    "pool: %d worker(s), %d task(s) (%d deadline miss(es), %d abandoned, %d restart(s))%s"
    t.opts.workers s.tasks s.deadline_misses s.abandoned s.restarts
    (if s.degraded then Printf.sprintf " — DEGRADED to serial (%d inline)" s.inline_runs
     else "")
