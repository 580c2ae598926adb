type options = {
  heartbeat_every : float;
  lease_ttl : float;
  item_deadline : float;
  quarantine_after : int;
}

let default_options =
  { heartbeat_every = 2.0; lease_ttl = 60.0; item_deadline = 300.0; quarantine_after = 3 }

(* Queued -> Leased -> Done is the happy path. Local is the waiter's
   reclaim: the item went back to in-process evaluation (deadline hit, or
   the fleet emptied out) and any late remote verdict for it is a stale
   duplicate to be ignored. *)
type item_state = Queued | Leased of string | Done of Verdict.verdict | Local

type item = {
  key : string;
  text : string;
  ctx : Wire.context;
  mutable state : item_state;
  enqueued : float;
}

type lease = { lid : string; items : item list; mutable issued : float }

type worker = {
  wid : string;
  wname : string;
  mutable last_seen : float;  (* [neg_infinity] once it left or restarted *)
  mutable lease : lease option;
  mutable completed : int;
  mutable capacity : int;
}

type stats = {
  joined : int;
  rejoined : int;
  leases : int;
  requeued_leases : int;
  requeued_items : int;
  accepted : int;
  ignored : int;  (* duplicates, stale leases, unparseable verdicts *)
  remote : int;  (* evaluations resolved by the fleet *)
  local_fallbacks : int;  (* evaluations reclaimed to the local pool *)
  quarantined : string list;
}

type t = {
  opts : options;
  echo : string -> unit;
  lock : Mutex.t;
  cond : Condition.t;  (* items queued / resolved / fleet membership change *)
  items : (string, item) Hashtbl.t;
  workers : (string, worker) Hashtbl.t;  (* by worker id *)
  strikes : (string, int) Hashtbl.t;  (* by worker name: survives restarts *)
  quarantine : (string, string) Hashtbl.t;  (* name -> reason *)
  mutable next_wid : int;
  mutable next_lid : int;
  mutable alive : bool;
  mutable monitor : Thread.t option;
  mutable joined : int;
  mutable rejoined : int;
  mutable leases : int;
  mutable requeued_leases : int;
  mutable requeued_items : int;
  mutable accepted : int;
  mutable ignored : int;
  mutable remote : int;
  mutable local_fallbacks : int;
}

let now () = Unix.gettimeofday ()

(* Lock held. A worker counts as live exactly while it was heard from
   within three heartbeat intervals — so a briefly dropped connection
   (chaos garbage frame, network blip) does not stampede every queued item
   back to the local pool before the worker can rejoin. *)
let live_w t w =
  (not (Hashtbl.mem t.quarantine w.wname))
  && now () -. w.last_seen < 3.0 *. t.opts.heartbeat_every

let count_live t = Hashtbl.fold (fun _ w n -> if live_w t w then n + 1 else n) t.workers 0

(* Lock held. *)
let requeue_lease t w why =
  match w.lease with
  | None -> ()
  | Some l ->
      let n =
        List.fold_left
          (fun n it ->
            match it.state with
            | Leased lid when lid = l.lid ->
                it.state <- Queued;
                n + 1
            | _ -> n)
          0 l.items
      in
      w.lease <- None;
      t.requeued_leases <- t.requeued_leases + 1;
      t.requeued_items <- t.requeued_items + n;
      t.echo
        (Printf.sprintf "fleet: %s (%s): requeued %d item(s) of lease %s: %s" w.wid w.wname n
           l.lid why);
      Condition.broadcast t.cond

(* Lock held. *)
let strike t name why =
  let n = (try Hashtbl.find t.strikes name with Not_found -> 0) + 1 in
  Hashtbl.replace t.strikes name n;
  if n >= t.opts.quarantine_after && not (Hashtbl.mem t.quarantine name) then begin
    Hashtbl.replace t.quarantine name
      (Printf.sprintf "killed %d batch(es), last: %s" n why);
    t.echo (Printf.sprintf "fleet: worker %s quarantined after %d strike(s): %s" name n why);
    Condition.broadcast t.cond
  end

(* Lock held: the lease sweep. Missed heartbeats or an expired lease
   requeue the lease and record a strike. Requeue is time-based, never
   disconnect-based: a worker that drops its connection and rejoins
   quickly keeps its lease and its in-flight work. *)
let sweep t =
  let tnow = now () in
  Hashtbl.iter
    (fun _ w ->
      let age = tnow -. w.last_seen in
      match w.lease with
      | Some _ when age > 2.0 *. t.opts.heartbeat_every ->
          requeue_lease t w
            (Printf.sprintf "no heartbeat for %.1fs" age);
          strike t w.wname "missed heartbeats mid-batch"
      | Some l when tnow -. l.issued > t.opts.lease_ttl ->
          requeue_lease t w "lease expired";
          strike t w.wname "lease expired"
      | _ -> ())
    t.workers

let monitor_loop t =
  let tick = Float.max 0.01 (Float.min 0.1 (t.opts.heartbeat_every /. 4.0)) in
  let rec go () =
    let alive =
      Mutex.protect t.lock (fun () ->
          if t.alive then begin
            sweep t;
            (* wake deadline-watching waiters and long-pollers: OCaml's
               Condition has no timed wait, so the monitor is the clock *)
            Condition.broadcast t.cond
          end;
          t.alive)
    in
    if alive then begin
      Thread.delay tick;
      go ()
    end
  in
  go ()

let create ?(options = default_options) ?(log = ignore) () =
  let opts =
    {
      options with
      heartbeat_every = Float.max 0.01 options.heartbeat_every;
      quarantine_after = max 1 options.quarantine_after;
    }
  in
  let t =
    {
      opts;
      echo = log;
      lock = Mutex.create ();
      cond = Condition.create ();
      items = Hashtbl.create 64;
      workers = Hashtbl.create 8;
      strikes = Hashtbl.create 8;
      quarantine = Hashtbl.create 8;
      next_wid = 0;
      next_lid = 0;
      alive = true;
      monitor = None;
      joined = 0;
      rejoined = 0;
      leases = 0;
      requeued_leases = 0;
      requeued_items = 0;
      accepted = 0;
      ignored = 0;
      remote = 0;
      local_fallbacks = 0;
    }
  in
  t.monitor <- Some (Thread.create monitor_loop t);
  t

let stop t =
  let th =
    Mutex.protect t.lock (fun () ->
        t.alive <- false;
        Condition.broadcast t.cond;
        let th = t.monitor in
        t.monitor <- None;
        th)
  in
  Option.iter Thread.join th

(* ------------------------------------------------------------ evaluation *)

let live_workers t = Mutex.protect t.lock (fun () -> count_live t)

let eval t ~ctx ~key ~text local =
  Mutex.lock t.lock;
  if (not t.alive) || count_live t = 0 then begin
    Mutex.unlock t.lock;
    (local (), `Local)
  end
  else begin
    let it = { key; text; ctx; state = Queued; enqueued = now () } in
    Hashtbl.replace t.items key it;
    Condition.broadcast t.cond;
    let deadline = it.enqueued +. t.opts.item_deadline in
    let rec wait () =
      match it.state with
      | Done v ->
          Hashtbl.remove t.items key;
          t.remote <- t.remote + 1;
          `Remote v
      | _ when (not t.alive) || now () > deadline || (it.state = Queued && count_live t = 0)
        ->
          (* reclaim: graceful degradation to the in-process pool. Any
             remote verdict that arrives later is ignored as stale. *)
          it.state <- Local;
          t.local_fallbacks <- t.local_fallbacks + 1;
          `Fallback
      | _ ->
          Condition.wait t.cond t.lock;
          wait ()
    in
    match wait () with
    | `Remote v ->
        Mutex.unlock t.lock;
        (v, `Remote)
    | `Fallback ->
        Mutex.unlock t.lock;
        let v = local () in
        Mutex.protect t.lock (fun () -> Hashtbl.remove t.items key);
        (v, `Local)
  end

(* -------------------------------------------------------- frame handlers *)

let find_worker t wid = Hashtbl.find_opt t.workers wid

let welcome t w ~wire_version ~already_done =
  Wire.Worker_welcome
    {
      worker = w.wid;
      wire_version = min wire_version Wire.version;
      heartbeat_every = t.opts.heartbeat_every;
      lease_ttl = t.opts.lease_ttl;
      already_done;
    }

let hello t ~name ~wire_version ~reconnect ~capacity =
  Mutex.protect t.lock (fun () ->
      if wire_version < 2 then
        Wire.Error_reply
          (Printf.sprintf "fleet frames need protocol version 2; worker %s speaks %d" name
             wire_version)
      else
        match Hashtbl.find_opt t.quarantine name with
        | Some why -> Wire.Error_reply (Printf.sprintf "worker %s is quarantined: %s" name why)
        | None -> (
            let returning =
              match reconnect with
              | Some wid -> (
                  match find_worker t wid with
                  | Some w when w.wname = name -> Some w
                  | _ -> None)
              | None -> None
            in
            match returning with
            | Some w ->
                (* rejoin after a dropped connection: the lease survives
                   (requeue is time-based) and the worker gets a delta of
                   the items that resolved while it was away, so it never
                   re-evaluates memoized work *)
                w.last_seen <- now ();
                w.capacity <- max 1 capacity;
                t.rejoined <- t.rejoined + 1;
                let already_done =
                  match w.lease with
                  | None -> []
                  | Some l ->
                      List.filter_map
                        (fun it ->
                          match it.state with
                          | Done _ | Local -> Some it.key
                          | Leased lid when lid <> l.lid -> Some it.key
                          | _ -> None)
                        l.items
                in
                t.echo
                  (Printf.sprintf "fleet: %s (%s) rejoined, %d item(s) already done" w.wid name
                     (List.length already_done));
                Condition.broadcast t.cond;
                welcome t w ~wire_version ~already_done
            | None ->
                (* fresh hello. A previous incarnation with the same name
                   restarted from scratch: it is no longer live, its
                   outstanding lease is dead weight — requeue it now
                   instead of waiting for the deadline — and the death
                   counts as a strike. *)
                Hashtbl.iter
                  (fun _ old ->
                    if old.wname = name then begin
                      if old.lease <> None then begin
                        requeue_lease t old "worker restarted mid-batch";
                        strike t name "restarted mid-batch"
                      end;
                      old.last_seen <- neg_infinity
                    end)
                  t.workers;
                if Hashtbl.mem t.quarantine name then
                  Wire.Error_reply
                    (Printf.sprintf "worker %s is quarantined: %s" name
                       (Hashtbl.find t.quarantine name))
                else begin
                  t.next_wid <- t.next_wid + 1;
                  let wid = Printf.sprintf "w%03d" t.next_wid in
                  let w =
                    {
                      wid;
                      wname = name;
                      last_seen = now ();
                      lease = None;
                      completed = 0;
                      capacity = max 1 capacity;
                    }
                  in
                  Hashtbl.replace t.workers wid w;
                  t.joined <- t.joined + 1;
                  t.echo (Printf.sprintf "fleet: %s joined as %s" name wid);
                  Condition.broadcast t.cond;
                  welcome t w ~wire_version ~already_done:[]
                end))

(* Lock held: carve a batch out of the queued items. One batch holds the
   items of the oldest item's evaluation context, so the worker builds one
   target and harness per context. *)
let grab_batch t w capacity =
  let cap = max 1 (min capacity w.capacity) in
  let queued =
    Hashtbl.fold (fun _ it l -> if it.state = Queued then it :: l else l) t.items []
  in
  match List.sort (fun a b -> compare a.enqueued b.enqueued) queued with
  | [] -> None
  | first :: _ as queued ->
      let picked =
        List.filteri (fun i _ -> i < cap) (List.filter (fun it -> it.ctx = first.ctx) queued)
      in
      t.next_lid <- t.next_lid + 1;
      let lid = Printf.sprintf "l%04d" t.next_lid in
      List.iter (fun it -> it.state <- Leased lid) picked;
      w.lease <- Some { lid; items = picked; issued = now () };
      t.leases <- t.leases + 1;
      Some
        {
          Wire.lease = lid;
          context = first.ctx;
          items = List.map (fun it -> (it.key, it.text)) picked;
        }

let lease_request t ~worker ~capacity =
  Mutex.protect t.lock (fun () ->
      match find_worker t worker with
      | None -> Wire.Error_reply (Printf.sprintf "unknown worker %S (say hello first)" worker)
      | Some w when Hashtbl.mem t.quarantine w.wname ->
          Wire.Error_reply
            (Printf.sprintf "worker %s is quarantined: %s" w.wname
               (Hashtbl.find t.quarantine w.wname))
      | Some w ->
          (* a new request while a lease is outstanding means the worker
             abandoned it (fresh loop after an ack'd abandon) *)
          if w.lease <> None then requeue_lease t w "superseded by a new lease request";
          (* an empty queue long-polls for half a heartbeat *)
          let deadline = now () +. (t.opts.heartbeat_every /. 2.0) in
          let rec poll () =
            w.last_seen <- now ();
            match grab_batch t w capacity with
            | Some batch -> Wire.Lease_reply (Some batch)
            | None ->
                if (not t.alive) || now () > deadline then Wire.Lease_reply None
                else begin
                  (* long poll: the monitor tick is the timeout clock *)
                  Condition.wait t.cond t.lock;
                  poll ()
                end
          in
          poll ())

let result_push t ~worker ~lease ~results =
  Mutex.protect t.lock (fun () ->
      match find_worker t worker with
      | None -> Wire.Error_reply (Printf.sprintf "unknown worker %S (say hello first)" worker)
      | Some w ->
          w.last_seen <- now ();
          let owns_lease = match w.lease with Some l -> l.lid = lease | None -> false in
          let accepted = ref 0 and ignored = ref 0 in
          List.iter
            (fun (key, vtext) ->
              match (Hashtbl.find_opt t.items key, Verdict.verdict_of_string vtext) with
              | Some it, Some v when owns_lease && it.state = Leased lease ->
                  it.state <- Done v;
                  incr accepted
              | _ ->
                  (* duplicate delivery, stale lease, reclaimed item, or a
                     verdict that does not parse: never double-recorded,
                     never an error *)
                  incr ignored)
            results;
          w.completed <- w.completed + !accepted;
          t.accepted <- t.accepted + !accepted;
          t.ignored <- t.ignored + !ignored;
          (* auto-release: once every leased item is resolved the lease is
             spent and the worker may take the next one *)
          (match w.lease with
          | Some l
            when List.for_all
                   (fun it ->
                     match it.state with Leased lid -> lid <> l.lid | _ -> true)
                   l.items ->
              w.lease <- None
          | _ -> ());
          if !accepted > 0 then Condition.broadcast t.cond;
          Wire.Result_ack { accepted = !accepted; ignored = !ignored })

let heartbeat t ~worker ~lease ~completed =
  ignore completed;
  Mutex.protect t.lock (fun () ->
      match find_worker t worker with
      | None ->
          (* unknown id (daemon restarted): drop everything and re-hello *)
          Wire.Heartbeat_ack { abandon = true }
      | Some w ->
          w.last_seen <- now ();
          let abandon =
            Hashtbl.mem t.quarantine w.wname
            ||
            match (lease, w.lease) with
            | None, _ -> false
            | Some lid, Some l -> lid <> l.lid
            | Some _, None -> true
          in
          Wire.Heartbeat_ack { abandon })

let goodbye t ~worker =
  Mutex.protect t.lock (fun () ->
      match find_worker t worker with
      | None -> Wire.Goodbye_ack { requeued = 0 }
      | Some w ->
          (* a clean departure is not a death: it adds no strike and
             removes none *)
          let before = t.requeued_items in
          requeue_lease t w "clean goodbye";
          w.last_seen <- neg_infinity;  (* not live: do not hold up degradation *)
          t.echo (Printf.sprintf "fleet: %s (%s) left" w.wid w.wname);
          Condition.broadcast t.cond;
          Wire.Goodbye_ack { requeued = t.requeued_items - before })

(* One fleet frame -> one reply; [None] for non-fleet frames so the server
   can fall through to the campaign dispatcher. *)
let handle t = function
  | Wire.Worker_hello { name; wire_version; reconnect; capacity } ->
      Some (hello t ~name ~wire_version ~reconnect ~capacity)
  | Wire.Lease_request { worker; capacity } -> Some (lease_request t ~worker ~capacity)
  | Wire.Result_push { worker; lease; results } -> Some (result_push t ~worker ~lease ~results)
  | Wire.Heartbeat { worker; lease; completed } -> Some (heartbeat t ~worker ~lease ~completed)
  | Wire.Goodbye worker -> Some (goodbye t ~worker)
  | _ -> None

(* --------------------------------------------------------------- reports *)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        joined = t.joined;
        rejoined = t.rejoined;
        leases = t.leases;
        requeued_leases = t.requeued_leases;
        requeued_items = t.requeued_items;
        accepted = t.accepted;
        ignored = t.ignored;
        remote = t.remote;
        local_fallbacks = t.local_fallbacks;
        quarantined =
          Hashtbl.fold (fun name _ l -> name :: l) t.quarantine [] |> List.sort compare;
      })

let report t =
  let s = stats t in
  Printf.sprintf
    "fleet: %d joined (%d rejoins), %d lease(s), %d requeued (%d item(s)), results %d accepted \
     / %d ignored, %d remote / %d local evaluations%s"
    s.joined s.rejoined s.leases s.requeued_leases s.requeued_items s.accepted s.ignored
    s.remote s.local_fallbacks
    (match s.quarantined with
    | [] -> ""
    | q -> Printf.sprintf ", quarantined: %s" (String.concat ", " q))
