type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad TCP endpoint %S (want host:port)" s))
  | _ -> if s = "" then Error "empty address" else Ok (Unix_path s)

type t = {
  mutable bound : addr;
  listener : Unix.file_descr;
  scheduler : Scheduler.t;
  fleet : Fleet.t option;
  max_conns : int;
  echo : string -> unit;
  lock : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable accepting : bool;
  mutable accept_thread : Thread.t option;
  mutable stopped : bool;
}

(* One request frame -> one reply frame. Total: client mistakes become
   [Error_reply], never a handler crash. Fleet frames go to the
   dispatcher when one is attached; campaign frames to the scheduler. *)
let dispatch t frame =
  match Option.bind t.fleet (fun f -> Fleet.handle f frame) with
  | Some reply -> reply
  | None -> (
      match frame with
      | Wire.Submit spec -> (
          match Scheduler.submit t.scheduler spec with
          | Ok id -> Wire.Accepted id
          | Error why -> Wire.Error_reply why)
      | Wire.Status who -> (
          match Scheduler.status t.scheduler who with
          | Ok jobs -> Wire.Status_reply jobs
          | Error why -> Wire.Error_reply why)
      | Wire.Events { job; from } -> (
          match Scheduler.events t.scheduler ~job ~from with
          | Ok (next, events, final) -> Wire.Events_reply { next; events; final }
          | Error why -> Wire.Error_reply why)
      | Wire.Result job -> (
          match Scheduler.result t.scheduler job with
          | Ok (status, config_text, summary) ->
              Wire.Result_reply { status; config_text; summary }
          | Error why -> Wire.Error_reply why)
      | Wire.Cancel job -> Wire.Cancel_reply (Scheduler.cancel t.scheduler job)
      | Wire.Stats -> Wire.Stats_reply (Scheduler.stats t.scheduler)
      | Wire.Worker_hello _ | Wire.Lease_request _ | Wire.Result_push _
      | Wire.Heartbeat _ | Wire.Goodbye _ ->
          Wire.Error_reply "this daemon runs no fleet dispatcher; workers not accepted"
      | ( Wire.Accepted _ | Wire.Status_reply _ | Wire.Events_reply _
        | Wire.Result_reply _ | Wire.Cancel_reply _ | Wire.Stats_reply _
        | Wire.Error_reply _ | Wire.Worker_welcome _ | Wire.Lease_reply _
        | Wire.Result_ack _ | Wire.Heartbeat_ack _ | Wire.Goodbye_ack _ ) as f ->
          Wire.Error_reply
            (Printf.sprintf "protocol violation: server-to-client frame %s sent by client"
               (match f with
               | Wire.Accepted _ -> "Accepted"
               | Wire.Status_reply _ -> "Status_reply"
               | Wire.Events_reply _ -> "Events_reply"
               | Wire.Result_reply _ -> "Result_reply"
               | Wire.Cancel_reply _ -> "Cancel_reply"
               | Wire.Stats_reply _ -> "Stats_reply"
               | Wire.Worker_welcome _ -> "Worker_welcome"
               | Wire.Lease_reply _ -> "Lease_reply"
               | Wire.Result_ack _ -> "Result_ack"
               | Wire.Heartbeat_ack _ -> "Heartbeat_ack"
               | Wire.Goodbye_ack _ -> "Goodbye_ack"
               | _ -> "Error_reply")))

let handle t fd peer =
  let alive = ref true in
  while !alive do
    match Wire.read_frame fd with
    | Ok frame -> (
        let reply = try dispatch t frame with e ->
          Wire.Error_reply (Printf.sprintf "internal error: %s" (Printexc.to_string e))
        in
        try Wire.write_frame fd reply with Unix.Unix_error _ -> alive := false)
    | Error (Wire.Need_more _) ->
        (* clean EOF between frames: the client hung up *)
        alive := false
    | Error err ->
        t.echo (Printf.sprintf "%s: dropping connection: %s" peer
             (Wire.error_to_string err));
        (try Wire.write_frame fd (Wire.Error_reply (Wire.error_to_string err))
         with Unix.Unix_error _ -> ());
        alive := false
  done

let forget t fd =
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun (fd', _) -> fd' != fd) t.conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The loop polls [accepting] via a select timeout: closing a file
   descriptor does NOT wake a thread already blocked in accept(2), so a
   plain blocking accept would wedge {!stop} forever. *)
let accept_loop t =
  let n = ref 0 in
  while t.accepting do
    match
      (match Unix.select [ t.listener ] [] [] 0.2 with
      | [], _, _ -> None
      | _ -> Some (Unix.accept t.listener))
    with
    | None -> ()
    | exception
        Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED | Unix.EINTR), _, _)
      ->
        (* stop closed the listener under us, a connection died between
           select and accept, or a signal interrupted the accept — either
           way, re-check [accepting] and try again *)
        ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _) ->
        (* out of descriptors: we cannot even accept, so there is no fd to
           send a typed shed frame on. Breathe and retry — existing
           connections keep draining, and the soft [max_conns] limit below
           sheds with a typed frame before the hard limit is ever hit. *)
        t.echo
          (Printf.sprintf "accept: out of descriptors (%s); backing off"
             (Unix.error_message e));
        Thread.delay 0.05
    | Some (fd, _) ->
        let shed =
          Mutex.protect t.lock (fun () -> List.length t.conns >= t.max_conns)
        in
        if shed then begin
          (* soft descriptor limit: refuse with a typed error frame
             instead of letting accept(2) run the process into EMFILE *)
          t.echo "shedding connection: at the connection limit";
          (try
             Wire.write_frame fd
               (Wire.Error_reply "server is at its connection limit; retry later")
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          incr n;
          let peer = Printf.sprintf "client#%d" !n in
          t.echo (Printf.sprintf "%s: connected" peer);
          let th =
            Thread.create
              (fun () ->
                (try handle t fd peer
                 with e ->
                   t.echo
                     (Printf.sprintf "%s: handler died: %s" peer (Printexc.to_string e)));
                forget t fd;
                t.echo (Printf.sprintf "%s: disconnected" peer))
              ()
          in
          Mutex.protect t.lock (fun () ->
              if t.accepting then t.conns <- (fd, th) :: t.conns)
        end
  done

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "getaddrinfo", host)))
      in
      Unix.ADDR_INET (ip, port)

let start ?(log = ignore) ?fleet ?(max_conns = 64) ~scheduler addr =
  (* a write to a peer that died mid-frame (a SIGKILLed worker, a gone
     client) must surface as EPIPE — which every write here handles — not
     as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match addr with
  | Unix_path p when Sys.file_exists p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (sockaddr_of addr);
     Unix.listen listener 16
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound =
    match (addr, Unix.getsockname listener) with
    | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | _ -> addr
  in
  let t =
    {
      bound;
      listener;
      scheduler;
      fleet;
      max_conns = max 1 max_conns;
      echo = log;
      lock = Mutex.create ();
      conns = [];
      accepting = true;
      accept_thread = None;
      stopped = false;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  log (Printf.sprintf "listening on %s" (addr_to_string bound));
  t

let addr t = t.bound

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    t.accepting <- false;
    (* the accept loop notices within one select timeout *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun (fd, _) ->
        (* wakes the handler's blocking read with EOF *)
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    match t.bound with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end
