type t = {
  addr : Server.addr;
  rng : Rng.t;  (* backoff jitter: keep reconnecting clients desynchronised *)
  lock : Mutex.t;
  mutable fd : Unix.file_descr option;
  mutable open_ : bool;
}

(* cap on total backoff per call: how long one call rides a daemon
   restart before it gives up *)
let retry_wall = 30.0

(* [watch]/[wait] polling period when the job has nothing new *)
let poll = 0.05

let dial addr =
  let domain =
    match addr with Server.Unix_path _ -> Unix.PF_UNIX | Server.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Server.sockaddr_of addr) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

let reach rng addr =
  let rec go attempt delay =
    match dial addr with
    | Ok fd -> Ok fd
    | Error e ->
        if attempt >= 5 then
          Error
            (Printf.sprintf "cannot connect to %s: %s"
               (Server.addr_to_string addr) (Unix.error_message e))
        else begin
          Thread.delay (delay *. (0.5 +. Rng.uniform rng));
          go (attempt + 1) (delay *. 2.0)
        end
  in
  go 0 0.2

let connect addr =
  (* a client writing to a daemon that just died must see EPIPE (and ride
     the restart via the retry loop), not die of a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rng = Rng.create (Hashtbl.hash (Unix.getpid (), Server.addr_to_string addr)) in
  Result.map
    (fun fd -> { addr; rng; lock = Mutex.create (); fd = Some fd; open_ = true })
    (reach rng addr)

let drop_fd t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close t =
  if t.open_ then begin
    t.open_ <- false;
    drop_fd t
  end

(* Every frame a campaign client sends is a read-only query except Submit
   (re-sending it would enqueue the campaign twice) — even Cancel: the
   daemon either knows the job id or not, and cancelling twice equals
   cancelling once. Idempotent requests may be resubmitted after a
   transport failure, which is what lets a watching client ride through a
   daemon restart. *)
let idempotent = function Wire.Submit _ -> false | _ -> true

(* One request/reply exchange. Serialised: the protocol has no frame ids,
   so interleaved requests would pair with the wrong replies.

   Retry discipline: the dial and the write phase always retry — with
   jittered exponential backoff against a reconnect stampede
   (ECONNREFUSED while the daemon restarts, EPIPE on a stale fd), capped
   by [retry_wall] of total backoff so a dead daemon fails the call in
   bounded time. A failure {e after} the request was written retries only
   an {!idempotent} frame: the daemon may already have executed the
   request, and resubmitting a non-idempotent one (Submit) would double
   it. *)
let exchange t frame =
  Mutex.protect t.lock (fun () ->
      if not t.open_ then Error "connection is closed"
      else begin
        let deadline = Unix.gettimeofday () +. retry_wall in
        let backoff delay why fn =
          let pause = delay *. (0.5 +. Rng.uniform t.rng) in
          if Unix.gettimeofday () +. pause > deadline then
            Error (Printf.sprintf "%s: %s (gave up after %.0fs of retries)" fn why retry_wall)
          else begin
            Thread.delay pause;
            Ok (delay *. 2.0)
          end
        in
        let rec attempt delay =
          match t.fd with
          | None -> (
              match dial t.addr with
              | Ok fd ->
                  t.fd <- Some fd;
                  attempt delay
              | Error e -> (
                  match backoff delay (Unix.error_message e) "connect" with
                  | Ok delay -> attempt delay
                  | Error _ as err -> err))
          | Some fd -> (
              match Wire.write_frame fd frame with
              | exception Unix.Unix_error (e, fn, _) -> (
                  (* the frame never fully left: safe to reconnect and
                     retry even a non-idempotent request *)
                  drop_fd t;
                  match backoff delay (Unix.error_message e) fn with
                  | Ok delay -> attempt delay
                  | Error _ as err -> err)
              | () -> (
                  let lost why fn =
                    drop_fd t;
                    if idempotent frame then
                      match backoff delay why fn with
                      | Ok delay -> attempt delay
                      | Error _ as err -> err
                    else Error (Printf.sprintf "%s: %s" fn why)
                  in
                  match Wire.read_frame fd with
                  | Ok reply -> Ok reply
                  | Error err -> lost (Wire.error_to_string err) "read"
                  | exception Unix.Unix_error (e, fn, _) ->
                      lost (Unix.error_message e ^ " (server gone?)") fn))
        in
        attempt 0.05
      end)

let unexpected what = Error (Printf.sprintf "unexpected reply to %s" what)

let submit t spec =
  match exchange t (Wire.Submit spec) with
  | Ok (Wire.Accepted id) -> Ok id
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "submit"

let status ?job t =
  match exchange t (Wire.Status job) with
  | Ok (Wire.Status_reply jobs) -> Ok jobs
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "status"

let result t job =
  match exchange t (Wire.Result job) with
  | Ok (Wire.Result_reply { status; config_text; summary }) -> Ok (status, config_text, summary)
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "result"

(* A daemon restart mid-stream costs reconnect time inside [exchange],
   never the stream: a recovered daemon knows the job (its WAL re-listed
   it) and resets a cursor past the end of the rebuilt event log. *)
let watch t ~job emit =
  let rec go cursor =
    match exchange t (Wire.Events { job; from = cursor }) with
    | Ok (Wire.Events_reply { next; events; final }) ->
        List.iter emit events;
        if final then Ok next
        else begin
          if events = [] then Thread.delay poll;
          go next
        end
    | Ok (Wire.Error_reply why) | Error why -> Error why
    | Ok _ -> unexpected "events"
  in
  go 0

let rec wait t job =
  match status ~job t with
  | Ok [ { Wire.state; _ } ] when Wal.is_terminal state -> result t job
  | Ok _ ->
      Thread.delay poll;
      wait t job
  | Error why -> Error why

let cancel t job =
  match exchange t (Wire.Cancel job) with
  | Ok (Wire.Cancel_reply ok) -> Ok ok
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "cancel"

let stats t =
  match exchange t Wire.Stats with
  | Ok (Wire.Stats_reply s) -> Ok s
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "stats"
