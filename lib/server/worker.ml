exception Conn_lost of string
exception Drained  (* internal unwind: stop () asked us to leave cleanly *)

type stats = {
  evaluated : int;
  pushed : int;
  skipped : int;  (* delta-synced away, or unresolvable (never fabricated) *)
  batches : int;
  rejoins : int;
}

type st = {
  mutable wid : string option;  (* reconnect token once welcomed *)
  mutable batch : Wire.batch option;
  mutable pending : (string * string) list;
  mutable completed : int;  (* items pushed in the current batch *)
  mutable in_batch : int;  (* items evaluated in the current batch *)
  mutable plan : Chaos.action option;
  mutable kill_after : int;
  mutable stalled : bool;  (* per-batch one-shot chaos triggers *)
  mutable garbaged : bool;
  skip : (string, unit) Hashtbl.t;  (* keys resolved while we were away *)
  mutable evaluated : int;
  mutable pushed : int;
  mutable skipped : int;
  mutable batches : int;
  mutable rejoins : int;
}

(* not a Wire frame: raw junk whose version byte can never be valid *)
let junk = Bytes.of_string "\x00\x00\x00\x04\xee\xee\xee\xee"

let now () = Unix.gettimeofday ()

let run ?name ?(capacity = 4) ?chaos ?(log = ignore) ?(stop = fun () -> false) ~resolve addr =
  (* a daemon that dies mid-frame must surface as EPIPE (-> Conn_lost ->
     rejoin), not as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let name =
    match name with Some n -> n | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
  in
  let rng = Rng.create (Hashtbl.hash ("worker", name)) in
  let cache = Compile.create_cache () in
  let targets = Hashtbl.create 4 in
  let st =
    {
      wid = None;
      batch = None;
      pending = [];
      completed = 0;
      in_batch = 0;
      plan = None;
      kill_after = max_int;
      stalled = false;
      garbaged = false;
      skip = Hashtbl.create 32;
      evaluated = 0;
      pushed = 0;
      skipped = 0;
      batches = 0;
      rejoins = 0;
    }
  in
  let stats () =
    {
      evaluated = st.evaluated;
      pushed = st.pushed;
      skipped = st.skipped;
      batches = st.batches;
      rejoins = st.rejoins;
    }
  in
  (* one harnessed target per evaluation context, reused across leases *)
  let target_for (ctx : Wire.context) =
    match Hashtbl.find_opt targets ctx with
    | Some r -> r
    | None ->
        let r = Result.map (Campaign.target ~cache ctx) (resolve ~bench:ctx.bench ~cls:ctx.cls) in
        Hashtbl.replace targets ctx r;
        r
  in
  let eval_item (ctx : Wire.context) key text =
    match target_for ctx with
    | Error why ->
        log (Printf.sprintf "%s: cannot build %s.%s: %s" name ctx.bench ctx.cls why);
        None
    | Ok (_, _, (target : Bfs.Target.t)) -> (
        match Config.parse target.program text with
        | Error why ->
            (* never fabricate a verdict for a config we cannot even
               parse; the daemon requeues it when the lease expires *)
            log (Printf.sprintf "%s: unparseable config %s: %s" name key why);
            None
        | Ok cfg -> Some (target.eval cfg))
  in
  let drop_batch () =
    st.batch <- None;
    st.pending <- [];
    st.completed <- 0;
    st.in_batch <- 0;
    st.plan <- None;
    st.kill_after <- max_int;
    st.stalled <- false;
    st.garbaged <- false
  in
  let session fd wid hb_every =
    let rpc frame =
      (try Wire.write_frame fd frame
       with Unix.Unix_error (e, fn, _) ->
         raise (Conn_lost (Printf.sprintf "%s: %s" fn (Unix.error_message e))));
      match Wire.read_frame fd with
      | Ok f -> f
      | Error e -> raise (Conn_lost (Wire.error_to_string e))
      | exception Unix.Unix_error (e, fn, _) ->
          raise (Conn_lost (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
    in
    let lease_id () = Option.map (fun b -> b.Wire.lease) st.batch in
    let last_hb = ref (now ()) in
    let heartbeat_if_due () =
      if now () -. !last_hb >= hb_every then begin
        last_hb := now ();
        match rpc (Wire.Heartbeat { worker = wid; lease = lease_id (); completed = st.completed }) with
        | Wire.Heartbeat_ack { abandon = true } ->
            log (Printf.sprintf "%s: daemon abandoned our lease; dropping batch" name);
            drop_batch ()
        | Wire.Heartbeat_ack _ -> ()
        | Wire.Error_reply why -> raise (Conn_lost why)
        | _ -> raise (Conn_lost "unexpected heartbeat reply")
      end
    in
    let push b key verdict =
      let frame =
        Wire.Result_push
          {
            worker = wid;
            lease = b.Wire.lease;
            results = [ (key, Verdict.verdict_to_string verdict) ];
          }
      in
      let send () =
        match rpc frame with
        | Wire.Result_ack { accepted; _ } -> st.pushed <- st.pushed + accepted
        | Wire.Error_reply why -> raise (Conn_lost why)
        | _ -> raise (Conn_lost "unexpected push reply")
      in
      send ();
      if st.plan = Some Chaos.Dup then send ()
    in
    while true do
      if stop () then begin
        (match rpc (Wire.Goodbye wid) with
        | Wire.Goodbye_ack { requeued } ->
            if requeued > 0 then
              log (Printf.sprintf "%s: left, %d item(s) requeued" name requeued)
        | _ -> ());
        raise Drained
      end;
      heartbeat_if_due ();
      match st.pending with
      | [] -> (
          st.batch <- None;
          match rpc (Wire.Lease_request { worker = wid; capacity }) with
          | Wire.Lease_reply None -> Thread.delay 0.005
          | Wire.Lease_reply (Some b) ->
              st.batch <- Some b;
              st.pending <- b.Wire.items;
              st.completed <- 0;
              st.in_batch <- 0;
              st.stalled <- false;
              st.garbaged <- false;
              st.batches <- st.batches + 1;
              st.plan <-
                (match chaos with
                | None -> None
                | Some c -> Chaos.draw c ~key:(name ^ "/" ^ b.Wire.lease));
              st.kill_after <-
                (match st.plan with
                | Some Chaos.Kill -> max 1 (List.length b.Wire.items / 2)
                | _ -> max_int);
              Option.iter
                (fun a ->
                  log
                    (Printf.sprintf "%s: chaos draws %s for lease %s" name
                       (Chaos.action_name a) b.Wire.lease))
                st.plan
          | Wire.Error_reply why -> raise (Conn_lost why)
          | _ -> raise (Conn_lost "unexpected lease reply"))
      | (key, text) :: rest ->
          let b = match st.batch with Some b -> b | None -> assert false in
          if Hashtbl.mem st.skip key then begin
            (* delta sync: resolved while we were away *)
            st.pending <- rest;
            st.skipped <- st.skipped + 1
          end
          else begin
            match eval_item b.Wire.context key text with
            | None ->
                st.pending <- rest;
                st.skipped <- st.skipped + 1
            | Some verdict ->
                st.evaluated <- st.evaluated + 1;
                st.in_batch <- st.in_batch + 1;
                if st.in_batch >= st.kill_after then begin
                  (* simulated SIGKILL: no goodbye, no push, state gone *)
                  log (Printf.sprintf "%s: chaos kill mid-batch (lease %s)" name b.Wire.lease);
                  raise Chaos.Killed
                end;
                (match (st.plan, chaos) with
                | Some Chaos.Stall, Some c when not st.stalled ->
                    (* stall {e before} the push: the daemon's deadline
                       sweep requeues our lease during the silence, and
                       the push below arrives stale — which the daemon
                       must ignore, not double-record *)
                    st.stalled <- true;
                    log (Printf.sprintf "%s: chaos stall %.1fs (lease %s)" name
                           (Chaos.stall_for c) b.Wire.lease);
                    (* single-threaded: sleeping also suppresses heartbeats *)
                    Thread.delay (Chaos.stall_for c)
                | _ -> ());
                push b key verdict;
                st.pending <- rest;
                st.completed <- st.completed + 1;
                (match st.plan with
                | Some Chaos.Garbage when not st.garbaged ->
                    st.garbaged <- true;
                    log (Printf.sprintf "%s: chaos garbage frame (lease %s)" name b.Wire.lease);
                    (try ignore (Unix.write fd junk 0 (Bytes.length junk))
                     with Unix.Unix_error _ -> ())
                    (* the daemon's total decoder will drop us; the next
                       rpc raises Conn_lost and we rejoin with the token *)
                | _ -> ())
          end
    done
  in
  let rec connect_loop () =
    if stop () then stats ()
    else
      match Client.reach rng addr with
      | Error why ->
          log (Printf.sprintf "%s: giving up: %s" name why);
          stats ()
      | Ok fd -> (
          let cleanup () = try Unix.close fd with Unix.Unix_error _ -> () in
          match
            Wire.write_frame fd
              (Wire.Worker_hello
                 { name; wire_version = Wire.version; reconnect = st.wid; capacity });
            Wire.read_frame fd
          with
          | exception Unix.Unix_error (_, _, _) ->
              cleanup ();
              Thread.delay (0.05 *. (0.5 +. Rng.uniform rng));
              connect_loop ()
          | Error _ ->
              cleanup ();
              Thread.delay (0.05 *. (0.5 +. Rng.uniform rng));
              connect_loop ()
          | Ok (Wire.Error_reply why) ->
              (* quarantined or version-refused: terminal *)
              log (Printf.sprintf "%s: daemon refused us: %s" name why);
              cleanup ();
              stats ()
          | Ok (Wire.Worker_welcome { worker; heartbeat_every; already_done; _ }) -> (
              if st.wid <> None then begin
                st.rejoins <- st.rejoins + 1;
                log
                  (Printf.sprintf "%s: rejoined as %s, %d item(s) delta-synced" name worker
                     (List.length already_done))
              end
              else log (Printf.sprintf "%s: joined as %s" name worker);
              st.wid <- Some worker;
              List.iter (fun k -> Hashtbl.replace st.skip k ()) already_done;
              match session fd worker heartbeat_every with
              | () -> assert false
              | exception Drained ->
                  cleanup ();
                  stats ()
              | exception Conn_lost why ->
                  log (Printf.sprintf "%s: connection lost (%s); rejoining" name why);
                  cleanup ();
                  connect_loop ()
              | exception Chaos.Killed ->
                  cleanup ();
                  raise Chaos.Killed)
          | Ok _ ->
              cleanup ();
              log (Printf.sprintf "%s: unexpected hello reply; retrying" name);
              Thread.delay (0.05 *. (0.5 +. Rng.uniform rng));
              connect_loop ())
  in
  connect_loop ()
