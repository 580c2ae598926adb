(* The exact bytes of the wire protocol. [frames] names one value of every
   frame constructor — every v1 campaign frame, every v2 fleet frame, both
   [Lease_reply] cases and a [Result_push] carrying each verdict token —
   and fixture lines are [<name> <hex of Wire.encode>]. The copy committed
   as frames.txt pins what the codec emits; the server suite re-encodes
   the frames and compares byte for byte, and decodes every line back. *)

let spec =
  {
    Wire.bench = "cg";
    cls = "W";
    shadow = false;
    priority = 0;
    eval_steps = None;
    formats = "";
    strategy = "";
  }

let spec_full =
  {
    Wire.bench = "mg";
    cls = "A";
    shadow = true;
    priority = -3;
    eval_steps = Some 120000;
    formats = "bf16,f16,single";
    strategy = "anneal:7";
  }

let status id spec state =
  { Wire.id; spec; state; tested = 45; store_hits = 3; store_misses = 42; wall = 1.25 }

let batch =
  {
    Wire.lease = "l0007";
    context =
      {
        bench = "cg";
        cls = "W";
        eval_steps = Some 2000000;
        retries = 2;
        inject = None;
        deadline = None;
      };
    items = [ ("a1b2c3d4e5f60718", "e8m23 MODULE: cg\n"); ("0011223344556677", "") ];
  }

let frames =
  [
    (* v1: campaign client -> server *)
    ("v1.submit", Wire.Submit spec);
    ("v1.submit.full", Wire.Submit spec_full);
    ("v1.status.all", Wire.Status None);
    ("v1.status.one", Wire.Status (Some "j0001"));
    ("v1.events", Wire.Events { job = "j0001"; from = 17 });
    ("v1.result", Wire.Result "j0001");
    ("v1.cancel", Wire.Cancel "j0002");
    ("v1.stats", Wire.Stats);
    (* v1: server -> client *)
    ("v1.accepted", Wire.Accepted "j0003");
    ( "v1.status_reply",
      Wire.Status_reply
        [
          status "j0001" spec Wire.Queued;
          status "j0002" spec_full Wire.Running;
          status "j0003" spec Wire.Done;
          status "j0004" spec Wire.Cancelled;
          status "j0005" spec (Wire.Failed "cannot resolve");
          status "j0006" spec (Wire.Quarantined "driver died 2 time(s)");
        ] );
    ( "v1.events_reply",
      Wire.Events_reply { next = 3; events = [ "RUNNING cg.W"; "EVAL pass x"; "" ]; final = true }
    );
    ( "v1.result_reply",
      Wire.Result_reply
        {
          status = status "j0001" spec Wire.Done;
          config_text = "e8m23 MODULE: cg\n";
          summary = "tested 45 (3 from store), final pass";
        } );
    ("v1.cancel_reply", Wire.Cancel_reply true);
    ( "v1.stats_reply",
      Wire.Stats_reply
        {
          Wire.submitted = 7;
          completed = 4;
          failed = 1;
          cancelled = 1;
          running = 1;
          queued = 0;
          store = { Wire.hits = 12; misses = 88; entries = 88 };
          cache_hits = 900;
          cache_misses = 64;
          uptime = 12.5;
        } );
    ("v1.error_reply", Wire.Error_reply "unknown job \"j9\"");
    (* v2: worker -> server *)
    ( "v2.worker_hello",
      Wire.Worker_hello { name = "host/42"; wire_version = 2; reconnect = None; capacity = 4 } );
    ( "v2.worker_hello.rejoin",
      Wire.Worker_hello { name = "host/42"; wire_version = 2; reconnect = Some "w3"; capacity = 1 }
    );
    ("v2.lease_request", Wire.Lease_request { worker = "w3"; capacity = 4 });
    ( "v2.result_push",
      Wire.Result_push
        {
          worker = "w3";
          lease = "l0007";
          results =
            List.mapi
              (fun i v -> (Printf.sprintf "%016x" i, Verdict.verdict_to_string v))
              [
                Verdict.Pass;
                Verdict.Fail_verify;
                Verdict.Trapped (0x2a, "replaced operand reaches a double-precision op");
                Verdict.Step_timeout;
                Verdict.Crashed "boom: 50% | odd";
                Verdict.Pruned "shadow: 1e-3 > bound";
              ];
        } );
    ("v2.heartbeat", Wire.Heartbeat { worker = "w3"; lease = Some "l0007"; completed = 1 });
    ("v2.heartbeat.idle", Wire.Heartbeat { worker = "w3"; lease = None; completed = 0 });
    ("v2.goodbye", Wire.Goodbye "w3");
    (* v2: server -> worker *)
    ( "v2.worker_welcome",
      Wire.Worker_welcome
        {
          worker = "w3";
          wire_version = 2;
          heartbeat_every = 0.5;
          lease_ttl = 5.0;
          already_done = [ "a1b2c3d4e5f60718" ];
        } );
    ("v2.lease_reply.none", Wire.Lease_reply None);
    ("v2.lease_reply.batch", Wire.Lease_reply (Some batch));
    ("v2.result_ack", Wire.Result_ack { accepted = 5; ignored = 1 });
    ("v2.heartbeat_ack", Wire.Heartbeat_ack { abandon = false });
    ("v2.goodbye_ack", Wire.Goodbye_ack { requeued = 2 });
  ]

let hex bytes =
  String.concat ""
    (List.init (Bytes.length bytes) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get bytes i))))

let of_hex s =
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let record () =
  String.concat ""
    (List.map (fun (name, f) -> Printf.sprintf "%s %s\n" name (hex (Wire.encode f))) frames)
