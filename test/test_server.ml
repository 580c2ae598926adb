(* End-to-end tests for the campaign server: the cross-campaign result
   store (memoization + in-flight dedup + exception withdrawal), the
   scheduler (identical finals vs inline search, store-served duplicate
   campaigns, priorities, cancellation, poison-job quarantine), and the
   socket daemon with the typed client (including a hostile peer). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* A controllable benchmark bundle: [n_ops] chains, the [poison] subset
   must stay double (see Test_search.synthetic); [delay] slows every
   verification down so jobs stay running long enough to race. *)
let synthetic_kernel ?(name = "syn.W") ?(delay = 0.0) ~n_ops ~poison () =
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
  {
    Kernel.name;
    program;
    setup = (fun _ -> ());
    output = (fun vm -> Vm.read_f vm out n_ops);
    verify =
      (fun res ->
        if delay > 0.0 then Thread.delay delay;
        res = reference);
    reference;
    hints = Config.empty;
    comm_bytes = (fun ~ranks:_ _ -> 0.0);
  }

let default_spec =
  { Wire.bench = "syn"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }

let with_stack ?(workers = 2) ?options ~resolve f =
  let pool = Pool.create ~options:{ Pool.default_options with workers } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let sched = Scheduler.create ?options ~resolve ~pool ~cache ~store () in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched ~cancel_running:true ();
      Pool.shutdown pool)
    (fun () -> f sched store)

(* ------------------------------------------------------------------ store *)

let test_store_memoizes () =
  let store = Store.create () in
  let computed = ref 0 in
  let f () =
    incr computed;
    Verdict.Pass
  in
  let v1, served1 = Store.find_or_compute store ~key:"k" f in
  let v2, served2 = Store.find_or_compute store ~key:"k" f in
  checkb "first is computed" false served1;
  checkb "second is served" true served2;
  checkb "verdicts equal" true (v1 = v2);
  checki "computed once" 1 !computed;
  let s = Store.stats store in
  checki "one hit" 1 s.Store.hits;
  checki "one miss" 1 s.Store.misses;
  checki "one entry" 1 s.Store.entries;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Store.hit_rate s)

let test_store_inflight_dedup () =
  let store = Store.create () in
  let computed = ref 0 in
  let f () =
    incr computed;
    Thread.delay 0.05;
    Verdict.Pass
  in
  let served = Array.make 8 false in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let _, s = Store.find_or_compute store ~key:"k" f in
            served.(i) <- s)
          ())
  in
  List.iter Thread.join threads;
  checki "computed exactly once" 1 !computed;
  checki "seven served" 7 (Array.fold_left (fun n s -> if s then n + 1 else n) 0 served);
  let s = Store.stats store in
  checkb "waiters counted" true (s.Store.waits >= 1)

let test_store_withdraws_on_exception () =
  let store = Store.create () in
  (match Store.find_or_compute store ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* the pending claim was withdrawn: the next requester computes *)
  let v, served = Store.find_or_compute store ~key:"k" (fun () -> Verdict.Pass) in
  checkb "recomputed after failure" false served;
  checkb "pass" true (v = Verdict.Pass)

(* waiters blocked on an in-flight computation that *fails*: the withdrawn
   claim must wake them, exactly one re-claims and recomputes, and the
   rest dedup onto that recomputation — nobody deadlocks, nobody sees the
   exception, and the key is computed successfully exactly once *)
let test_store_withdraw_under_concurrent_waiters () =
  let store = Store.create () in
  let recomputed = ref 0 in
  let failed = ref false in
  let first =
    Thread.create
      (fun () ->
        match
          Store.find_or_compute store ~key:"k" (fun () ->
              Thread.delay 0.05;
              failwith "boom")
        with
        | _ -> ()
        | exception Failure _ -> failed := true)
      ()
  in
  Thread.delay 0.01 (* let the doomed computation claim the key first *);
  let results = Array.make 6 None in
  let waiters =
    List.init 6 (fun i ->
        Thread.create
          (fun () ->
            let v, served =
              Store.find_or_compute store ~key:"k" (fun () ->
                  incr recomputed;
                  Verdict.Pass)
            in
            results.(i) <- Some (v, served))
          ())
  in
  Thread.join first;
  List.iter Thread.join waiters;
  checkb "the claiming thread saw its exception" true !failed;
  checki "exactly one waiter recomputed" 1 !recomputed;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Verdict.Pass, _) -> ()
      | Some _ -> Alcotest.failf "waiter %d got a wrong verdict" i
      | None -> Alcotest.failf "waiter %d never resolved" i)
    results;
  checki "five waiters served by the recomputation" 5
    (Array.fold_left
       (fun n r -> match r with Some (_, true) -> n + 1 | _ -> n)
       0 results);
  let s = Store.stats store in
  checki "one entry despite the failure" 1 s.Store.entries

(* -------------------------------------------------------------- scheduler *)

let wait_running sched id =
  let rec go n =
    if n > 2000 then Alcotest.failf "%s never started" id;
    match Scheduler.status sched (Some id) with
    | Ok [ { Wire.state = Wire.Running; _ } ] -> ()
    | _ ->
        Thread.delay 0.005;
        go (n + 1)
  in
  go 0

let wait_done sched id =
  let rec go n =
    if n > 4000 then Alcotest.failf "%s never finished" id;
    match Scheduler.result sched id with
    | Ok r -> r
    | Error _ ->
        Thread.delay 0.005;
        go (n + 1)
  in
  go 0

let test_identical_campaigns_identical_finals () =
  let k = synthetic_kernel ~n_ops:6 ~poison:[ 1; 4 ] () in
  let inline = Bfs.search (Kernel.target k) in
  let inline_text = Config.print k.Kernel.program inline.Bfs.final in
  with_stack ~resolve:(fun _ -> Ok k) (fun sched store ->
      let a = Result.get_ok (Scheduler.submit sched default_spec) in
      let _, text_a, _ = wait_done sched a in
      let b = Result.get_ok (Scheduler.submit sched default_spec) in
      let status_b, text_b, _ = wait_done sched b in
      checkb "job A final = inline final" true (String.equal text_a inline_text);
      checkb "job B final = inline final" true (String.equal text_b inline_text);
      (* B ran strictly after A: every one of its evaluations is a store hit *)
      checki "B entirely served from the store" status_b.Wire.tested
        status_b.Wire.store_hits;
      checkb "B tested something" true (status_b.Wire.tested > 0);
      let s = Store.stats store in
      checki "store entries = unique evaluations" s.Store.misses s.Store.entries)

let test_concurrent_campaigns_evaluate_once () =
  let k = synthetic_kernel ~delay:0.002 ~n_ops:5 ~poison:[ 2 ] () in
  with_stack ~resolve:(fun _ -> Ok k) (fun sched store ->
      let a = Result.get_ok (Scheduler.submit sched default_spec) in
      let b = Result.get_ok (Scheduler.submit sched default_spec) in
      let _, text_a, _ = wait_done sched a in
      let _, text_b, _ = wait_done sched b in
      checkb "same final configuration" true (String.equal text_a text_b);
      let s = Store.stats store in
      (* in-flight dedup: byte-identical racing campaigns never evaluate a
         key twice, so every store entry was computed exactly once *)
      checki "every unique key computed once" s.Store.misses s.Store.entries;
      checkb "the racing campaign was served" true (s.Store.hits > 0))

(* A NAS kernel's program is the same at every class, so the store key
   names the input: an ep.A campaign after an ep.W one on the same store
   is served none of W's verdicts and ends on ep.A's run-alone final. *)
let test_store_keys_the_input () =
  let resolve (spec : Wire.job_spec) =
    match spec.Wire.cls with
    | "W" -> Ok (Nas_ep.make Kernel.W)
    | "A" -> Ok (Nas_ep.make Kernel.A)
    | cls -> Error cls
  in
  let run sched cls =
    let id = Result.get_ok (Scheduler.submit sched { default_spec with Wire.bench = "ep"; cls }) in
    wait_done sched id
  in
  let alone, alone_text, _ = with_stack ~resolve (fun sched _ -> run sched "A") in
  with_stack ~resolve (fun sched store ->
      let _ = run sched "W" in
      let after_w = (Store.stats store).Store.entries in
      let status, text, _ = run sched "A" in
      checkb "ep.W filled the store" true (after_w > 0);
      checkb "ep.A final = ep.A run alone" true (String.equal alone_text text);
      checki "tested as run alone" alone.Wire.tested status.Wire.tested;
      checki "store hits as run alone" alone.Wire.store_hits status.Wire.store_hits)

(* The daemon and [craft search] run a spec through the one recipe, so a
   served shadow-guided campaign prunes like an inline one: cg.W tests 27
   configurations (6 pruned) both ways and ends on the same final. *)
let test_served_shadow_equals_inline () =
  let k = Nas_cg.make Kernel.W in
  let spec = { default_spec with Wire.bench = "cg"; shadow = true } in
  let campaign = Result.get_ok (Campaign.of_spec spec) in
  let inline = Campaign.run ~workers:1 k campaign (Kernel.target k) in
  checki "inline tested" 27 inline.Bfs.tested;
  checki "inline pruned" 6 inline.Bfs.pruned;
  let options = { Scheduler.default_options with wave_width = 2 } in
  with_stack ~options ~resolve:(fun _ -> Ok k) (fun sched _ ->
      let id = Result.get_ok (Scheduler.submit sched spec) in
      let status, text, _ = wait_done sched id in
      checkb "done" true (status.Wire.state = Wire.Done);
      checki "served tested = inline tested" inline.Bfs.tested status.Wire.tested;
      Alcotest.(check string)
        "served final = inline final"
        (Config.print k.Kernel.program inline.Bfs.final)
        text)

let test_priorities_and_cancel () =
  let k = synthetic_kernel ~delay:0.01 ~n_ops:6 ~poison:[ 0 ] () in
  let log_lock = Mutex.create () in
  let log_lines = ref [] in
  let log s = Mutex.protect log_lock (fun () -> log_lines := s :: !log_lines) in
  let options = { Scheduler.default_options with max_concurrent = 1 } in
  let pool = Pool.create ~options:{ Pool.default_options with workers = 2 } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let sched =
    Scheduler.create ~options ~log ~resolve:(fun _ -> Ok k) ~pool ~cache ~store ()
  in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched ~cancel_running:true ();
      Pool.shutdown pool)
    (fun () ->
      let a = Result.get_ok (Scheduler.submit sched default_spec) in
      (* make sure the single runner is busy with A before queueing the
         contenders, or A itself would lose the priority pick *)
      wait_running sched a;
      let low = Result.get_ok (Scheduler.submit sched default_spec) in
      let high =
        Result.get_ok (Scheduler.submit sched { default_spec with Wire.priority = 5 })
      in
      let cancelled = Result.get_ok (Scheduler.submit sched default_spec) in
      checkb "queued job cancels" true (Scheduler.cancel sched cancelled);
      checkb "unknown job does not cancel" false (Scheduler.cancel sched "j9999");
      let _ = wait_done sched a in
      let _ = wait_done sched low in
      let _ = wait_done sched high in
      Scheduler.wait_idle sched;
      (* with one runner, the high-priority job must start before the
         low-priority one submitted ahead of it *)
      let running_order =
        List.rev !log_lines
        |> List.filter_map (fun l ->
               match String.index_opt l ':' with
               | Some i
                 when String.length l > i + 2
                      && String.sub l (i + 2) (min 7 (String.length l - i - 2))
                         = "RUNNING" ->
                   Some (String.sub l 0 i)
               | _ -> None)
      in
      (match running_order with
      | [ _; second; third ] ->
          checkb "high priority ran second" true (String.equal second high);
          checkb "low priority ran last" true (String.equal third low)
      | o -> Alcotest.failf "expected 3 RUNNING lines, got %d" (List.length o));
      (match Scheduler.result sched cancelled with
      | Ok (st, _, _) -> checkb "cancelled state" true (st.Wire.state = Wire.Cancelled)
      | Error e -> Alcotest.fail e);
      checkb "terminal job does not cancel again" false (Scheduler.cancel sched cancelled))

let test_poison_job_quarantine () =
  let k = synthetic_kernel ~n_ops:4 ~poison:[] () in
  (* an exception from an *evaluation* is classified by the harness; to
     poison the campaign DRIVER itself, blow up the shadow trace that a
     shadow-guided job runs before searching *)
  let poisoned = { k with Kernel.setup = (fun _ -> failwith "driver poison") } in
  let dir = Filename.temp_file "craft_server_state" "" in
  Sys.remove dir;
  let options = { Scheduler.default_options with state_dir = Some dir } in
  with_stack ~options ~resolve:(fun _ -> Ok poisoned) (fun sched _ ->
      let id =
        Result.get_ok (Scheduler.submit sched { default_spec with Wire.shadow = true })
      in
      let status, _, _ = wait_done sched id in
      (match status.Wire.state with
      | Wire.Quarantined _ -> ()
      | st ->
          Alcotest.failf "expected quarantine, got %s"
            (match st with
            | Wire.Done -> "done"
            | Wire.Cancelled -> "cancelled"
            | Wire.Failed w -> "failed: " ^ w
            | _ -> "queued/running"));
      (* the quarantine is persisted: a restarted daemon re-lists it *)
      checkb "quarantine recorded in the job WAL" true
        (match List.assoc_opt id (Wal.replay (Wal.load ~path:(Filename.concat dir "jobs.wal"))) with
        | Some { Wal.outcome = Some (Wire.Quarantined _, _); _ } -> true
        | _ -> false));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let test_resolve_rejection () =
  with_stack
    ~resolve:(fun spec ->
      if spec.Wire.bench = "syn" then
        Ok (synthetic_kernel ~n_ops:2 ~poison:[] ())
      else Error "no such benchmark")
    (fun sched _ ->
      (match Scheduler.submit sched { default_spec with Wire.bench = "nope" } with
      | Error _ -> ()
      | Ok id -> Alcotest.failf "bogus spec accepted as %s" id);
      (* a hostile format menu is refused at submission, with a typed error
         naming the token — it never reaches the queue or a worker *)
      (match Scheduler.submit sched { default_spec with Wire.formats = "bf16,zz9" } with
      | Error why -> checkb "error names the token" true (contains why "zz9")
      | Ok id -> Alcotest.failf "hostile menu accepted as %s" id);
      (* a valid menu still submits *)
      (match Scheduler.submit sched { default_spec with Wire.formats = "bf16,single" } with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "valid menu refused: %s" why);
      (* hostile strategy tokens are likewise refused at submission with a
         typed error naming the token — never a crash, never queued *)
      List.iter
        (fun tok ->
          match Scheduler.submit sched { default_spec with Wire.strategy = tok } with
          | Error why -> checkb "error names the token" true (contains why tok)
          | Ok id -> Alcotest.failf "hostile strategy %S accepted as %s" tok id)
        [ "zz9"; "anneal:"; "anneal:9q"; "bfs;drop" ];
      (* while every documented spelling still submits *)
      List.iter
        (fun tok ->
          match Scheduler.submit sched { default_spec with Wire.strategy = tok } with
          | Ok _ -> ()
          | Error why -> Alcotest.failf "valid strategy %S refused: %s" tok why)
        [ ""; "bfs"; "split"; "delta"; "anneal"; "anneal:7" ];
      match Scheduler.status sched (Some "j0042") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown job has a status")

(* --------------------------------------------------------- socket daemon *)

let temp_socket () =
  let path = Filename.temp_file "craft_srv" ".sock" in
  Sys.remove path;
  path

let test_daemon_over_socket () =
  let k = synthetic_kernel ~n_ops:5 ~poison:[ 3 ] () in
  let inline = Bfs.search (Kernel.target k) in
  let inline_text = Config.print k.Kernel.program inline.Bfs.final in
  with_stack ~resolve:(fun _ -> Ok k) (fun sched _ ->
      let path = temp_socket () in
      let srv = Server.start ~scheduler:sched (Server.Unix_path path) in
      Fun.protect ~finally:(fun () -> Server.stop srv) (fun () ->
          let c = Result.get_ok (Client.connect (Server.Unix_path path)) in
          let id = Result.get_ok (Client.submit c default_spec) in
          (* a second concurrent client watches the same job *)
          let c2 = Result.get_ok (Client.connect (Server.Unix_path path)) in
          let events = ref 0 in
          let (_ : int) =
            Result.get_ok (Client.watch c2 ~job:id (fun _ -> incr events))
          in
          let status, text, summary = Result.get_ok (Client.wait c id) in
          checkb "done over the wire" true (status.Wire.state = Wire.Done);
          checkb "streamed final config = inline search final" true
            (String.equal text inline_text);
          checkb "summary mentions pass" true
            (String.length summary > 0
            && String.ends_with ~suffix:"pass" summary);
          checkb "watch streamed events" true (!events > 0);
          let stats = Result.get_ok (Client.stats c) in
          checki "one job submitted" 1 stats.Wire.submitted;
          checki "one job completed" 1 stats.Wire.completed;
          checkb "cancel of unknown job is false" true
            (Result.get_ok (Client.cancel c "j9999") = false);
          Client.close c;
          Client.close c2);
      checkb "socket file unlinked on stop" false (Sys.file_exists path))

(* a hostile peer gets a typed error and a closed connection; the daemon
   keeps serving well-behaved clients afterwards *)
let test_daemon_survives_hostile_client () =
  let k = synthetic_kernel ~n_ops:2 ~poison:[] () in
  with_stack ~resolve:(fun _ -> Ok k) (fun sched _ ->
      let path = temp_socket () in
      let srv = Server.start ~scheduler:sched (Server.Unix_path path) in
      Fun.protect ~finally:(fun () -> Server.stop srv) (fun () ->
          (* wrong version byte *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let bad = Bytes.of_string "\x00\x00\x00\x02\x09\x06" in
          let (_ : int) = Unix.write fd bad 0 (Bytes.length bad) in
          (match Wire.read_frame fd with
          | Ok (Wire.Error_reply why) ->
              checkb "names the version" true (contains why "version")
          | r ->
              Alcotest.failf "expected Error_reply, got %s"
                (match r with Ok _ -> "another frame" | Error e -> Wire.error_to_string e));
          (* ... and the connection is closed after the error *)
          checkb "connection closed" true
            (match Wire.read_frame fd with
            | Error _ -> true
            | Ok _ -> false);
          Unix.close fd;
          (* raw garbage on a fresh connection *)
          let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd2 (Unix.ADDR_UNIX path);
          let junk = Bytes.of_string "\x00\x00\x00\x04GARB" in
          let (_ : int) = Unix.write fd2 junk 0 (Bytes.length junk) in
          (match Wire.read_frame fd2 with
          | Ok (Wire.Error_reply _) | Error _ -> ()
          | Ok _ -> Alcotest.fail "garbage produced a real reply");
          Unix.close fd2;
          (* the daemon still serves a well-behaved client *)
          let c = Result.get_ok (Client.connect (Server.Unix_path path)) in
          let id = Result.get_ok (Client.submit c default_spec) in
          let status, _, _ = Result.get_ok (Client.wait c id) in
          checkb "daemon survived" true (status.Wire.state = Wire.Done);
          Client.close c))

(* at the connection limit the daemon sheds the excess dial with a typed
   error frame instead of silently running out of descriptors, and keeps
   serving the connections it already holds *)
let test_connection_limit_shed () =
  let k = synthetic_kernel ~n_ops:2 ~poison:[] () in
  with_stack ~resolve:(fun _ -> Ok k) (fun sched _ ->
      let path = temp_socket () in
      let srv = Server.start ~max_conns:1 ~scheduler:sched (Server.Unix_path path) in
      Fun.protect ~finally:(fun () -> Server.stop srv) (fun () ->
          let c = Result.get_ok (Client.connect (Server.Unix_path path)) in
          (* a completed rpc guarantees the connection is registered *)
          let (_ : Wire.server_stats) = Result.get_ok (Client.stats c) in
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          (match Wire.read_frame fd with
          | Ok (Wire.Error_reply why) ->
              checkb "shed error names the limit" true (contains why "limit")
          | r ->
              Alcotest.failf "expected a shed Error_reply, got %s"
                (match r with Ok _ -> "another frame" | Error e -> Wire.error_to_string e));
          checkb "shed connection closed" true
            (match Wire.read_frame fd with Error _ -> true | Ok _ -> false);
          Unix.close fd;
          (* the held connection still works *)
          let (_ : Wire.server_stats) = Result.get_ok (Client.stats c) in
          Client.close c;
          (* ... and the freed slot becomes reusable (the server notices
             the close asynchronously, so retry the dial briefly) *)
          let rec reusable n =
            if n > 200 then Alcotest.fail "slot never freed"
            else
              let c2 = Result.get_ok (Client.connect (Server.Unix_path path)) in
              match Client.stats c2 with
              | Ok _ -> Client.close c2
              | Error _ ->
                  Client.close c2;
                  Thread.delay 0.01;
                  reusable (n + 1)
          in
          reusable 0))

(* Every frame's exact bytes, re-encoded and compared with the copy
   recorded in test/wire/frames.txt; every recorded line also decodes
   back to the frame it names. *)
let test_wire_bytes () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "wire/frames.txt" in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  checki "one fixture line per frame" (List.length Wire_frames.frames) (List.length lines);
  List.iter2
    (fun (name, frame) line ->
      match String.split_on_char ' ' line with
      | [ recorded; hex ] ->
          Alcotest.(check string) "frame name" name recorded;
          Alcotest.(check string) (name ^ " bytes") hex (Wire_frames.hex (Wire.encode frame));
          let bytes = Wire_frames.of_hex hex in
          checkb (name ^ " decodes to the frame") true
            (match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
            | Ok (f, used) -> f = frame && used = Bytes.length bytes
            | Error _ -> false)
      | _ -> Alcotest.failf "malformed fixture line %S" line)
    Wire_frames.frames lines

let suite =
  [
    ("wire: frame bytes match the recorded fixture", `Quick, test_wire_bytes);
    ("store: memoizes verdicts", `Quick, test_store_memoizes);
    ("store: in-flight dedup computes once", `Quick, test_store_inflight_dedup);
    ("store: withdraws the claim on exception", `Quick, test_store_withdraws_on_exception);
    ( "store: withdrawal wakes concurrent waiters, one recomputes",
      `Quick,
      test_store_withdraw_under_concurrent_waiters );
    ( "scheduler: identical campaigns, identical finals, second served",
      `Quick,
      test_identical_campaigns_identical_finals );
    ( "scheduler: racing identical campaigns evaluate each key once",
      `Quick,
      test_concurrent_campaigns_evaluate_once );
    ( "scheduler: ep.A after ep.W on one store matches ep.A alone",
      `Quick,
      test_store_keys_the_input );
    ( "scheduler: served shadow-guided cg.W equals inline",
      `Quick,
      test_served_shadow_equals_inline );
    ("scheduler: priorities and cancellation", `Quick, test_priorities_and_cancel);
    ("scheduler: poison job is quarantined", `Quick, test_poison_job_quarantine);
    ("scheduler: resolve rejection and unknown jobs", `Quick, test_resolve_rejection);
    ("daemon: submit/watch/result over a socket", `Quick, test_daemon_over_socket);
    ("daemon: survives hostile clients", `Quick, test_daemon_survives_hostile_client);
    ("daemon: sheds connections past the limit with a typed error", `Quick,
      test_connection_limit_shed);
  ]
