(* The craft command-line tool: exposes the analysis pipeline on the bundled
   benchmark binaries (list, disassemble, run, view configurations, patch,
   search, recommend). *)

open Cmdliner

let kernels () =
  let mk name f = (name, f) in
  [
    mk "ep" (fun c -> Nas_ep.make c);
    mk "cg" (fun c -> Nas_cg.make c);
    mk "ft" (fun c -> Nas_ft.make c);
    mk "mg" (fun c -> Nas_mg.make c);
    mk "bt" (fun c -> Nas_bt.make c);
    mk "lu" (fun c -> Nas_lu.make c);
    mk "sp" (fun c -> Nas_sp.make c);
  ]

let class_of_string = function
  | "W" | "w" -> Ok Kernel.W
  | "A" | "a" -> Ok Kernel.A
  | "C" | "c" -> Ok Kernel.C
  | s -> Error (Printf.sprintf "unknown class %S (use W, A or C)" s)

let load name cls =
  if String.equal name "amg" then Ok (Amg_kernel.make ())
  else
    match List.assoc_opt name (kernels ()) with
    | Some f -> Ok (f cls)
    | None -> Error (Printf.sprintf "unknown benchmark %S" name)

let bench_arg =
  let doc = "Benchmark name: ep, cg, ft, mg, bt, lu, sp or amg." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let class_arg =
  let doc = "Problem class (W, A or C)." in
  Arg.(value & opt string "W" & info [ "c"; "class" ] ~docv:"CLASS" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("craft: " ^ msg);
      exit 1

let with_kernel name cls f =
  let cls = or_die (class_of_string cls) in
  let k = or_die (load name cls) in
  f k

let list_cmd =
  let run () =
    List.iter (fun (n, _) -> Printf.printf "%s\t(classes W A C)\n" n) (kernels ());
    print_endline "amg\t(single configuration)"
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark binaries") Term.(const run $ const ())

let listing_cmd =
  let run name cls =
    with_kernel name cls (fun k -> Format.printf "%a@." Ir.pp_program k.Kernel.program)
  in
  Cmd.v
    (Cmd.info "listing" ~doc:"Disassemble a benchmark binary")
    Term.(const run $ bench_arg $ class_arg)

let run_cmd =
  let run name cls =
    with_kernel name cls (fun k ->
        let out, vm = Kernel.run_native k in
        let cost = Cost.of_run vm in
        Format.printf "outputs:@.";
        Array.iteri (fun i v -> Format.printf "  [%d] %.17g@." i v) out;
        Format.printf "verification: %s@." (if k.Kernel.verify out then "pass" else "fail");
        Format.printf "executed %d instructions (%d FP), modeled %.3e cycles@." vm.Vm.steps
          cost.Cost.fp_ops cost.Cost.time_cycles)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark binary natively and verify")
    Term.(const run $ bench_arg $ class_arg)

let config_arg =
  let doc = "Configuration file in the exchange format (omit for all-double)." in
  Arg.(value & opt (some file) None & info [ "f"; "config" ] ~docv:"FILE" ~doc)

let read_config program = function
  | None -> Config.empty
  | Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      or_die (Config.parse program text |> Result.map_error (fun e -> "config: " ^ e))

let view_cmd =
  let run name cls cfg_file =
    with_kernel name cls (fun k ->
        let cfg = read_config k.Kernel.program cfg_file in
        let _, vm = Kernel.run_native k in
        print_string (Tree_view.render ~counts:vm.Vm.counts k.Kernel.program cfg))
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Render a configuration over the program tree (the GUI view)")
    Term.(const run $ bench_arg $ class_arg $ config_arg)

let patch_cmd =
  let run name cls cfg_file =
    with_kernel name cls (fun k ->
        let cfg = read_config k.Kernel.program cfg_file in
        let patched = Patcher.patch k.Kernel.program cfg in
        print_endline (Patcher.patch_stats k.Kernel.program patched);
        let out, pvm = Kernel.run_patched ~config:cfg k in
        let nout, nvm = Kernel.run_native k in
        Format.printf "verification: %s@." (if k.Kernel.verify out then "pass" else "fail");
        Format.printf "max |instrumented - native|: %.3e@."
          (Array.fold_left Float.max 0.0
             (Array.map2 (fun a bv -> Float.abs (a -. bv)) out nout));
        Format.printf "overhead: %.2fX@." (Cost.overhead (Cost.of_run pvm) (Cost.of_run nvm)))
  in
  Cmd.v
    (Cmd.info "patch" ~doc:"Instrument a benchmark under a configuration and run it")
    Term.(const run $ bench_arg $ class_arg $ config_arg)

let workers_arg =
  Arg.(value & opt int 1 & info [ "j"; "workers" ] ~docv:"N" ~doc:"Parallel evaluation domains.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the final configuration here.")

let strategy_arg =
  let doc =
    "Search strategy: bfs (the paper's breadth-first descent), split \
     (count-weighted binary splitting), delta (Precimonious-style \
     delta-debugging) or anneal[:seed] (shadow-seeded greedy descent with \
     random restarts)."
  in
  Arg.(value & opt string "bfs" & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Keep the campaign's verdicts in a result-store log at $(docv) (every record \
           flushed, fsynced at exit), making the campaign crash-safe. Each verdict is \
           stored as the harness classified it (pass, fail, trap, timeout, crash; \
           after its retries), keyed by the program, the kernel's input (benchmark and \
           class), the step budget, the $(b,--inject) spec with the $(b,--retries) \
           budget, and the $(b,--deadline). Without $(b,--resume) the file is removed \
           first.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the $(b,--journal) log before searching: the campaign is walked again \
           from the start and every verdict the log holds under the same key is served \
           from it, so an interrupted campaign continues instead of restarting. Verdicts \
           earned under another class, step budget, $(b,--inject) spec, retry budget \
           under $(b,--inject), or $(b,--deadline) are not served. A file that is not a \
           result-store log is refused. Requires $(b,--journal).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry budget per evaluation for crash verdicts; each retry runs at once, and \
           nothing else reruns an evaluation. A pass, a verification failure, a trap or a \
           timeout is final: the VM is deterministic, and an evaluation past its \
           $(b,--deadline) stays cancelled.")

let eval_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "eval-steps" ] ~docv:"N"
        ~doc:
          "Per-evaluation VM step budget; a configuration exceeding it is classified as a \
           step-timeout instead of hanging the search (default 2e9).")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Arm the deterministic fault injector around every evaluation, e.g. \
           $(b,seed=7,rate=0.2,modes=trap+hang+bitflip,transient) — a demo that the \
           harness contains every failure mode. An injected trap or hang, and a silent \
           fault (bitflip, corrupt) that makes verification fail, are reported as \
           crashes, so $(b,--retries) reruns them; a genuine verification failure, trap \
           or timeout is never rerun.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Per-evaluation wall-clock deadline, enforced by the worker-pool supervisor on \
           top of the VM step budget. A late evaluation is first cancelled cooperatively \
           (classified as a timeout, never retried); a worker that stays hung is \
           abandoned and replaced. Part of the $(b,--journal) key.")

let shadow_flag =
  Arg.(
    value & flag
    & info [ "shadow" ]
        ~doc:
          "Run a shadow-value precision analysis (one traced native run) first and use it \
           to guide the search: seed the passing set with the predicted configuration, \
           reorder the frontier by predicted tolerance, and prune candidates whose \
           predicted divergence exceeds 0.1. Every pruned candidate is logged as a \
           $(b,PRUNED) line and counted, never dropped silently. The bfs and anneal \
           strategies read the guidance; split and delta ignore it.")

let formats_arg =
  Arg.(
    value & opt string ""
    & info [ "formats" ] ~docv:"MENU"
        ~doc:
          "Precision-format menu for the lattice descent, comma-separated: friendly \
           names ($(b,bf16), $(b,f16), $(b,tf32), $(b,single), $(b,double)) or custom \
           $(b,e<E>m<M>) tokens (e.g. $(b,--formats bf16,f16,single,double)). The \
           structural search runs at the widest reduced format on the menu, then each \
           passing structure is retried at every cheaper format, cheapest first. Empty \
           (the default) searches single-vs-double exactly as before.")

(* A campaign that finished on a final configuration that fails the
   kernel's own verification is a failure: [craft search] exits with this
   code, and so do the daemon clients for a job the scheduler summarised
   with [final fail]. *)
let final_fails = 3

let exits =
  Cmd.Exit.info final_fails
    ~doc:"the campaign finished, but its final configuration fails the kernel's verification."
  :: Cmd.Exit.defaults

let search_cmd =
  let run name cls workers out strategy journal_path resume retries eval_steps inject
      deadline shadow formats =
    with_kernel name cls (fun k ->
        let spec =
          { Wire.bench = name; cls; shadow; priority = 0; eval_steps; formats; strategy }
        in
        let campaign = or_die (Campaign.of_spec spec) in
        if resume && journal_path = None then begin
          prerr_endline "craft: --resume requires --journal FILE";
          exit 1
        end;
        let inject =
          Option.map
            (fun text -> or_die (Result.map_error (fun e -> "--inject: " ^ e) (Faults.parse text)))
            inject
        in
        let ctx = Campaign.context ~retries ?inject ?deadline spec in
        let faults, harness, target = Campaign.target ctx k in
        let journal =
          Option.map (fun path -> (path, or_die (Store.open_journal ~resume ~path))) journal_path
        in
        let target =
          match journal with
          | Some (_, store) -> Store.wrap_target store ~context:(Store.context ctx k) target
          | None -> target
        in
        (* The supervised pool is staffed whenever parallelism or a deadline
           asks for it; the CLI owns it (the search only borrows it). *)
        let pool =
          if workers > 1 || ctx.Wire.deadline <> None then
            Some
              (Pool.create
                 ~options:
                   {
                     Pool.default_options with
                     workers = max 1 workers;
                     deadline = ctx.Wire.deadline;
                   }
                 ~log:(fun s -> prerr_endline ("craft: pool: " ^ s))
                 ())
          else None
        in
        (* first ^C asks the search to stop at the next wave boundary (partial
           result composed); a second ^C aborts outright *)
        let interrupt = Atomic.make false in
        let prev_sigint =
          Sys.signal Sys.sigint
            (Sys.Signal_handle
               (fun _ ->
                 if Atomic.get interrupt then exit 130
                 else begin
                   Atomic.set interrupt true;
                   prerr_endline
                     "craft: SIGINT — finishing the current wave, composing the partial \
                      result (^C again to abort)"
                 end))
        in
        let r =
          Campaign.run ?pool ~stop:(fun () -> Atomic.get interrupt) ~workers k campaign target
        in
        Sys.set_signal Sys.sigint prev_sigint;
        if r.Bfs.interrupted then
          Format.printf
            "search INTERRUPTED — the report below is the partial result (union of \
             the structures that had passed); rerun with --journal/--resume to continue@.";
        let rec_ = Analysis.of_result target ~setup:k.Kernel.setup r in
        Format.printf "%a@." Analysis.pp_summary rec_;
        if shadow then Format.printf "shadow: pruned %d candidate evaluation(s)@." r.Bfs.pruned;
        (match out with
        | Some path ->
            let oc = open_out path in
            output_string oc rec_.Analysis.config_text;
            close_out oc;
            Format.printf "final configuration written to %s@." path
        | None -> print_string rec_.Analysis.tree);
        Format.printf "%s@." (Harness.report harness);
        (match pool with
        | Some p ->
            Format.printf "supervisor: %s@." (Pool.report p);
            Pool.shutdown p
        | None -> ());
        (match faults with
        | Some inj -> Format.printf "injected faults fired: %d@." (Faults.injected inj)
        | None -> ());
        (match journal with
        | Some (path, store) ->
            let s = Store.stats store in
            Format.printf "journal %s: %d replayed, %d hit(s), %d fresh, %d record(s)@." path
              s.Store.replayed s.Store.hits s.Store.misses s.Store.entries;
            Store.close store
        | None -> ());
        if not r.Bfs.final_pass then exit final_fails)
  in
  Cmd.v
    (Cmd.info "search" ~exits
       ~doc:"Run the automatic mixed-precision search and print the recommendation")
    Term.(
      const run $ bench_arg $ class_arg $ workers_arg $ out_arg $ strategy_arg $ journal_arg
      $ resume_arg $ retries_arg $ eval_steps_arg $ inject_arg $ deadline_arg $ shadow_flag
      $ formats_arg)

let shadow_cmd =
  let threshold_arg =
    Arg.(
      value
      & opt float Shadow_report.default_threshold
      & info [ "t"; "threshold" ] ~docv:"REL"
          ~doc:"Divergence threshold below which a structure is predicted single.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also export the analysis as JSON to $(docv).")
  in
  let run name cls threshold json_out =
    with_kernel name cls (fun k ->
        let prog = k.Kernel.program in
        (* plain native run first, for the tracer-overhead figure *)
        let t0 = Unix.gettimeofday () in
        let plain = Vm.create prog in
        k.Kernel.setup plain;
        Vm.run plain;
        let t1 = Unix.gettimeofday () in
        let tracer =
          Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.Kernel.hints prog) prog
        in
        let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:k.Kernel.setup in
        let t2 = Unix.gettimeofday () in
        let report = Shadow_report.make ~threshold ~base:k.Kernel.hints prog tracer in
        print_string (Shadow_report.render report);
        Format.printf "observations: %d; tracer overhead %.1fx (plain %.3fs, traced %.3fs)@."
          (Shadow_tracer.observations tracer)
          ((t2 -. t1) /. Float.max (t1 -. t0) 1e-9)
          (t1 -. t0) (t2 -. t1);
        match json_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Shadow_report.to_json report);
            close_out oc;
            Format.printf "JSON written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "shadow"
       ~doc:
         "Run the shadow-value precision analysis on a benchmark and print the annotated \
          structure tree (predicted-single structures marked 's')")
    Term.(const run $ bench_arg $ class_arg $ threshold_arg $ json_arg)

let cancellation_cmd =
  let run name cls =
    with_kernel name cls (fun k ->
        let instr, layout = Cancellation.instrument k.Kernel.program in
        let vm = Vm.create instr in
        k.Kernel.setup vm;
        Vm.run vm;
        print_string (Cancellation.report layout vm))
  in
  Cmd.v
    (Cmd.info "cancellation" ~doc:"Run the dynamic cancellation detector on a benchmark")
    Term.(const run $ bench_arg $ class_arg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly listing file.")

let assemble_cmd =
  let run path =
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Asm.parse text with
    | Error e ->
        prerr_endline ("craft: " ^ e);
        exit 1
    | Ok prog ->
        let cands = Array.length (Static.candidates prog) in
        Format.printf "assembled %d function(s), %d instruction(s), %d FP candidate(s)@."
          (Array.length prog.Ir.funcs) (Static.insn_count prog) cands;
        Format.printf "%a@." Ir.pp_program prog
  in
  Cmd.v
    (Cmd.info "assemble" ~doc:"Assemble a listing file and print the validated binary")
    Term.(const run $ file_arg)

let slots_arg =
  Arg.(value & opt int 8 & info [ "n"; "slots" ] ~docv:"N" ~doc:"Float-heap slots to print.")

let asm_run_cmd =
  let run path slots =
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Asm.parse text with
    | Error e ->
        prerr_endline ("craft: " ^ e);
        exit 1
    | Ok prog ->
        let vm = Vm.create prog in
        Vm.run vm;
        let n = min slots prog.Ir.fheap_size in
        for i = 0 to n - 1 do
          Format.printf "[%d] %.17g@." i (Vm.get_f_value vm i)
        done;
        Format.printf "executed %d instructions@." vm.Vm.steps
  in
  Cmd.v
    (Cmd.info "asm-run" ~doc:"Assemble a listing file, run it, and print the float heap")
    Term.(const run $ file_arg $ slots_arg)

let snippet_cmd =
  let run () = print_string (Patcher.snippet_listing ()) in
  Cmd.v
    (Cmd.info "snippet" ~doc:"Show the single-precision replacement snippet (paper Fig. 6)")
    Term.(const run $ const ())

let journal_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Store log written by $(b,craft search --journal) or by $(b,craft serve) \
             ($(i,state-dir)/store.log), or a job WAL ($(i,state-dir)/jobs.wal).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Integrity scan of a store log or a job WAL, told apart by the header line: \
             record count, trailing corruption (the half-record a crash legitimately \
             leaves — tolerated), and torn records (unparseable lines $(i,before) the \
             last good one — exit status 1).")
  in
  let compact_arg =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Rewrite a store log offline with one record per distinct key \
             (write-temp/fsync/rename); run between daemon lifetimes, not under a live \
             one.")
  in
  let run path verify compact =
    if verify then begin
      let first = In_channel.with_open_bin path In_channel.input_line in
      let is (codec : _ Durable_log.codec) =
        Option.fold ~none:false ~some:(String.starts_with ~prefix:codec.header) first
      in
      let scan kind codec =
        let d = snd (Durable_log.replay codec ~path) in
        Format.printf "%s: %s, %d record(s)@." path kind d.Durable_log.records;
        d
      in
      let d =
        if is Store.codec then scan "store log" Store.codec
        else if is Wal.codec then scan "job WAL" Wal.codec
        else or_die (Error (path ^ ": not a store log or a job WAL (unknown header line)"))
      in
      if d.trailing_bad > 0 then
        Format.printf
          "trailing corruption: %d unparseable line(s) at the end (crash truncation — \
           tolerated on replay)@."
          d.trailing_bad;
      if Durable_log.torn d then begin
        Format.printf
          "TORN: %d unparseable line(s) before the last good record — this is mid-file \
           corruption, not crash truncation@."
          (d.bad - d.trailing_bad);
        exit 1
      end
    end
    else if compact then begin
      let kept, dropped = or_die (Store.compact ~path) in
      Format.printf "%s: compacted — %d record(s) kept, %d dropped@." path kept dropped
    end
    else begin
      let records = Store.scan ~path in
      Format.printf "%s: %d record(s)@." path (List.length records);
      List.iter
        (fun label ->
          match List.filter (fun (_, v) -> Verdict.verdict_label v = label) records with
          | [] -> ()
          | hits -> Format.printf "  %-8s %d@." label (List.length hits))
        [ "pass"; "fail"; "trap"; "timeout"; "crash"; "pruned" ]
    end
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect a result-store log ($(b,craft search --journal) or $(b,craft serve)): \
          per-verdict counts (read-only); $(b,--verify) scans a store log or job WAL for \
          damage, $(b,--compact) rewrites a store log offline")
    Term.(const run $ path_arg $ verify_arg $ compact_arg)

(* --------------------------------------------------------- campaign server *)

let socket_arg =
  Arg.(
    value & opt string "craft.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the campaign daemon (default $(b,craft.sock)).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Use TCP instead of the Unix-domain socket.")

let server_addr socket tcp =
  match tcp with
  | None -> Server.Unix_path socket
  | Some spec -> (
      match Server.addr_of_string spec with
      | Ok (Server.Tcp _ as a) -> a
      | Ok (Server.Unix_path _) | Error _ ->
          prerr_endline (Printf.sprintf "craft: --tcp wants HOST:PORT, got %S" spec);
          exit 1)

let with_client socket tcp f =
  let c = or_die (Client.connect (server_addr socket tcp)) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let state_to_string = function
  | Wire.Queued -> "queued"
  | Wire.Running -> "running"
  | Wire.Done -> "done"
  | Wire.Cancelled -> "cancelled"
  | Wire.Failed why -> "failed: " ^ why
  | Wire.Quarantined why -> "quarantined: " ^ why

let exit_for_state state summary =
  match state with
  | Wire.Done -> if String.ends_with ~suffix:"final fail" summary then final_fails else 0
  | Wire.Queued | Wire.Running | Wire.Cancelled | Wire.Failed _ | Wire.Quarantined _ -> 1

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"N" ~doc:"Concurrent campaign runners (default 2).")
  in
  let wave_arg =
    Arg.(
      value & opt int 2
      & info [ "wave" ] ~docv:"N"
          ~doc:"BFS wave width per campaign — evaluations offered to the pool at once.")
  in
  let pool_workers_arg =
    Arg.(
      value & opt int 4
      & info [ "j"; "workers" ] ~docv:"N"
          ~doc:"Worker domains in the one shared evaluation pool (default 4).")
  in
  let state_dir_arg =
    Arg.(
      value & opt string "craft-serve-state"
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Root for the durable state that survives a daemon death: the cross-campaign \
             store log, the job-table WAL, and per-job result files. A restarted \
             daemon replays the store and the WAL and re-runs unfinished jobs against the \
             store; an exclusive lock refuses a second live daemon. Empty string disables \
             persistence.")
  in
  let store_fsync_arg =
    Arg.(
      value & opt int 32
      & info [ "store-fsync" ] ~docv:"N"
          ~doc:
            "fsync the durable result store every N fresh verdicts (1 = per record, 0 = \
             flush only; default 32). Every append is flushed regardless.")
  in
  let quarantine_arg =
    Arg.(
      value & opt int 2
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:
            "Quarantine a job after its campaign has died $(docv) times (an exception \
             escaping the search itself, not an evaluation), instead of requeueing it \
             forever (default 2).")
  in
  let run socket tcp jobs wave workers retries quarantine_after state_dir store_fsync
      fleet_heartbeat =
    let addr = server_addr socket tcp in
    let log s = Printf.printf "serve: %s\n%!" s in
    let state_dir = if state_dir = "" then None else Some state_dir in
    (* refuse to interleave on-disk state with another live daemon before
       touching any of it *)
    let lock = Option.map (fun dir -> or_die (Lockfile.acquire ~dir)) state_dir in
    let pool =
      Pool.create
        ~options:{ Pool.default_options with workers = max 1 workers }
        ~log:(fun s -> log ("pool: " ^ s))
        ()
    in
    let cache = Compile.create_cache () in
    let store =
      Store.create
        ?path:(Option.map (fun dir -> Filename.concat dir "store.log") state_dir)
        ~fsync_every:store_fsync ()
    in
    (match (Store.stats store).Store.replayed with
    | 0 -> ()
    | n -> log (Printf.sprintf "store: replayed %d verdict(s) from disk" n));
    let resolve (spec : Wire.job_spec) =
      Result.bind (class_of_string spec.Wire.cls) (fun c -> load spec.Wire.bench c)
    in
    let fleet =
      Fleet.create
        ~options:{ Fleet.default_options with heartbeat_every = fleet_heartbeat }
        ~log ()
    in
    let sched =
      Scheduler.create
        ~options:
          {
            Scheduler.max_concurrent = jobs;
            wave_width = wave;
            retries;
            quarantine_after;
            state_dir;
          }
        ~log ~fleet ~resolve ~pool ~cache ~store ()
    in
    let srv = Server.start ~log ~fleet ~scheduler:sched addr in
    let signals = Atomic.make 0 in
    let on_signal _ = Atomic.incr signals in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    log
      (Printf.sprintf
         "ready on %s — %d campaign runner(s), wave width %d, %d pool worker(s)"
         (Server.addr_to_string (Server.addr srv))
         jobs wave workers);
    log "SIGTERM drains gracefully (finish queued + running); a second signal cancels";
    while Atomic.get signals = 0 do
      Thread.delay 0.2
    done;
    log "draining: no new submissions; finishing queued and running campaigns";
    Server.stop srv;
    (* a second signal while draining stops running campaigns at their
       next wave boundary instead of finishing them *)
    let drained = Atomic.make false in
    let watcher =
      Thread.create
        (fun () ->
          while (not (Atomic.get drained)) && Atomic.get signals < 2 do
            Thread.delay 0.1
          done;
          if not (Atomic.get drained) then begin
            log "second signal: cancelling running campaigns at the next wave boundary";
            Scheduler.shutdown sched ~cancel_running:true ()
          end)
        ()
    in
    Scheduler.shutdown sched ();
    Atomic.set drained true;
    Thread.join watcher;
    Fleet.stop fleet;
    Pool.shutdown pool;
    Store.close store;
    log (Fleet.report fleet);
    log (Store.report store);
    log (Compile.report cache);
    Option.iter Lockfile.release lock;
    log "stopped"
  in
  let fleet_heartbeat_arg =
    Arg.(
      value & opt float 2.0
      & info [ "fleet-heartbeat" ] ~docv:"SECS"
          ~doc:
            "Heartbeat interval expected from remote workers; a worker silent for two \
             intervals has its lease requeued (default 2s).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: accept search campaigns from many clients, multiplex \
          them onto one shared worker pool, code cache and cross-campaign result store, \
          and lease evaluation batches to remote $(b,craft worker) processes")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ wave_arg $ pool_workers_arg
      $ retries_arg $ quarantine_arg $ state_dir_arg $ store_fsync_arg
      $ fleet_heartbeat_arg)

let worker_cmd =
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            "Stable worker name (default $(b,worker-<pid>)); the daemon quarantines \
             misbehaving workers by this name.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 4
      & info [ "capacity" ] ~docv:"N" ~doc:"Max evaluations leased per batch (default 4).")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Arm the deterministic fleet fault injector, e.g. \
             $(b,seed=7,rate=0.25,actions=kill+stall+garbage+dup,limit=4,stall=1.0) — the \
             worker then dies, stalls, corrupts frames or duplicates deliveries \
             mid-batch, proving out the daemon's requeue/rejoin machinery. A drawn \
             $(b,kill) exits with status 137, like a real SIGKILL.")
  in
  let run socket tcp name capacity chaos =
    let addr = server_addr socket tcp in
    let log s = Printf.printf "worker: %s\n%!" s in
    let chaos = Option.map (fun s -> Chaos.create (or_die (Chaos.parse s))) chaos in
    let resolve ~bench ~cls = Result.bind (class_of_string cls) (load bench) in
    match Worker.run ?name ~capacity ?chaos ~log ~resolve addr with
    | stats ->
        log
          (Printf.sprintf "done — %d evaluated, %d pushed, %d skipped, %d batch(es), %d rejoin(s)"
             stats.Worker.evaluated stats.Worker.pushed stats.Worker.skipped
             stats.Worker.batches stats.Worker.rejoins)
    | exception Chaos.Killed ->
        (* faithful to a real SIGKILL: no goodbye, no cleanup, status 137 *)
        exit 137
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a remote evaluation worker: lease configuration batches from the campaign \
          daemon over the wire protocol, evaluate them locally and stream the verdicts \
          back; survives daemon restarts and dropped connections by rejoining with \
          result-store delta sync")
    Term.(
      const run $ socket_arg $ tcp_arg $ name_arg $ capacity_arg $ chaos_arg)

let priority_arg =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"P" ~doc:"Scheduling priority; higher runs first.")

let wait_flag =
  Arg.(
    value & flag
    & info [ "wait" ]
        ~doc:"Block until the campaign finishes and print its result (see also \
              $(b,craft watch)).")

let submit_cmd =
  let run socket tcp bench cls shadow priority eval_steps wait out formats strategy =
    let spec = { Wire.bench; cls; shadow; priority; eval_steps; formats; strategy } in
    (* validate locally for a friendly error; the daemon re-validates *)
    let (_ : Campaign.t) = or_die (Campaign.of_spec spec) in
    with_client socket tcp (fun c ->
        let id = or_die (Client.submit c spec) in
        if not wait then print_endline id
        else begin
          Printf.printf "submitted %s\n%!" id;
          let status, config_text, summary = or_die (Client.wait c id) in
          Printf.printf "%s: %s — %s\n" id (state_to_string status.Wire.state) summary;
          (match out with
          | Some path ->
              let oc = open_out path in
              output_string oc config_text;
              close_out oc;
              Printf.printf "final configuration written to %s\n" path
          | None -> print_string config_text);
          exit (exit_for_state status.Wire.state summary)
        end)
  in
  Cmd.v
    (Cmd.info "submit" ~exits
       ~doc:"Submit a search campaign to the daemon (prints the job id)")
    Term.(
      const run $ socket_arg $ tcp_arg $ bench_arg $ class_arg $ shadow_flag
      $ priority_arg $ eval_steps_arg $ wait_flag $ out_arg $ formats_arg
      $ strategy_arg)

let job_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.")

let status_cmd =
  let job_opt = Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.") in
  let run socket tcp job =
    with_client socket tcp (fun c ->
        let jobs = or_die (Client.status ?job c) in
        (match job with
        | None ->
            let s = or_die (Client.stats c) in
            Printf.printf
              "server: %d submitted, %d running, %d queued, %d done, %d cancelled, %d \
               failed; store %d/%d hits (%d entries); code cache %d/%d hits; up %.0fs\n"
              s.Wire.submitted s.Wire.running s.Wire.queued s.Wire.completed
              s.Wire.cancelled s.Wire.failed s.Wire.store.Wire.hits
              (s.Wire.store.Wire.hits + s.Wire.store.Wire.misses)
              s.Wire.store.Wire.entries s.Wire.cache_hits
              (s.Wire.cache_hits + s.Wire.cache_misses)
              s.Wire.uptime
        | Some _ -> ());
        List.iter
          (fun j ->
            Printf.printf "%s  %-9s %s.%s%s  tested %d (%d from store)  %.1fs  %s\n"
              j.Wire.id
              (match j.Wire.state with
              | Wire.Failed _ -> "failed"
              | Wire.Quarantined _ -> "quarantined"
              | st -> state_to_string st)
              j.Wire.spec.Wire.bench j.Wire.spec.Wire.cls
              (if j.Wire.spec.Wire.shadow then "+shadow" else "")
              j.Wire.tested j.Wire.store_hits j.Wire.wall
              (match j.Wire.state with
              | Wire.Failed why | Wire.Quarantined why -> why
              | _ -> ""))
          jobs)
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show the daemon's jobs (all, or one) and server-wide stats")
    Term.(const run $ socket_arg $ tcp_arg $ job_opt)

let watch_cmd =
  let run socket tcp job =
    with_client socket tcp (fun c ->
        let (_ : int) = or_die (Client.watch c ~job print_endline) in
        let status, _, summary = or_die (Client.result c job) in
        Printf.printf "%s: %s — %s\n" job (state_to_string status.Wire.state) summary;
        exit (exit_for_state status.Wire.state summary))
  in
  Cmd.v
    (Cmd.info "watch" ~exits
       ~doc:
         "Stream a job's event log until it finishes (exit 0 iff it completed with a \
          passing final)")
    Term.(const run $ socket_arg $ tcp_arg $ job_arg)

let results_cmd =
  let run socket tcp job out =
    with_client socket tcp (fun c ->
        let status, config_text, summary = or_die (Client.result c job) in
        Printf.printf "%s: %s — %s\n" job (state_to_string status.Wire.state) summary;
        (match out with
        | Some path ->
            let oc = open_out path in
            output_string oc config_text;
            close_out oc;
            Printf.printf "final configuration written to %s\n" path
        | None -> print_string config_text);
        exit (exit_for_state status.Wire.state summary))
  in
  Cmd.v
    (Cmd.info "results" ~exits
       ~doc:"Fetch a finished job's final configuration and summary")
    Term.(const run $ socket_arg $ tcp_arg $ job_arg $ out_arg)

let cancel_cmd =
  let run socket tcp job =
    with_client socket tcp (fun c ->
        if or_die (Client.cancel c job) then
          print_endline (job ^ ": cancellation requested")
        else begin
          Printf.printf "%s: not cancellable (unknown, or already finished)\n" job;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a job: dequeued if still queued, stopped at the next wave boundary (with \
          its partial result) if running")
    Term.(const run $ socket_arg $ tcp_arg $ job_arg)

let main =
  let info =
    Cmd.info "craft" ~version:"1.0.0"
      ~doc:"Mixed-precision floating-point analysis of binaries (paper reproduction)"
  in
  Cmd.group info
    [
      list_cmd;
      listing_cmd;
      run_cmd;
      view_cmd;
      patch_cmd;
      search_cmd;
      shadow_cmd;
      cancellation_cmd;
      assemble_cmd;
      asm_run_cmd;
      snippet_cmd;
      journal_cmd;
      serve_cmd;
      worker_cmd;
      submit_cmd;
      status_cmd;
      watch_cmd;
      results_cmd;
      cancel_cmd;
    ]

let () = exit (Cmd.eval main)
