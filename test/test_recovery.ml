(* Crash-safety of the daemon's durable state: the on-disk result store
   (replay, compaction), the job-table WAL (property: replay reconstructs
   the exact job table), the durable-log property every log shares (a
   torn or garbage line loses only itself), the writers' byte fixture, the
   state-dir lockfile, scheduler recovery across an in-process "daemon
   death", and
   the real thing — the CLI daemon SIGKILLed mid-campaign and restarted on
   the same state dir, asserting a byte-identical final configuration,
   every verdict stored before the kill served from the store, and
   strictly fewer fresh evaluations than a cold run. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false else String.sub s i n = sub || go (i + 1)
  in
  go 0

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let cli_path () =
  let guess =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/craft_cli.exe"
  in
  if Sys.file_exists guess then Some guess else None

(* ------------------------------------------------------------------ store *)

let test_store_durable_roundtrip () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let store = Store.create ~path ~fsync_every:1 () in
      let verdicts =
        [
          ("a/steps=default/d1", Verdict.Pass);
          ("a/steps=default/d2", Verdict.Fail_verify);
          ("a/steps=default/d3", Verdict.Trapped (0x1f, "injected fault"));
          ("b/steps=100/d1", Verdict.Step_timeout);
          ("b/steps=100/d2", Verdict.Crashed "boom with spaces");
          ("b/steps=100/d3", Verdict.Pruned "shadow said so");
        ]
      in
      List.iter
        (fun (key, v) -> ignore (Store.find_or_compute store ~key (fun () -> v)))
        verdicts;
      Store.close store;
      (* a second daemon life on the same path serves every verdict *)
      let store2 = Store.create ~path () in
      checki "replayed all" (List.length verdicts) (Store.stats store2).Store.replayed;
      List.iter
        (fun (key, v) ->
          let got, served =
            Store.find_or_compute store2 ~key (fun () -> Alcotest.fail "recomputed")
          in
          checkb "served from replay" true served;
          checkb "verdict survives the round-trip" true (got = v))
        verdicts;
      Store.close store2)

let test_store_closed_keeps_serving () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let store = Store.create ~path () in
      ignore (Store.find_or_compute store ~key:"k" (fun () -> Verdict.Pass));
      Store.close store;
      Store.close store;
      (* memory table still serves; fresh verdicts just stop persisting *)
      let _, served = Store.find_or_compute store ~key:"k" (fun () -> Verdict.Pass) in
      checkb "served after close" true served;
      ignore (Store.find_or_compute store ~key:"k2" (fun () -> Verdict.Pass));
      checki "k2 not persisted" 1 (List.length (Store.scan ~path)))

(* Random store contents for the fuzz tests. *)
let verdict_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Verdict.Pass;
      return Verdict.Fail_verify;
      map (fun s -> Verdict.Crashed s) (small_string ~gen:printable);
      map (fun s -> Verdict.Pruned s) (small_string ~gen:printable);
      map2 (fun a s -> Verdict.Trapped (a land 0xffffff, s)) small_nat
        (small_string ~gen:printable);
      return Verdict.Step_timeout;
    ]

let entries_gen =
  let open QCheck2.Gen in
  let key_gen =
    map
      (fun (a, b, c) -> Printf.sprintf "%08x/steps=%d/%08x" a b c)
      (triple nat small_nat nat)
  in
  map
    (fun l ->
      (* distinct keys: the store never appends one key twice *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        l)
    (small_list (pair key_gen verdict_gen))

let write_store_log path entries =
  let store = Store.create ~path ~fsync_every:0 () in
  List.iter (fun (key, v) -> ignore (Store.find_or_compute store ~key (fun () -> v))) entries;
  Store.close store

let test_store_compact () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      write_store_log path [ ("k1", Verdict.Pass); ("k2", Verdict.Fail_verify) ];
      (* simulate many daemon lifetimes re-deciding k1: raw duplicate
         appends, which replay (and so compaction) resolve last-wins *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "k1 fail 3\nk1 pass 4\nhalf-a-rec";
      close_out oc;
      (match Store.compact ~path with
      | Ok (kept, dropped) ->
          checki "kept distinct" 2 kept;
          (* the torn tail never parses as a record, so only the two
             duplicate appends count as dropped *)
          checki "dropped duplicates" 2 dropped
      | Error why -> Alcotest.fail why);
      let records = Store.scan ~path in
      checki "two records" 2 (List.length records);
      checkb "last verdict won" true (List.assoc "k1" records = Verdict.Pass);
      (match Store.compact ~path:(Filename.concat dir "nope") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "compacted a missing file"))

(* Every key of every store log on disk starts with the program key, so
   its bytes are pinned: these are the keys the daemon has always written
   for cg.W, mg.W and ep.W. *)
let test_store_program_key () =
  List.iter
    (fun ((k : Kernel.t), key) -> checks k.Kernel.name key (Store.program_key k.Kernel.program))
    [
      (Nas_cg.make Kernel.W, "5d926d11c6feb95e");
      (Nas_mg.make Kernel.W, "04c58542d23cefea");
      (Nas_ep.make Kernel.W, "4035cef1ad7184bd");
    ];
  let p5, _ = Test_harness.synthetic ~n_ops:5 ~poison:[] () in
  let p6, _ = Test_harness.synthetic ~n_ops:6 ~poison:[] () in
  checkb "different programs differ" true (Store.program_key p5 <> Store.program_key p6)

(* The context is the middle of every store key, so its bytes must not
   change either: [backend=compiled] stays although there is no engine
   choice any more. An injected context names its retry budget, and an
   inline deadline is named too. *)
let test_store_context_bytes () =
  let ep = Nas_ep.make Kernel.W and cg = Nas_cg.make Kernel.W in
  let inject =
    Result.get_ok (Faults.parse "seed=7,rate=0.2,modes=trap+hang+bitflip,transient")
  in
  let ctx ?eval_steps ?retries ?inject ?deadline bench =
    Campaign.context ?retries ?inject ?deadline
      { Wire.bench; cls = "W"; shadow = false; priority = 0; eval_steps; formats = ""; strategy = "" }
  in
  List.iter
    (fun (label, want, got) -> checks label want got)
    [
      ( "ep.W",
        "steps=default;backend=compiled;input=ep.W;reference=1d03afd443e8f806",
        Store.context (ctx "ep") ep );
      ( "ep.W budgeted",
        "steps=2000000;backend=compiled;input=ep.W;reference=1d03afd443e8f806",
        Store.context (ctx ~eval_steps:2000000 "ep") ep );
      ( "cg.W",
        "steps=default;backend=compiled;input=cg.W;reference=e4900f7317df8d57",
        Store.context (ctx "cg") cg );
      ( "cg.W budgeted",
        "steps=2000000;backend=compiled;input=cg.W;reference=e4900f7317df8d57",
        Store.context (ctx ~eval_steps:2000000 "cg") cg );
      ( "cg.W budgeted and injected",
        "steps=2000000;backend=compiled;input=cg.W;reference=e4900f7317df8d57;inject=seed=7,rate=0.2,modes=trap+hang+bitflip,transient;retries=0",
        Store.context (ctx ~eval_steps:2000000 ~inject "cg") cg );
      ( "cg.W budgeted, injected and retried",
        "steps=2000000;backend=compiled;input=cg.W;reference=e4900f7317df8d57;inject=seed=7,rate=0.2,modes=trap+hang+bitflip,transient;retries=2",
        Store.context (ctx ~eval_steps:2000000 ~retries:2 ~inject "cg") cg );
      ( "cg.W under a deadline",
        "steps=default;backend=compiled;input=cg.W;reference=e4900f7317df8d57;deadline=0.002",
        Store.context (ctx ~retries:2 ~deadline:0.002 "cg") cg );
    ]

(* -------------------------------------------------------------------- wal *)

let spec_gen =
  let open QCheck2.Gen in
  (* non-empty: an empty bench/cls escapes to an empty field, which the
     space-split line format cannot carry (and [submit] never sends) *)
  let word = string_size ~gen:printable (int_range 1 8) in
  (* the formats menu and strategy token round-trip through the same
     escaped-token slots; "" must survive as "" (it serializes as "-") *)
  let menu = oneofl [ ""; "bf16,single"; "f16"; "e5m10,e8m7,single" ] in
  let strat = oneofl [ ""; "bfs"; "split"; "delta"; "anneal:42" ] in
  map
    (fun ((bench, cls), (shadow, priority, steps), (formats, strategy)) ->
      { Wire.bench; cls; shadow; priority; eval_steps = steps; formats; strategy })
    (triple (pair word word)
       (triple bool (int_range (-5) 5) (option small_nat))
       (pair menu strat))

let outcome_gen =
  let open QCheck2.Gen in
  let why = small_string ~gen:printable in
  oneof
    [
      return (Wire.Done, "tested 45, final pass");
      return (Wire.Cancelled, "");
      map (fun w -> (Wire.Failed w, "failed run")) why;
      map (fun w -> (Wire.Quarantined w, "")) why;
    ]

let fuzz_wal_replay =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"wal: replay reconstructs the exact job table"
       QCheck2.Gen.(small_list (pair spec_gen (option outcome_gen)))
       (fun jobs ->
         let dir = temp_dir "craft_wal" in
         let path = Filename.concat dir "jobs.wal" in
         Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
             let wal = Wal.create ~path in
             let expect =
               List.mapi
                 (fun i (spec, outcome) ->
                   let id = Printf.sprintf "j%04d" (i + 1) in
                   Wal.append wal (Wal.Submitted { id; spec });
                   (match outcome with
                   | Some (state, summary) ->
                       Wal.append wal (Wal.Outcome { id; state; summary })
                   | None -> ());
                   (id, { Wal.spec; outcome }))
                 jobs
             in
             Wal.close wal;
             (* a torn tail must not perturb the table *)
             let oc = open_out_gen [ Open_append ] 0o644 path in
             output_string oc "outcome j00";
             close_out oc;
             let got = Wal.replay (Wal.load ~path) in
             if got <> expect then
               QCheck2.Test.fail_reportf "replayed table differs (%d vs %d entries)"
                 (List.length got) (List.length expect);
             true)))

let test_wal_drops_unactionable () =
  let dir = temp_dir "craft_wal" in
  let path = Filename.concat dir "jobs.wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let spec =
        { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
      in
      let wal = Wal.create ~path in
      Wal.append wal (Wal.Submitted { id = "j0001"; spec });
      (* outcome for a job never submitted: dropped *)
      Wal.append wal (Wal.Outcome { id = "j0099"; state = Wire.Done; summary = "?" });
      (* non-terminal outcome: dropped *)
      Wal.append wal (Wal.Outcome { id = "j0001"; state = Wire.Running; summary = "?" });
      Wal.close wal;
      (* close is idempotent, and a closed WAL drops appends *)
      Wal.close wal;
      Wal.append wal (Wal.Submitted { id = "j0002"; spec });
      match Wal.replay (Wal.load ~path) with
      | [ (id, { Wal.outcome; _ }) ] ->
          checks "job listed" "j0001" id;
          checkb "still unfinished" true (outcome = None)
      | table -> Alcotest.failf "expected one entry, got %d" (List.length table))

(* A WAL written by a pre-lattice daemon: submit records carry only seven
   tokens (no formats column); a pre-strategy daemon wrote eight (no
   strategy column). Both must load cleanly and resume with the
   single-only default menu and the default bfs strategy — byte-for-byte
   fixtures, not synthesized by today's writer. *)
let test_wal_loads_prelattice_lines () =
  let dir = temp_dir "craft_wal" in
  let path = Filename.concat dir "jobs.wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let oc = open_out path in
      output_string oc "# craft-wal v1\n";
      output_string oc "submit j0001 cg W 0 0 -\n";
      output_string oc "submit j0002 mg W 1 5 120000\n";
      output_string oc "submit j0003 ep W 0 0 - bf16,single\n";
      output_string oc "outcome j0001 done tested%2045\n";
      close_out oc;
      match Wal.replay (Wal.load ~path) with
      | [ (a, ea); (b, eb); (c, ec) ] ->
          checks "first id" "j0001" a;
          checks "second id" "j0002" b;
          checks "third id" "j0003" c;
          checks "old records resume single-only" "" ea.Wal.spec.Wire.formats;
          checks "steps survive alongside" "" eb.Wal.spec.Wire.formats;
          checks "7-token records resume as bfs" "" ea.Wal.spec.Wire.strategy;
          checks "8-token (pre-strategy) records keep their menu" "bf16,single"
            ec.Wal.spec.Wire.formats;
          checks "8-token records resume as bfs" "" ec.Wal.spec.Wire.strategy;
          checkb "other fields intact" true
            (eb.Wal.spec.Wire.shadow && eb.Wal.spec.Wire.priority = 5
            && eb.Wal.spec.Wire.eval_steps = Some 120000);
          checkb "outcome attached" true
            (match ea.Wal.outcome with Some (Wire.Done, _) -> true | _ -> false);
          (* and a strategy-era record in the same file round-trips both
             its menu and its strategy token *)
          let wal = Wal.create ~path in
          Wal.append wal
            (Wal.Submitted
               {
                 id = "j0004";
                 spec =
                   {
                     Wire.bench = "cg";
                     cls = "W";
                     shadow = false;
                     priority = 0;
                     eval_steps = None;
                     formats = "bf16,f16,single";
                     strategy = "anneal:7";
                   };
               });
          Wal.close wal;
          (match Wal.replay (Wal.load ~path) with
          | [ _; _; _; (d, ed) ] ->
              checks "new id" "j0004" d;
              checks "menu survives" "bf16,f16,single" ed.Wal.spec.Wire.formats;
              checks "strategy survives" "anneal:7" ed.Wal.spec.Wire.strategy
          | table -> Alcotest.failf "expected four entries, got %d" (List.length table))
      | table -> Alcotest.failf "expected three entries, got %d" (List.length table))

(* ------------------------------------------------------ torn-line property *)

(* One log's real writer, for the torn-line property. [write path items]
   opens [path] through it (resuming), appends [items] and closes; [read]
   and [decode] see records as the items that were written. [exact_torn]:
   a torn line that still decodes is always the record that was written
   (true for the store; a WAL record cut inside its last token can decode
   shortened). *)
type 'a writer = {
  write : string -> 'a list -> unit;
  read : string -> 'a list;
  decode : string -> 'a option;
  damage : string -> Durable_log.damage;
  exact_torn : bool;
  items : ('a list * 'a list) QCheck2.Gen.t;  (* before and after the crash *)
}

let store_writer =
  let keys prefix =
    QCheck2.Gen.map
      (List.mapi (fun i (k, v) -> (Printf.sprintf "%s%d/%s" prefix i k, v)))
      entries_gen
  in
  {
    write =
      (fun path items ->
        let s = Store.create ~path ~fsync_every:0 () in
        List.iter (fun (key, v) -> ignore (Store.find_or_compute s ~key (fun () -> v))) items;
        Store.close s);
    read = (fun path -> Store.scan ~path);
    decode =
      (fun line ->
        Option.map
          (fun r -> (r.Store.key, r.Store.verdict))
          (Store.codec.Durable_log.decode line));
    damage = (fun path -> snd (Durable_log.replay Store.codec ~path));
    exact_torn = true;
    items = QCheck2.Gen.pair (keys "o") (keys "f");
  }

let wal_writer =
  let records first =
    QCheck2.Gen.(
      map
        (List.mapi (fun i (spec, outcome) ->
             let id = Printf.sprintf "j%04d" (first + i) in
             match outcome with
             | None -> Wal.Submitted { id; spec }
             | Some (state, summary) -> Wal.Outcome { id; state; summary }))
        (list_size (int_bound 8) (pair spec_gen (option outcome_gen))))
  in
  {
    write =
      (fun path items ->
        let w = Wal.create ~path in
        List.iter (Wal.append w) items;
        Wal.close w);
    read = (fun path -> Wal.load ~path);
    decode = Wal.codec.Durable_log.decode;
    damage = (fun path -> snd (Durable_log.replay Wal.codec ~path));
    exact_torn = false;
    items = QCheck2.Gen.pair (records 1) (records 100);
  }

let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> []

(* Crash anywhere, restart, keep appending. A file cut at any byte
   replays its complete records, plus the torn last line when it still
   decodes; reopening it through the writer repairs that line, so every
   record appended afterwards replays too and nothing reads as torn. A
   run of garbage lines spliced anywhere drops only itself: those are the
   only bad lines, torn exactly when records follow them. *)
let check_torn_line w dir (original, fresh) (cut, splice, garbage) =
  let path = Filename.concat dir "log" in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  (* a file cut at byte [cut] *)
  w.write path original;
  let full = read_file path in
  let cut = cut mod (String.length full + 1) in
  let kept = String.sub full 0 cut in
  write_file path kept;
  let complete = match String.rindex_opt kept '\n' with Some i -> i + 1 | None -> 0 in
  let intact = max 0 (List.length (String.split_on_char '\n' kept) - 2) in
  let torn =
    match String.trim (String.sub kept complete (cut - complete)) with
    | "" -> None
    | line when line.[0] = '#' -> None
    | line -> w.decode line
  in
  if w.exact_torn && torn <> None && torn <> List.nth_opt original intact then
    fail "cut at %d: the torn line decodes to another record" cut;
  let survivors = take intact original @ Option.to_list torn in
  if w.read path <> survivors then fail "cut at %d: replay lost a complete record" cut;
  w.write path fresh;
  if w.read path <> survivors @ fresh then
    fail "cut at %d: %d record(s) appended after the restart, replay differs" cut
      (List.length fresh);
  let d = w.damage path in
  if d.Durable_log.bad <> 0 then fail "cut at %d: %d bad line(s) after the repair" cut d.bad;
  (* garbage lines spliced before line [at]; a "%zz" first field never
     decodes: not a store key or a WAL verb *)
  Sys.remove path;
  w.write path original;
  let lines = String.split_on_char '\n' (read_file path) in
  let at = splice mod List.length lines in
  let garbage = List.map (fun g -> "%zz " ^ g) garbage in
  write_file path
    (String.concat "\n"
       (List.concat (List.mapi (fun i l -> if i = at then garbage @ [ l ] else [ l ]) lines)));
  if w.read path <> original then fail "garbage before line %d changed the replay" at;
  w.write path fresh;
  if w.read path <> original @ fresh then fail "garbage before line %d: appends lost" at;
  let d = w.damage path in
  let after = List.length original - max 0 (at - 1) + List.length fresh in
  if d.bad <> List.length garbage || Durable_log.torn d <> (after > 0) then
    fail "garbage before line %d: bad=%d trailing=%d" at d.bad d.trailing_bad;
  Sys.remove path;
  true

let fuzz_torn_line =
  let garbage =
    QCheck2.Gen.(list_size (int_range 1 3) (string_size ~gen:(char_range ' ' '~') (int_bound 20)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"durable log: a torn or garbage line loses only itself, in every log"
       QCheck2.Gen.(
         pair
           (pair store_writer.items wal_writer.items)
           (triple (int_bound 10_000) small_nat garbage))
       (fun ((s, w), crash) ->
         let dir = temp_dir "craft_torn" in
         Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
             check_torn_line store_writer dir s crash
             && check_torn_line wal_writer dir w crash)))

(* Job results and compactions go through Durable_log.replace: the visible
   file is always a whole old or new content, never a prefix. *)
let with_replaced_file f =
  let dir = temp_dir "craft_replace" in
  let path = Filename.concat dir "result" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      f path (fun text -> Durable_log.replace ~path (fun oc -> output_string oc text)))

let test_replace_overwrites () =
  with_replaced_file (fun path replace ->
      replace "first\n";
      replace "second\n";
      checks "the second replace wins" "second\n" (read_file path);
      checkb "no temp file left behind" false (Sys.file_exists (path ^ ".tmp")))

let test_replace_partial_tmp () =
  with_replaced_file (fun path replace ->
      let tmp = path ^ ".tmp" in
      replace "second\n";
      (* a writer that died mid-write leaves a partial temp file *)
      write_file tmp "thi";
      checks "the visible file is intact" "second\n" (read_file path);
      replace "third\n";
      checks "the next replace overwrites the partial temp" "third\n" (read_file path);
      checkb "no temp file left after it" false (Sys.file_exists tmp))

(* ---------------------------------------------------------------- journal *)

(* [craft journal --verify] reads a store log (inline or the daemon's) or
   a WAL, picking the codec by the header line *)
let test_journal_verify () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_jverify" in
      Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
          let verify file =
            let out = Filename.concat dir "verify.out" in
            let rc =
              Sys.command
                (Printf.sprintf "%s journal %s --verify > %s 2>&1" (Filename.quote cli)
                   (Filename.quote file) (Filename.quote out))
            in
            (rc, read_file out)
          in
          let store = Filename.concat dir "store.log" in
          write_file store "# craft-store v1\nk1 pass 1\nk2%20x fail 2\nk3 fa";
          let rc, out = verify store in
          checki "store log truncation passes" 0 rc;
          checkb "store log records" true (contains out "store log, 2 record(s)");
          checkb "store log tail tolerated" true (contains out "trailing corruption: 1");
          let wal = Filename.concat dir "jobs.wal" in
          write_file wal
            "# craft-wal v1\nsubmit j0001 cg W 0 0 - - -\nscribbled!\noutcome j0001 done \
             tested%2045\n";
          let rc, out = verify wal in
          checki "torn WAL fails" 1 rc;
          checkb "WAL records" true (contains out "job WAL, 2 record(s)");
          checkb "WAL torn line counted" true (contains out "TORN: 1 "))

(* The inline memo keys every verdict by the kernel's input: a class-W
   log resumed at class A serves nothing, and the campaign writes ep.A's
   run-alone final. A log in the retired journal format is refused and
   left byte-unchanged. *)
let test_journal_resume_across_classes () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_jclass" in
      Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
          let file name = Filename.concat dir name in
          let craft args =
            Sys.command
              (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
                 (Filename.quote (file "out")))
          in
          (* "H hit(s), F fresh" from a search's journal line *)
          let hits_fresh out =
            let marker = " replayed, " in
            let n = String.length marker in
            let rec go i =
              if i + n > String.length out then ""
              else if String.sub out i n = marker then
                match String.split_on_char ',' (String.sub out (i + n) (String.length out - i - n)) with
                | hits :: fresh :: _ -> hits ^ "," ^ fresh
                | _ -> ""
              else go (i + 1)
            in
            go 0
          in
          let log = file "ep.log" in
          checki "ep.W journaled" 0 (craft ("search ep -c W --journal " ^ Filename.quote log));
          let w_records = List.length (Store.scan ~path:log) in
          checki "ep.A resumed from the W log" 0
            (craft
               (Printf.sprintf "search ep -c A --journal %s --resume -o %s" (Filename.quote log)
                  (Filename.quote (file "resumed.cfg"))));
          let resumed = read_file (file "out") in
          checki "ep.A alone" 0
            (craft
               (Printf.sprintf "search ep -c A --journal %s -o %s"
                  (Filename.quote (file "alone.log"))
                  (Filename.quote (file "alone.cfg"))));
          let alone = read_file (file "out") in
          checks "the resumed final is ep.A's run-alone final" (read_file (file "alone.cfg"))
            (read_file (file "resumed.cfg"));
          checkb "the W log was replayed" true
            (w_records > 0 && contains resumed (Printf.sprintf ": %d replayed," w_records));
          checks "no W verdict served: hits and fresh as run alone" (hits_fresh alone)
            (hits_fresh resumed);
          let v1 = file "v1.journal" in
          let fixture =
            read_file
              (Filename.concat (Filename.dirname Sys.executable_name) "durable/fixture/journal")
          in
          write_file v1 fixture;
          checki "a v1 journal is refused" 1
            (craft ("search ep -c W --resume --journal " ^ Filename.quote v1));
          checks "and left byte-unchanged" fixture (read_file v1))

(* ------------------------------------------------------------ byte oracle *)

(* Every durable writer's exact bytes, re-recorded by the fixture script
   and compared with the copies recorded under test/durable/fixture. *)
let test_durable_bytes () =
  let dir = temp_dir "craft_durable" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let fixture =
        Filename.concat (Filename.dirname Sys.executable_name) "durable/fixture"
      in
      List.iter
        (fun (name, bytes) -> checks name (read_file (Filename.concat fixture name)) bytes)
        (Durable_fixture.record dir))

(* --------------------------------------------------------------- lockfile *)

let test_lockfile () =
  let dir = temp_dir "craft_lock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      (match Lockfile.acquire ~dir with
      | Ok lock ->
          checkb "lockfile exists" true (Sys.file_exists (Lockfile.path ~dir));
          checkb "pid recorded" true
            (contains (read_file (Lockfile.path ~dir)) (string_of_int (Unix.getpid ())));
          Lockfile.release lock;
          checkb "lockfile removed" false (Sys.file_exists (Lockfile.path ~dir))
      | Error why -> Alcotest.fail why);
      (* a stale lockfile from a dead pid holds no kernel lock: reclaimed *)
      write_file (Lockfile.path ~dir) "999999\n";
      match Lockfile.acquire ~dir with
      | Ok lock -> Lockfile.release lock
      | Error why -> Alcotest.failf "stale lock not reclaimed: %s" why)

(* -------------------------------------------- scheduler: in-process death *)

(* The same synthetic bundle the server tests use. *)
let synthetic_kernel ?(name = "syn.W") ~n_ops ~poison () =
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
    verify = (fun res -> res = reference);
    reference;
    hints = Config.empty;
    comm_bytes = (fun ~ranks:_ _ -> 0.0);
  }

let default_spec =
  { Wire.bench = "syn"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }

let with_stack ?log ?(state_dir = None) ~resolve f =
  let pool = Pool.create ~options:{ Pool.default_options with workers = 2 } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let options = { Scheduler.default_options with state_dir } in
  let sched = Scheduler.create ~options ?log ~resolve ~pool ~cache ~store () in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched ~cancel_running:true ();
      Pool.shutdown pool)
    (fun () -> f sched)

let wait_done sched id =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Scheduler.result sched id with
    | Ok r -> r
    | Error _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        go ()
    | Error why -> Alcotest.failf "job %s never finished: %s" id why
  in
  go ()

(* Scheduler 2 on scheduler 1's state dir is exactly a daemon restart,
   minus the SIGKILL (the chaos test below supplies that part): finished
   jobs re-list with their persisted result, unfinished ones re-run, and
   the id sequence continues. *)
let test_scheduler_recovers_job_table () =
  let dir = temp_dir "craft_recover" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let k = synthetic_kernel ~n_ops:4 ~poison:[ 1 ] () in
      let resolve _ = Ok k in
      let done_text =
        with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
            let id = Result.get_ok (Scheduler.submit sched default_spec) in
            checks "first id" "j0001" id;
            let status, text, _ = wait_done sched id in
            checkb "done" true (status.Wire.state = Wire.Done);
            text)
      in
      (* append a submission the dead daemon never finished *)
      let wal = Wal.create ~path:(Filename.concat dir "jobs.wal") in
      Wal.append wal (Wal.Submitted { id = "j0002"; spec = default_spec });
      Wal.close wal;
      with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
          (match Scheduler.result sched "j0001" with
          | Ok (status, text, _) ->
              checkb "j0001 re-listed done" true (status.Wire.state = Wire.Done);
              checks "persisted result text" done_text text
          | Error why -> Alcotest.failf "j0001 not recovered: %s" why);
          let status2, text2, _ = wait_done sched "j0002" in
          checkb "j0002 re-ran to done" true (status2.Wire.state = Wire.Done);
          checks "identical final" done_text text2;
          (* the id sequence continues past the recovered jobs *)
          let id3 = Result.get_ok (Scheduler.submit sched default_spec) in
          checks "next id continues" "j0003" id3;
          let _ = wait_done sched id3 in
          ()))

(* Recovery validates a spec again, as submission does: a WAL record
   whose strategy token or format menu no longer parses is dropped with a
   log line naming the token, never run under a default. *)
let test_scheduler_drops_invalid_recovered_specs () =
  let dir = temp_dir "craft_recover" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let wal = Wal.create ~path:(Filename.concat dir "jobs.wal") in
      List.iter
        (fun (id, spec) -> Wal.append wal (Wal.Submitted { id; spec }))
        [
          ("j0001", { default_spec with Wire.strategy = "zz9" });
          ("j0002", { default_spec with Wire.formats = "bf16,zz9" });
          ("j0003", default_spec);
        ];
      Wal.close wal;
      let lock = Mutex.create () in
      let lines = ref [] in
      let log s = Mutex.protect lock (fun () -> lines := s :: !lines) in
      let k = synthetic_kernel ~n_ops:3 ~poison:[ 1 ] () in
      with_stack ~log ~state_dir:(Some dir) ~resolve:(fun _ -> Ok k) (fun sched ->
          Alcotest.(check (list string))
            "only the valid job is re-listed" [ "j0003" ]
            (List.map (fun s -> s.Wire.id) (Result.get_ok (Scheduler.status sched None)));
          let dropped id what =
            match
              Mutex.protect lock (fun () ->
                  List.find_opt (String.starts_with ~prefix:(id ^ ": not recovered")) !lines)
            with
            | Some l -> checkb (id ^ " names its bad token") true (contains l what && contains l "zz9")
            | None -> Alcotest.failf "no log line drops %s" id
          in
          dropped "j0001" "strategy";
          dropped "j0002" "format";
          let status, _, _ = wait_done sched "j0003" in
          checkb "the valid job re-ran to done" true (status.Wire.state = Wire.Done)))

let test_events_cursor_resets_after_restart () =
  let dir = temp_dir "craft_recover" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let k = synthetic_kernel ~n_ops:3 ~poison:[] () in
      let resolve _ = Ok k in
      let cursor =
        with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
            let id = Result.get_ok (Scheduler.submit sched default_spec) in
            let _ = wait_done sched id in
            let next, lines, _ = Result.get_ok (Scheduler.events sched ~job:id ~from:0) in
            checkb "events streamed" true (List.length lines > 0);
            next)
      in
      with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
          (* the old cursor is past the recovered (shorter) log: the
             scheduler restarts the stream instead of serving silence *)
          let _, lines, final =
            Result.get_ok (Scheduler.events sched ~job:"j0001" ~from:cursor)
          in
          checkb "stream restarted" true (List.length lines > 0);
          checkb "terminal and drained" true final;
          checkb "recovery event present" true
            (List.exists (fun l -> contains l "RECOVERED") lines)))

(* ------------------------------------------------- daemon kill -9 (chaos) *)

let spawn_daemon cli ~socket ~state_dir ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* close the low fds the test runner leaves open (alcotest keeps dups of
     its stdout/stderr around fd 4-5): a daemon that outlives a dying test
     must not pin the runner's pipes. Single-digit fds only — dash does not
     parse multi-digit fd redirections. [exec "$0"] keeps the daemon on
     sh's own pid, so the returned pid is the one to SIGKILL. *)
  let pid =
    Unix.create_process "/bin/sh"
      [|
        "sh"; "-c";
        {|exec 3>&- 4>&- 5>&- 6>&- 7>&- 8>&- 9>&-; exec "$0" "$@"|};
        cli; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--jobs"; "1";
        "--wave"; "2"; "--workers"; "2"; "--store-fsync"; "1";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  pid

let wait_for ?(deadline = 30.0) what cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < deadline do
    Thread.delay 0.002
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let test_daemon_kill9_recovery () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_chaos" in
      let state_dir = Filename.concat dir "state" in
      let socket = Filename.concat dir "d.sock" in
      let log = Filename.concat dir "serve.log" in
      let killed = ref None in
      let stop pid signal =
        (try Unix.kill pid signal with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      in
      Fun.protect
        ~finally:(fun () ->
          Option.iter (fun pid -> stop pid Sys.sigkill) !killed;
          rm_rf dir)
        (fun () ->
          (* leg 1: daemon, submit cg.W, SIGKILL once a verdict is stored *)
          let pid = spawn_daemon cli ~socket ~state_dir ~log in
          killed := Some pid;
          let c = Result.get_ok (Client.connect (Server.Unix_path socket)) in
          let spec =
            { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
          in
          let id = Result.get_ok (Client.submit c spec) in
          let stored () = List.length (Store.scan ~path:(Filename.concat state_dir "store.log")) in
          wait_for "first stored verdict" (fun () -> stored () >= 1);
          Unix.kill pid Sys.sigkill;
          (match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | _, _ -> Alcotest.fail "daemon did not die of SIGKILL");
          killed := None;
          let survivors = stored () in
          (* leg 2: restart on the same state dir; the SAME client object
             rides through via its idempotent-retry reconnect *)
          let pid2 = spawn_daemon cli ~socket ~state_dir ~log in
          killed := Some pid2;
          let status, recovered_text, _ =
            match Client.wait ~rejoin:60.0 c id with
            | Ok r -> r
            | Error why -> Alcotest.failf "wait across restart failed: %s" why
          in
          checkb "recovered job is done" true (status.Wire.state = Wire.Done);
          checkb "non-empty final config" true (String.length recovered_text > 0);
          let served = status.Wire.store_hits in
          let fresh = status.Wire.tested - served in
          Client.close c;
          stop pid2 Sys.sigterm;
          killed := None;
          (* the daemon's own log proves replay actually happened *)
          let serve_log = read_file log in
          checkb "store replayed on restart" true (contains serve_log "store: replayed");
          checkb "job requeued on restart" true (contains serve_log "RECOVERED requeued");
          (* the oracle: one uninterrupted inline run of the same search *)
          let inline_cfg = Filename.concat dir "inline.cfg" in
          let inline_out = Filename.concat dir "inline.out" in
          let rc =
            Sys.command
              (Printf.sprintf "%s search cg -c W -o %s > %s 2>&1"
                 (Filename.quote cli) (Filename.quote inline_cfg) (Filename.quote inline_out))
          in
          checki "inline search succeeds" 0 rc;
          checks "final configuration byte-identical to the uninterrupted run"
            (read_file inline_cfg) recovered_text;
          (* the recovered job re-walks the campaign, so it tests as many
             configurations as a cold run: every verdict stored before the
             kill is served from the store, and the fresh evaluations are
             strictly fewer than a cold run's *)
          checkb
            (Printf.sprintf "store hits (%d) >= verdicts stored before the kill (%d) >= 1"
               served survivors)
            true
            (served >= survivors && survivors >= 1);
          let cold =
            let out = read_file inline_out in
            let marker = "configurations tested: " in
            let ml = String.length marker in
            let rec find i =
              if i + ml > String.length out then None
              else if String.sub out i ml = marker then begin
                let rest = String.sub out (i + ml) (String.length out - i - ml) in
                let line =
                  match String.index_opt rest '\n' with
                  | Some j -> String.sub rest 0 j
                  | None -> rest
                in
                int_of_string_opt (String.trim line)
              end
              else find (i + 1)
            in
            find 0
          in
          match cold with
          | None -> Alcotest.fail "inline run did not report configurations tested"
          | Some cold ->
              checkb
                (Printf.sprintf "fresh evaluations (%d) strictly fewer than cold (%d)" fresh
                   cold)
                true (fresh < cold))

(* A final that fails the kernel's own verification is a failure: the
   search still prints its full report, then exits 3. *)
let test_failing_final_exits_3 () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_final" in
      Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
          let out = Filename.concat dir "out" in
          let search bench =
            let rc =
              Sys.command
                (Printf.sprintf "%s search %s -c W > %s 2>&1" (Filename.quote cli) bench
                   (Filename.quote out))
            in
            (rc, read_file out)
          in
          let rc, mg = search "mg" in
          checki "mg.W exits 3" 3 rc;
          checkb "mg.W reports the failing final" true
            (contains mg "final verification: fail");
          checkb "after its full report" true (contains mg "verdicts: ");
          let rc, ep = search "ep" in
          checki "ep.W exits 0" 0 rc;
          checkb "ep.W reports a passing final" true (contains ep "final verification: pass"))

let test_second_daemon_refused () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_chaos" in
      let state_dir = Filename.concat dir "state" in
      let running = ref None in
      Fun.protect
        ~finally:(fun () ->
          Option.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            !running;
          rm_rf dir)
        (fun () ->
          let pid =
            spawn_daemon cli ~socket:(Filename.concat dir "a.sock") ~state_dir
              ~log:(Filename.concat dir "a.log")
          in
          running := Some pid;
          (* the first daemon is up once its socket accepts *)
          let c =
            Result.get_ok (Client.connect (Server.Unix_path (Filename.concat dir "a.sock")))
          in
          ignore (Client.stats c);
          Client.close c;
          let pid2 =
            spawn_daemon cli ~socket:(Filename.concat dir "b.sock") ~state_dir
              ~log:(Filename.concat dir "b.log")
          in
          (match Unix.waitpid [] pid2 with
          | _, Unix.WEXITED 1 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "second daemon exited %d, want 1" n
          | _, _ -> Alcotest.fail "second daemon did not exit cleanly");
          checkb "refusal names the lock" true
            (contains (read_file (Filename.concat dir "b.log")) "locked by another live \
             daemon"))

let suite =
  [
    Alcotest.test_case "store: durable log round-trips across lifetimes" `Quick
      test_store_durable_roundtrip;
    Alcotest.test_case "store: close is idempotent and keeps serving" `Quick
      test_store_closed_keeps_serving;
    Alcotest.test_case "store: offline compaction dedups last-wins" `Quick
      test_store_compact;
    Alcotest.test_case "store: program keys keep their on-disk bytes" `Quick
      test_store_program_key;
    Alcotest.test_case "store: contexts keep their on-disk bytes" `Quick
      test_store_context_bytes;
    fuzz_wal_replay;
    Alcotest.test_case "wal: unactionable outcomes are dropped" `Quick
      test_wal_drops_unactionable;
    Alcotest.test_case "wal: pre-lattice 7-token submits load" `Quick
      test_wal_loads_prelattice_lines;
    fuzz_torn_line;
    Alcotest.test_case "durable log: replace overwrites atomically" `Quick
      test_replace_overwrites;
    Alcotest.test_case "durable log: partial temp write never corrupts" `Quick
      test_replace_partial_tmp;
    Alcotest.test_case "journal: --verify classifies truncation vs torn" `Quick
      test_journal_verify;
    Alcotest.test_case "journal: a class-W log resumed at class A serves nothing" `Quick
      test_journal_resume_across_classes;
    Alcotest.test_case "search: a failing final exits 3" `Quick test_failing_final_exits_3;
    Alcotest.test_case "durable writers: bytes match the recorded fixture" `Quick
      test_durable_bytes;
    Alcotest.test_case "lockfile: acquire/release/stale-reclaim" `Quick test_lockfile;
    Alcotest.test_case "scheduler: WAL recovery re-lists and re-runs" `Quick
      test_scheduler_recovers_job_table;
    Alcotest.test_case "scheduler: WAL recovery drops a spec that no longer validates" `Quick
      test_scheduler_drops_invalid_recovered_specs;
    Alcotest.test_case "scheduler: stale event cursors restart the stream" `Quick
      test_events_cursor_resets_after_restart;
    Alcotest.test_case "daemon: kill -9 mid-campaign, restart, identical final" `Slow
      test_daemon_kill9_recovery;
    Alcotest.test_case "daemon: second daemon on a locked state dir is refused" `Slow
      test_second_daemon_refused;
  ]
