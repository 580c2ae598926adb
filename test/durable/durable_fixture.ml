(* The exact bytes of every durable writer. [record dir] drives the
   journal, the result-store log and its compaction, and the job-table WAL
   through a fixed script inside [dir] and returns each file as
   [(name, bytes)]. The copies committed under fixture/ pin what the
   writers emit; the recovery suite re-records them and compares byte for
   byte. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

(* four const+add chains in module "syn", as in the search tests *)
let program () =
  let t = Builder.create () in
  let out = Builder.alloc_f t 4 in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        for k = 0 to 3 do
          let c = Builder.fconst b 0.5 in
          Builder.storef b (Builder.at (out + k)) (Builder.fadd b c c)
        done)
  in
  Builder.program t ~main

(* written fresh, then resumed: the second life continues the sequence
   column and never re-appends a digest the first life recorded *)
let journal dir =
  let prog = program () in
  let path = Filename.concat dir "journal" in
  let cands = Static.candidates prog in
  let insn i flag = Config.set_insn Config.empty cands.(i).Static.addr flag in
  let j = Journal.create ~path prog in
  Journal.record j Config.empty Verdict.Pass;
  Journal.record j (insn 0 Config.Single) (Verdict.Trapped (0x1f, "operand | 100% odd"));
  Journal.record j (Config.set_module Config.empty "syn" Config.Single) Verdict.Fail_verify;
  Journal.record j (insn 0 Config.Single) Verdict.Fail_verify;
  Journal.close j;
  let j = Journal.create ~resume:true ~path prog in
  Journal.record j (insn 1 (Config.Fmt Formats.bfloat16)) Verdict.Step_timeout;
  Journal.record j Config.empty Verdict.Fail_verify;
  Journal.record j (insn 2 Config.Single) (Verdict.Crashed "boom: with spaces");
  Journal.record j (insn 3 (Config.Fmt Formats.half)) (Verdict.Pruned "shadow said so");
  Journal.close j;
  [ ("journal", read_file path) ]

(* two daemon lifetimes batching fsyncs by 2, keys that need escaping,
   then an offline compaction after a hand-appended duplicate and a torn
   tail *)
let store dir =
  let path = Filename.concat dir "store.log" in
  let life verdicts =
    let s = Store.create ~path ~fsync_every:2 () in
    List.iter (fun (key, v) -> ignore (Store.find_or_compute s ~key (fun () -> v))) verdicts;
    Store.close s
  in
  let k1 = "0123456789abcdef/steps=default/a1b2c3d4e5f60718" in
  life
    [
      (k1, Verdict.Pass);
      ("key with spaces/steps=100/50% | odd:colon", Verdict.Fail_verify);
      ("k3\ttab/steps=default/x", Verdict.Trapped (0x2a, "out of bounds"));
    ];
  life
    [
      ("k4/steps=default/y", Verdict.Step_timeout);
      ("k5/steps=default/z", Verdict.Crashed "boom with spaces");
      (k1, Verdict.Fail_verify);
      ("k6/steps=default/w", Verdict.Pruned "shadow: 1e-3 > bound");
    ];
  let lifetimes = read_file path in
  append_raw path (Printf.sprintf "%s fail 99\nk7 pass" (Verdict.escape k1));
  (match Store.compact ~path with
  | Ok _ -> ()
  | Error why -> failwith ("store fixture: compaction failed: " ^ why));
  [ ("store.log", lifetimes); ("store.compacted.log", read_file path) ]

(* every submit and outcome shape, across a reopen; an outcome with an
   empty summary is written with a trailing space *)
let wal dir =
  let path = Filename.concat dir "jobs.wal" in
  let spec bench cls =
    {
      Wire.bench;
      cls;
      shadow = false;
      priority = 0;
      eval_steps = None;
      formats = "";
      strategy = "";
    }
  in
  let w = Wal.create ~path in
  Wal.append w (Wal.Submitted { id = "j0001"; spec = spec "cg" "W" });
  Wal.append w
    (Wal.Submitted
       {
         id = "j0002";
         spec =
           {
             (spec "mg" "A") with
             shadow = true;
             priority = -3;
             eval_steps = Some 120000;
             formats = "bf16,f16,single";
             strategy = "anneal:7";
           };
       });
  Wal.append w (Wal.Outcome { id = "j0001"; state = Wire.Done; summary = "tested 45, pass" });
  Wal.append w (Wal.Outcome { id = "j0002"; state = Wire.Cancelled; summary = "" });
  Wal.close w;
  let w = Wal.create ~path in
  Wal.append w (Wal.Submitted { id = "j0003"; spec = spec "odd name" "W|%" });
  Wal.append w (Wal.Outcome { id = "j0003"; state = Wire.Running; summary = "" });
  Wal.append w
    (Wal.Outcome { id = "j0003"; state = Wire.Failed "driver: x | y"; summary = "no final" });
  Wal.append w (Wal.Submitted { id = "j0004"; spec = { (spec "ep" "W") with strategy = "delta" } });
  Wal.append w (Wal.Outcome { id = "j0004"; state = Wire.Queued; summary = "" });
  Wal.append w
    (Wal.Outcome { id = "j0004"; state = Wire.Quarantined "3 deaths: boom"; summary = "" });
  Wal.close w;
  [ ("jobs.wal", read_file path) ]

let record dir = journal dir @ store dir @ wal dir
