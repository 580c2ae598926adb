(* The search-driver replay oracle (see replay/replay.ml): recompute every
   campaign of the committed fixture and compare it field by field. bfs
   must reproduce every field byte for byte. split, delta and anneal must
   reproduce their evaluation sequence and outcomes, final, result
   counters and interruption; their narration fields (log, snapshot
   count, checkpoint bytes, restored counters) are not compared. *)

let fixture () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "replay/replay.txt"
  in
  let tbl = Hashtbl.create 1024 in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match Replay.parse line with
           | Some (key, fields) -> Hashtbl.replace tbl key fields
           | None -> Alcotest.failf "unparseable fixture line %S" line);
  tbl

let replay groups () =
  let recorded = fixture () in
  let ckpt_path = Filename.temp_file "craft_replay" ".ckpt" in
  let mismatches = ref [] in
  let miss fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_path with Sys_error _ -> ())
    (fun () ->
      Replay.run_groups ~ckpt_path groups (fun key fields ->
          match Hashtbl.find_opt recorded key with
          | None -> miss "%s: not in the fixture" key
          | Some want ->
              let strict = String.ends_with ~suffix:" bfs" key in
              List.iter
                (fun (field, got) ->
                  if strict || not (List.mem field Replay.narration) then
                    match List.assoc_opt field want with
                    | Some v when v = got -> ()
                    | v ->
                        miss "%s: %s=%s, recorded %s" key field got
                          (Option.value v ~default:"nothing"))
                fields));
  match List.rev !mismatches with
  | [] -> ()
  | ms ->
      Alcotest.failf "%d field(s) differ from the recording:\n%s" (List.length ms)
        (String.concat "\n" ms)

let suite =
  [
    ("replay: fuzzed synthetics, full option matrix", `Quick, replay Replay.synthetic_groups);
    ("replay: cg/mg/ep at class W", `Slow, replay Replay.kernel_groups);
  ]
