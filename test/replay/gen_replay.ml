(* Print the search-driver replay fixture to stdout:

     dune exec test/replay/gen_replay.exe > test/replay/replay.txt

   The committed file was recorded from the two-driver tree that preceded
   the single wave-machine driver; see replay.ml for what each line holds. *)

let () =
  let ckpt_path = Filename.temp_file "craft_replay" ".ckpt" in
  print_endline
    "# search-driver replay fixture: <subject>/<run> <strategy> <field>=<value>... \
     (regenerate: dune exec test/replay/gen_replay.exe)";
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_path with Sys_error _ -> ())
    (fun () ->
      Replay.run_groups ~ckpt_path
        (Replay.synthetic_groups @ Replay.kernel_groups)
        (fun key fields -> print_endline (key ^ " " ^ Replay.render fields)))
