(* Print the search-driver replay fixture to stdout:

     dune exec test/replay/gen_replay.exe > test/replay/replay.txt

   The committed file was recorded from the two-driver tree that preceded
   the single wave-machine driver, so its split/delta/anneal [log] fields
   hold that recording (they are not compared); regenerating rewrites
   them. Edit it by hand, line by line, when runs or fields are dropped.
   See replay.ml for what each line holds. *)

let () =
  print_endline
    "# search-driver replay fixture: <subject>/<run> <strategy> <field>=<value>... \
     (regenerate: dune exec test/replay/gen_replay.exe)";
  Replay.run_groups
    (Replay.synthetic_groups @ Replay.kernel_groups)
    (fun key fields -> print_endline (key ^ " " ^ Replay.render fields))
