(* Record the durable writers' byte fixture into DIR:

     dune exec test/durable/gen_durable.exe -- test/durable/fixture

   See durable_fixture.ml for the script each file is written by. *)

let () =
  let out = Sys.argv.(1) in
  let dir = Filename.temp_file "craft_durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      List.iter
        (fun (name, bytes) ->
          Out_channel.with_open_bin (Filename.concat out name) (fun oc ->
              output_string oc bytes))
        (Durable_fixture.record dir))
