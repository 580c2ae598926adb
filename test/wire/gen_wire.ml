(* Record the wire protocol's byte fixture into FILE:

     dune exec test/wire/gen_wire.exe -- test/wire/frames.txt

   See wire_frames.ml for the frames it encodes. *)

let () = Out_channel.with_open_bin Sys.argv.(1) (fun oc -> output_string oc (Wire_frames.record ()))
