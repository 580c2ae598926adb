(* Committed golden outcomes: one line per campaign spec.

     <bench>.<class> <strategy> <menu> w<wave>  digest=<hex> text=<md5> bits=<n> pass=<bool> evals=<n>

   [digest] is Config.digest of the final configuration, [text] the MD5 of
   its exchange text (Config.print), so a served final that matches the
   line is byte-identical to the inline one the line was generated from. *)

type spec = {
  bench : string;
  cls : Kernel.class_;
  strategy : Strategy.token;
  menu : string;  (** Formats.menu_of_string syntax; "" = single only *)
  wave : int;  (** evaluations per wave (Bfs.options.workers) *)
}

type outcome = { digest : string; text : string; bits : int; pass : bool; evals : int }

let key s =
  Printf.sprintf "%s.%s %s %s w%d" s.bench (Kernel.class_name s.cls)
    (Strategy.to_string s.strategy)
    (if s.menu = "" then "-" else s.menu)
    s.wave

(* [text] is the final's exchange text as delivered: Config.print of [cfg]
   inline, the daemon's reply when served. *)
let outcome_of program cfg ~text ~pass ~evals =
  {
    digest = Config.digest program cfg;
    text = Digest.to_hex (Digest.string text);
    bits = Config.bits_saved program cfg;
    pass;
    evals;
  }

let to_string o =
  Printf.sprintf "digest=%s text=%s bits=%d pass=%b evals=%d" o.digest o.text o.bits o.pass
    o.evals

let path = "perfbench/golden.txt"

let load () =
  let tbl = Hashtbl.create 32 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         (* the key is the first four fields, the outcome the rest *)
         match String.split_on_char ' ' line with
         | a :: b :: c :: d :: rest when line.[0] <> '#' ->
             Hashtbl.replace tbl (String.concat " " [ a; b; c; d ]) (String.concat " " rest)
         | _ -> ());
  tbl

let check tbl spec outcome =
  match Hashtbl.find_opt tbl (key spec) with
  | Some expected when String.equal expected (to_string outcome) -> Ok ()
  | Some expected ->
      Error (Printf.sprintf "%s: got %s, golden %s" (key spec) (to_string outcome) expected)
  | None -> Error (Printf.sprintf "%s: no golden line" (key spec))

let save specs_outcomes =
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# Golden campaign outcomes for perfbench (regenerate: see perfbench/README.md)\n";
      List.iter
        (fun (spec, o) -> Printf.fprintf oc "%s %s\n" (key spec) (to_string o))
        specs_outcomes)
