(* Aggregation of shadow-tracer accumulators up the Config structure
   hierarchy (instruction -> block -> function -> module), prediction of a
   passing configuration, and ranking of candidates by predicted
   tolerance. *)

type node_stats = {
  insns : int;
  observed : int;
  execs : int;
  max_rel : float;
  mean_rel : float;
  max_local : float;
  max_mag : float;
  cancels : int;
  cancel_blowups : int;
  flips : int;
}

type t = {
  program : Ir.program;
  base : Config.t;
  threshold : float;
  stats : Shadow_tracer.insn_stats array;
}

let default_threshold = 1e-8

let make ?(threshold = default_threshold) ?(base = Config.empty) program tracer =
  { program; base; threshold; stats = Shadow_tracer.stats tracer }

let stat_at t addr =
  if addr >= 0 && addr < Array.length t.stats then Some t.stats.(addr) else None

let max_rel_at t addr =
  match stat_at t addr with Some st -> st.Shadow_tracer.max_rel | None -> 0.0

let flips_at t addr =
  match stat_at t addr with Some st -> st.Shadow_tracer.flips | None -> 0

(* Candidates the search can actually flip: effective base flag <> Ignore. *)
let live_insns t node =
  List.filter
    (fun (i : Static.insn_info) -> Config.effective t.base i <> Config.Ignore)
    (Static.node_insns node)

let divergence t insns =
  List.fold_left (fun acc (i : Static.insn_info) -> Float.max acc (max_rel_at t i.addr)) 0.0 insns

let has_flips t insns =
  List.exists (fun (i : Static.insn_info) -> flips_at t i.addr > 0) insns

let node_stats t node =
  let insns = live_insns t node in
  let z =
    {
      insns = List.length insns;
      observed = 0;
      execs = 0;
      max_rel = 0.0;
      mean_rel = 0.0;
      max_local = 0.0;
      max_mag = 0.0;
      cancels = 0;
      cancel_blowups = 0;
      flips = 0;
    }
  in
  let acc, sum =
    List.fold_left
      (fun (acc, sum) (i : Static.insn_info) ->
        match stat_at t i.addr with
        | None -> (acc, sum)
        | Some st ->
            ( {
                acc with
                observed = (acc.observed + if st.execs > 0 then 1 else 0);
                execs = acc.execs + st.execs;
                max_rel = Float.max acc.max_rel st.max_rel;
                max_local = Float.max acc.max_local st.max_local;
                max_mag = Float.max acc.max_mag st.max_mag;
                cancels = acc.cancels + st.cancels;
                cancel_blowups = acc.cancel_blowups + st.cancel_blowups;
                flips = acc.flips + st.flips;
              },
              sum +. st.sum_rel ))
      (z, 0.0) insns
  in
  { acc with mean_rel = (if acc.execs > 0 then sum /. float_of_int acc.execs else 0.0) }

(* A node qualifies for the predicted configuration when every live
   candidate in it stayed below the divergence threshold and no
   control-flow flip was observed anywhere inside. Unexecuted instructions
   have zero recorded divergence and qualify — they cannot have hurt the
   traced inputs, and the predicted configuration is verified by a real
   evaluation before the search trusts it. *)
let node_predicted t node =
  let insns = live_insns t node in
  insns <> []
  && (not (has_flips t insns))
  && divergence t insns <= t.threshold

let children = function
  | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
  | Static.Insn _ -> []

(* Maximal qualifying nodes: a qualifying node subsumes its children. *)
let predicted_nodes t =
  let rec walk acc node =
    if live_insns t node = [] then acc
    else if node_predicted t node then node :: acc
    else List.fold_left walk acc (children node)
  in
  List.rev (List.fold_left walk [] (Static.tree t.program))

(* Every structure node with live candidates, most tolerant first. *)
let ranked t =
  let rec collect acc node =
    if live_insns t node = [] then acc
    else
      let d = if has_flips t (live_insns t node) then infinity else divergence t (live_insns t node) in
      List.fold_left collect ((node, d) :: acc) (children node)
  in
  let all = List.fold_left collect [] (Static.tree t.program) in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev all)

(* ---- rendering --------------------------------------------------------- *)

let fmt_div d =
  if d = 0.0 then "0"
  else if Float.is_finite d then Printf.sprintf "%.2e" d
  else "inf"

let render t =
  let buf = Buffer.create 4096 in
  let line depth node =
    let insns = live_insns t node in
    if insns = [] then ()
    else begin
      let st = node_stats t node in
      let mark = if node_predicted t node then 's' else 'd' in
      Buffer.add_string buf
        (Printf.sprintf "%c %s%s  [insns %d  execs %d  worst %s  mean %s  cancel %d/%d  flips %d]\n"
           mark
           (String.make (2 * depth) ' ')
           (Static.node_name node) st.insns st.execs (fmt_div st.max_rel)
           (fmt_div st.mean_rel) st.cancels st.cancel_blowups st.flips)
    end
  in
  let rec walk depth node =
    line depth node;
    (* a predicted aggregate subsumes its children: stop detailing *)
    if not (node_predicted t node) then List.iter (walk (depth + 1)) (children node)
  in
  Buffer.add_string buf
    (Printf.sprintf "shadow analysis  [threshold %s; s = predicted single]\n" (fmt_div t.threshold));
  List.iter (walk 0) (Static.tree t.program);
  let pred = predicted_nodes t in
  let pred_insns = List.fold_left (fun acc n -> acc + List.length (live_insns t n)) 0 pred in
  let total = Array.length (Static.candidates t.program) in
  Buffer.add_string buf
    (Printf.sprintf "predicted single: %d structure(s), %d/%d candidate instruction(s)\n"
       (List.length pred) pred_insns total);
  Buffer.contents buf

(* ---- JSON export ------------------------------------------------------- *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6e" f
  else if f > 0.0 then "1.0e308"
  else if f < 0.0 then "-1.0e308"
  else "0.0"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node_kind = function
  | Static.Module _ -> "module"
  | Static.Func _ -> "func"
  | Static.Block _ -> "block"
  | Static.Insn _ -> "insn"

let to_json t =
  let buf = Buffer.create 8192 in
  let pred = predicted_nodes t in
  let pred_insns = List.fold_left (fun acc n -> acc + List.length (live_insns t n)) 0 pred in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"threshold\": %s,\n" (json_float t.threshold));
  Buffer.add_string buf
    (Printf.sprintf "  \"candidates\": %d,\n" (Array.length (Static.candidates t.program)));
  Buffer.add_string buf (Printf.sprintf "  \"predicted_single_insns\": %d,\n" pred_insns);
  Buffer.add_string buf
    (Printf.sprintf "  \"predicted_nodes\": [%s],\n"
       (String.concat ", "
          (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape (Static.node_name n))) pred)));
  Buffer.add_string buf "  \"nodes\": [\n";
  let entries =
    List.filter_map
      (fun (node, d) ->
        let st = node_stats t node in
        if st.insns = 0 then None
        else
          Some
            (Printf.sprintf
               "    {\"name\": \"%s\", \"kind\": \"%s\", \"insns\": %d, \"execs\": %d, \
                \"divergence\": %s, \"max_rel\": %s, \"mean_rel\": %s, \"max_local\": %s, \
                \"max_mag\": %s, \"cancels\": %d, \"cancel_blowups\": %d, \"flips\": %d, \
                \"predicted\": %b}"
               (json_escape (Static.node_name node))
               (node_kind node) st.insns st.execs (json_float d) (json_float st.max_rel)
               (json_float st.mean_rel) (json_float st.max_local) (json_float st.max_mag)
               st.cancels st.cancel_blowups st.flips (node_predicted t node)))
      (ranked t)
  in
  Buffer.add_string buf (String.concat ",\n" entries);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
