type recommendation = {
  result : Bfs.result;
  config_text : string;
  tree : string;
  census : (string * int) list;
  native_cost : Cost.run_cost;
  converted_cost : Cost.run_cost;
  projected_speedup : float;
}

let of_result ?(params = Cost.default) (target : Bfs.Target.t) ~setup result =
  let program = target.Bfs.Target.program in
  let config_text = Config.print program result.Bfs.final in
  let counts = target.Bfs.Target.profile () in
  let tree = Tree_view.render ~counts program result.Bfs.final in
  let run_cost ?fmem_bytes prog smode =
    let vm = Vm.create ~smode prog in
    setup vm;
    Vm.run vm;
    Cost.of_run ~params ?fmem_bytes vm
  in
  let native_cost = run_cost program Vm.Flagged in
  (* the suggested source-level conversion: single-flagged instructions
     become native single precision with 4-byte float traffic *)
  let converted = To_single.convert_config program result.Bfs.final in
  let converted_cost = run_cost ~fmem_bytes:4.0 converted Vm.Plain in
  {
    result;
    config_text;
    tree;
    census = Config.format_census program result.Bfs.final;
    native_cost;
    converted_cost;
    projected_speedup = native_cost.Cost.time_cycles /. converted_cost.Cost.time_cycles;
  }

let recommend ?options ?params ~program ~setup ~output ~verify () =
  let target = Bfs.Target.make program ~setup ~output ~verify in
  of_result ?params target ~setup (Bfs.search ?options target)

let pp_summary ppf r =
  let res = r.result in
  let census =
    r.census
    |> List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n)
    |> String.concat ", "
  in
  Format.fprintf ppf
    "@[<v>candidates: %d@,configurations tested: %d@,static replaced: %d (%.1f%%)@,\
     dynamic replaced: %.1f%%@,bits saved: %d (census: %s)@,final verification: %s@,\
     projected conversion speedup: %.2fX@]"
    res.Bfs.candidates res.Bfs.tested res.Bfs.static_replaced res.Bfs.static_pct
    res.Bfs.dynamic_pct res.Bfs.bits_saved census
    (if res.Bfs.final_pass then "pass" else "fail")
    r.projected_speedup
