(* Run the automatic breadth-first search on a NAS-like benchmark and print
   the recommendation — the paper's §2.2/§3.1 workflow.

   Run with: dune exec examples/nas_search.exe [-- BENCH CLASS WORKERS] *)

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "cg" in
  let cls =
    match if Array.length Sys.argv > 2 then Sys.argv.(2) else "W" with
    | "A" | "a" -> Kernel.A
    | "C" | "c" -> Kernel.C
    | _ -> Kernel.W
  in
  let workers = if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 4 in
  let k =
    match bench with
    | "ep" -> Nas_ep.make cls
    | "ft" -> Nas_ft.make cls
    | "mg" -> Nas_mg.make cls
    | "bt" -> Nas_bt.make cls
    | "lu" -> Nas_lu.make cls
    | "sp" -> Nas_sp.make cls
    | _ -> Nas_cg.make cls
  in
  Format.printf "searching %s (%d workers)...@." k.Kernel.name workers;
  let options = { Bfs.default_options with workers; base = k.Kernel.hints } in
  let target = Kernel.target k in
  let r = Analysis.of_result target ~setup:k.Kernel.setup (Bfs.search ~options target) in
  Format.printf "%a@.@." Analysis.pp_summary r;
  Format.printf "=== search log (first 25 events) ===@.";
  List.iteri (fun i l -> if i < 25 then print_endline l) r.Analysis.result.Bfs.log;
  Format.printf "@.=== recommended configuration ===@.%s@." r.Analysis.tree
