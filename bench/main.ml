(* The paper reproduction: one section per table/figure of the paper, the
   search-optimization ablation, and the paper's future-work and related-work
   experiments. Every number printed is deterministic (modeled costs,
   evaluation counts, errors), so `dune runtest` diffs the whole output
   against bench/paper.expected. Timings live in perfbench/.

   Run everything:        dune exec bench/main.exe
   Run selected sections: dune exec bench/main.exe -- fig9 fig10 sec32
   Regenerate the golden: dune exec bench/main.exe > bench/paper.expected *)

let workers = max 1 (min 8 (Domain.recommended_domain_count () - 1))

let section name =
  Format.printf "@.==================== %s ====================@." name

let fig_kernels classes =
  List.concat_map
    (fun cls -> [ Nas_ep.make cls; Nas_cg.make cls; Nas_ft.make cls; Nas_mg.make cls ])
    classes

(* Overhead of the base case: every FP instruction replaced by a
   double-precision snippet (paper §3.1). Returns the modeled costs of the
   native and the instrumented run. *)
let instrumented_overhead k =
  let _, nvm = Kernel.run_native k in
  let _, ivm = Kernel.run_patched ~config:Config.empty k in
  (Cost.of_run nvm, Cost.of_run ivm)

(* ---------------------------------------------------------------- fig 1 *)

let fig1 () =
  section "Figure 1: IEEE standard formats";
  Format.printf "format    width  sign  exponent  significand  bias@.";
  Format.printf "single       32     1  %8d  %11d  %4d@." Ieee.exponent_bits32
    Ieee.significand_bits32 Ieee.bias32;
  Format.printf "double       64     1  %8d  %11d  %4d@." Ieee.exponent_bits64
    Ieee.significand_bits64 Ieee.bias64;
  Format.printf "@.example decodes:@.";
  List.iter
    (fun x -> Format.printf "  %-12g %s@." x (Ieee.describe64 x))
    [ 1.0; -0.375; 6.02e23 ];
  Format.printf "  %-12s %s@." "1.0f" (Ieee.describe32 0x3F800000l)

(* ---------------------------------------------------------------- fig 3 *)

let fig3 () =
  section "Figure 3: replacement analysis configuration file";
  let k = Nas_ep.make Kernel.W in
  let res = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  print_string (Config.print k.Kernel.program res.Bfs.final)

(* ---------------------------------------------------------------- fig 4 *)

let fig4 () =
  section "Figure 4: graphical configuration editor (terminal rendering)";
  let k = Nas_cg.make Kernel.W in
  let res = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  let _, vm = Kernel.run_native k in
  print_string (Tree_view.render ~counts:vm.Vm.counts k.Kernel.program res.Bfs.final)

(* ---------------------------------------------------------------- fig 5 *)

let fig5 () =
  section "Figure 5: in-place downcast conversion and replacement";
  let x = 1.0 /. 3.0 in
  Format.printf "double:            %a@." Replaced.pp x;
  Format.printf "replaced double:   %a@." Replaced.pp (Replaced.downcast x);
  Format.printf "extracted single:  %h@." (Replaced.upcast (Replaced.downcast x));
  Format.printf "flag is a NaN:     %b (mis-handled values never propagate silently)@."
    (Float.is_nan (Replaced.downcast x))

(* ---------------------------------------------------------------- fig 6 *)

let fig6 () =
  section "Figure 6: single-precision replacement snippet";
  print_string (Patcher.snippet_listing ())

(* ---------------------------------------------------------------- fig 7 *)

let fig7 () =
  section "Figure 7: basic block patching";
  let t = Builder.create () in
  let base = Builder.alloc_f t 3 in
  let main =
    Builder.func t ~module_:"demo" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let x = Builder.loadf b (Builder.at base) in
        let y = Builder.loadf b (Builder.at (base + 1)) in
        let z = Builder.fmul b x y in
        Builder.storef b (Builder.at (base + 2)) z)
  in
  let prog = Builder.program t ~main in
  Format.printf "--- original ---@.%a@." Ir.pp_program prog;
  let cfg = Config.set_module Config.empty "demo" Config.Single in
  let patched = Patcher.patch prog cfg in
  Format.printf "--- patched ---@.%a@." Ir.pp_program patched;
  print_endline (Patcher.patch_stats prog patched)

(* ---------------------------------------------------------------- fig 8 *)

let fig8 () =
  section "Figure 8: NAS MPI scaling results (overhead vs ranks, class A)";
  let net = Mpi_model.default_net in
  Format.printf "%-6s %6s %6s %6s %6s@." "bench" "1" "2" "4" "8";
  List.iter
    (fun k ->
      let nat, ins = instrumented_overhead k in
      let comm r = k.Kernel.comm_bytes ~ranks:r net in
      let ov r =
        Mpi_model.overhead_at ~comp_native:nat.Cost.time_cycles
          ~comp_instr:ins.Cost.time_cycles ~comm r
      in
      Format.printf "%-6s %6.1f %6.1f %6.1f %6.1f   " k.Kernel.name (ov 1) (ov 2) (ov 4)
        (ov 8);
      List.iter
        (fun r ->
          let bars = int_of_float (ov r *. 4.0) in
          Format.printf "%s|" (String.make (max 1 bars) '#'))
        [ 1; 2; 4; 8 ];
      Format.printf "@.")
    (fig_kernels [ Kernel.A ])

(* ---------------------------------------------------------------- fig 9 *)

let fig9 () =
  section "Figure 9: NAS benchmark overhead results";
  Format.printf "%-8s %10s@." "bench" "modeled";
  List.iter
    (fun k ->
      let nat, ins = instrumented_overhead k in
      Format.printf "%-8s %9.1fX@." k.Kernel.name (Cost.overhead ins nat))
    (fig_kernels [ Kernel.A; Kernel.C ])

(* ---------------------------------------------------------------- fig 10 *)

let fig10 () =
  section "Figure 10: NAS benchmark search results";
  Format.printf "%-8s %10s %8s %8s %9s %8s@." "bench" "candidates" "tested" "static" "dynamic"
    "final";
  let benches =
    List.concat_map
      (fun cls ->
        [
          Nas_bt.make cls;
          Nas_cg.make cls;
          Nas_ep.make cls;
          Nas_ft.make cls;
          Nas_lu.make cls;
          Nas_mg.make cls;
          Nas_sp.make cls;
        ])
      [ Kernel.W; Kernel.A ]
  in
  let ordered = List.sort (fun a b -> compare a.Kernel.name b.Kernel.name) benches in
  List.iter
    (fun k ->
      let res =
        Bfs.search
          ~options:{ Bfs.default_options with workers; base = k.Kernel.hints }
          (Kernel.target k)
      in
      Format.printf "%-8s %10d %8d %7.1f%% %8.1f%% %8s@." k.Kernel.name res.Bfs.candidates
        res.Bfs.tested res.Bfs.static_pct res.Bfs.dynamic_pct
        (if res.Bfs.final_pass then "pass" else "fail"))
    ordered

(* ---------------------------------------------------------------- fig 11 *)

let fig11 () =
  section "Figure 11: SuperLU linear solver memplus results";
  let s = Slu.create ~n:800 () in
  let x, _ = Slu.solve_native s in
  let xs, _ = Slu.solve_converted s in
  Format.printf "memplus-like matrix: n=%d nnz=%d@." s.Slu.a.Sparse_csc.n
    (Sparse_csc.nnz s.Slu.a);
  Format.printf "double-precision solver error: %.2e@." (Slu.error s x);
  Format.printf "single-precision solver error: %.2e@.@." (Slu.error s xs);
  Format.printf "%-12s %10s %10s %13s@." "threshold" "static" "dynamic" "final error";
  List.iter
    (fun threshold ->
      let res =
        Bfs.search ~options:{ Bfs.default_options with workers } (Slu.target s ~threshold)
      in
      let patched = Patcher.patch s.Slu.program res.Bfs.final in
      let vm = Vm.create ~checked:true patched in
      s.Slu.setup vm;
      Vm.run vm;
      let err = Slu.error s (s.Slu.output vm) in
      Format.printf "%-12.1e %9.1f%% %9.1f%% %13.2e@." threshold res.Bfs.static_pct
        res.Bfs.dynamic_pct err)
    [ 1e-3; 1e-4; 7.5e-5; 5e-5; 2.5e-5; 1e-5; 1e-6 ]

(* ---------------------------------------------------------------- fig 12 *)

let fig12 () =
  section "Figure 12: mixed-precision iterative refinement";
  let t = Refine.create () in
  let d = Refine.run t Config.empty in
  let m = Refine.run t Refine.mixed_config in
  let s = Refine.run t Refine.all_single_config in
  Format.printf "%-18s %14s %16s@." "configuration" "solution error" "converted cycles";
  let row name (o : Refine.outcome) =
    Format.printf "%-18s %14.3e %15.0fc@." name o.Refine.error o.Refine.converted.Cost.cycles
  in
  row "all double" d;
  row "mixed (Fig. 12)" m;
  row "all single" s;
  Format.printf "residual history (mixed): ";
  Array.iter (fun r -> Format.printf "%.2e " r) m.Refine.history;
  Format.printf "@."

(* ---------------------------------------------------------------- §3.1 *)

let sec31 () =
  section "Section 3.1: bit-for-bit verification of the replacement";
  let kernels =
    [
      Nas_ep.make Kernel.W;
      Nas_cg.make Kernel.W;
      Nas_ft.make Kernel.W;
      Nas_mg.make Kernel.W;
      Nas_bt.make Kernel.W;
      Nas_lu.make Kernel.W;
      Nas_sp.make Kernel.W;
    ]
  in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         a b
  in
  Format.printf "%-8s %22s %28s@." "bench" "all-double == native" "all-single == manual conv";
  List.iter
    (fun k ->
      let native, _ = Kernel.run_native k in
      let dbl, _ = Kernel.run_patched ~config:Config.empty k in
      let tree = Static.tree k.Kernel.program in
      let cfg_single =
        List.fold_left (fun acc n -> Bfs.force_single ~base:Config.empty acc n) Config.empty tree
      in
      let sgl, _ = Kernel.run_patched ~config:cfg_single k in
      let conv, _ = Kernel.run_converted k in
      Format.printf "%-8s %22b %28b@." k.Kernel.name (bits_equal native dbl)
        (bits_equal sgl conv))
    kernels

(* ---------------------------------------------------------------- §3.2 *)

let sec32 () =
  section "Section 3.2: AMG microkernel";
  let k = Amg_kernel.make () in
  (* eight cores share the memory bus in the paper's setup *)
  let params = { Cost.default with Cost.bandwidth = 0.22 } in
  let out, nvm = Kernel.run_native k in
  Format.printf "double run: converged to %.2e in %d iterations@." out.(0)
    (Amg_kernel.iterations out);
  let tree = Static.tree k.Kernel.program in
  let cfg =
    List.fold_left (fun acc n -> Bfs.force_single ~base:Config.empty acc n) Config.empty tree
  in
  let outs, svm = Kernel.run_patched ~config:cfg k in
  Format.printf "all-single instrumented: converged to %.2e in %d iterations (verify %s)@."
    outs.(0) (Amg_kernel.iterations outs)
    (if k.Kernel.verify outs then "pass" else "fail");
  let nat = Cost.of_run ~params nvm in
  let ins = Cost.of_run ~params svm in
  Format.printf "analysis overhead: %.2fX   (paper: 1.2X)@." (Cost.overhead ins nat);
  let _, cvm = Kernel.run_converted k in
  let conv = Cost.of_run ~params ~fmem_bytes:4.0 cvm in
  Format.printf
    "manual conversion: modeled %.3fs -> %.3fs, speedup %.2fX   (paper: 175.48s -> 95.25s, ~1.84X)@."
    nat.Cost.seconds conv.Cost.seconds
    (nat.Cost.time_cycles /. conv.Cost.time_cycles)

(* ---------------------------------------------------------------- §3.3 *)

let sec33 () =
  section "Section 3.3: SuperLU headline numbers";
  let s = Slu.create ~n:800 () in
  let x, nvm = Slu.solve_native s in
  let xs, cvm = Slu.solve_converted s in
  (* sparse gather/scatter sustains only part of streaming bandwidth *)
  let params = { Cost.default with Cost.bandwidth = 0.84 } in
  let nat = Cost.of_run ~params nvm in
  let conv = Cost.of_run ~params ~fmem_bytes:4.0 cvm in
  Format.printf "double error: %.2e   (paper: 2.16e-12)@." (Slu.error s x);
  Format.printf "single error: %.2e   (paper: 5.86e-04)@." (Slu.error s xs);
  Format.printf "single build speedup: %.2fX   (paper: 1.16X)@."
    (nat.Cost.time_cycles /. conv.Cost.time_cycles);
  Format.printf "throughput: %.0f -> %.0f MFlops (improvement %+.0f)   (paper: +150 MFlops)@."
    (Cost.mflops nat) (Cost.mflops conv)
    (Cost.mflops conv -. Cost.mflops nat)

(* ------------------------------------------------------------- ablation *)

let ablation () =
  section "Ablation: search optimizations (paper §2.2)";
  let run_variants k =
    Format.printf "%s search:@.%-28s %8s %8s %8s@." k.Kernel.name "configuration" "tested"
      "static" "final";
    List.iter
      (fun (name, binary_split, prioritize) ->
        let res =
          Bfs.search
            ~options:
              { Bfs.default_options with workers = 1; binary_split; prioritize;
                base = k.Kernel.hints }
            (Kernel.target k)
        in
        Format.printf "  %-28s %6d %7.1f%% %8s@." name res.Bfs.tested res.Bfs.static_pct
          (if res.Bfs.final_pass then "pass" else "fail"))
      [
        ("both optimizations", true, true);
        ("no binary splitting", false, true);
        ("no prioritization", true, false);
        ("neither", false, false);
      ]
  in
  (* SP: a few non-replaceable instructions among many replaceable ones —
     binary splitting prunes configurations. CG: dense failures — the
     partitions all fail and splitting costs extra tests (the paper's SP
     footnote in miniature). Prioritization changes test order (hot
     structures are ruled out first), not the totals. *)
  run_variants (Nas_sp.make Kernel.W);
  run_variants (Nas_cg.make Kernel.W);
  let k = Nas_sp.make Kernel.W in
  let plain = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  let composed =
    Bfs.search ~options:{ Bfs.default_options with workers; second_phase = true }
      (Kernel.target k)
  in
  Format.printf "@.second search phase on sp.W (union fails):@.";
  Format.printf "  plain:    static %5.1f%%, final %s (tested %d)@." plain.Bfs.static_pct
    (if plain.Bfs.final_pass then "pass" else "fail")
    plain.Bfs.tested;
  Format.printf "  composed: static %5.1f%%, final %s (tested %d)@." composed.Bfs.static_pct
    (if composed.Bfs.final_pass then "pass" else "fail")
    composed.Bfs.tested

(* ------------------------------------------------ dataflow optimization *)

let dataflow () =
  section "Future optimization (paper 2.5): static data-flow check removal";
  Format.printf "%-8s %16s %18s %18s %14s@." "bench" "checks removed" "plain overhead"
    "optimized" "speedup";
  List.iter
    (fun k ->
      let res =
        Bfs.search
          ~options:{ Bfs.default_options with workers; base = k.Kernel.hints }
          (Kernel.target k)
      in
      let cfg = res.Bfs.final in
      let df = Dataflow.analyze k.Kernel.program cfg in
      let removable, total = Dataflow.checks_removable df k.Kernel.program cfg in
      let run p =
        let vm = Vm.create ~checked:true p in
        k.Kernel.setup vm;
        Vm.run vm;
        Cost.of_run vm
      in
      let _, nvm = Kernel.run_native k in
      let nat = Cost.of_run nvm in
      let plain = run (Patcher.patch k.Kernel.program cfg) in
      let opt = run (Patcher.patch ~dataflow:true k.Kernel.program cfg) in
      Format.printf "%-8s %10d/%-5d %17.2fX %17.2fX %13.2fX@." k.Kernel.name removable
        total (Cost.overhead plain nat) (Cost.overhead opt nat)
        (plain.Cost.time_cycles /. opt.Cost.time_cycles))
    [
      Nas_ep.make Kernel.A;
      Nas_cg.make Kernel.A;
      Nas_ft.make Kernel.A;
      Nas_mg.make Kernel.A;
      Nas_lu.make Kernel.A;
    ]

(* -------------------------------------------------------- packed values *)

let packed () =
  section "Packed XMM values (paper Figs. 1/5: 2x doubles vs 4x singles)";
  (* a stream kernel y = a*x + y, scalar vs packed, double vs converted *)
  let n = 512 in
  let build packed =
    let t = Builder.create () in
    let x = Builder.alloc_f t n in
    let y = Builder.alloc_f t n in
    let main =
      Builder.func t ~module_:"stream" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
          let a = Builder.fconst b 1.25 in
          if packed then begin
            let ap = Builder.fpair b a a in
            Builder.for_range b 0 (n / 2) (fun i ->
                let i2 = Builder.imulc b i 2 in
                let xv = Builder.loadfp b (Builder.idx x i2) in
                let yv = Builder.loadfp b (Builder.idx y i2) in
                Builder.storefp b (Builder.idx y i2)
                  (Builder.faddp b (Builder.fmulp b ap xv) yv))
          end
          else
            Builder.for_range b 0 n (fun i ->
                let xv = Builder.loadf b (Builder.idx x i) in
                let yv = Builder.loadf b (Builder.idx y i) in
                Builder.storef b (Builder.idx y i)
                  (Builder.fadd b (Builder.fmul b a xv) yv)))
    in
    Builder.program t ~main
  in
  let cost prog ~single =
    let p = if single then To_single.convert prog else prog in
    let vm = Vm.create ~smode:(if single then Vm.Plain else Vm.Flagged) p in
    Vm.run vm;
    (Cost.of_run ~fmem_bytes:(if single then 4.0 else 8.0) vm).Cost.time_cycles
  in
  let scalar = build false and packed_p = build true in
  let sd = cost scalar ~single:false in
  Format.printf "%-24s %14s %10s@." "stream daxpy variant" "model cycles" "speedup";
  List.iter
    (fun (name, c) -> Format.printf "%-24s %14.0f %9.2fX@." name c (sd /. c))
    [
      ("scalar double", sd);
      ("packed double", cost packed_p ~single:false);
      ("scalar single (conv)", cost scalar ~single:true);
      ("packed single (conv)", cost packed_p ~single:true);
    ];
  Format.printf
    "(the packed+single corner is the paper's motivation: half the memory@.\
     traffic and twice the lanes of packed doubles)@."

(* --------------------------------------------------- cancellation (§4.4) *)

let cancel () =
  section "Related work (paper 4.4): dynamic cancellation detection";
  Format.printf
    "The paper contrasts its <20X instrumentation against shadow-value@.\
     cancellation tools at 160X-1000X; its own earlier exponent-based@.\
     detector (Lam et al., WHIST'11) is rebuilt here.@.@.";
  Format.printf "%-8s %10s %12s  top cancellation site@." "bench" "overhead" "cancels";
  List.iter
    (fun k ->
      let _, nvm = Kernel.run_native k in
      let instr, layout = Cancellation.instrument k.Kernel.program in
      let vm = Vm.create instr in
      k.Kernel.setup vm;
      Vm.run vm;
      let sites = Cancellation.read_sites layout vm in
      let cancels = List.fold_left (fun a s -> a + s.Cancellation.cancellations) 0 sites in
      let top =
        List.sort (fun a b -> compare b.Cancellation.total_bits a.Cancellation.total_bits) sites
      in
      let desc =
        match top with
        | s :: _ when s.Cancellation.cancellations > 0 ->
            Printf.sprintf "0x%06x %s (avg %.1f bits)" s.Cancellation.addr
              s.Cancellation.disasm
              (float_of_int s.Cancellation.total_bits /. float_of_int s.Cancellation.cancellations)
        | _ -> "none"
      in
      Format.printf "%-8s %9.1fX %12d  %s@." k.Kernel.name
        (Cost.overhead (Cost.of_run vm) (Cost.of_run nvm))
        cancels desc)
    [
      Nas_ep.make Kernel.W;
      Nas_cg.make Kernel.W;
      Nas_ft.make Kernel.W;
      Nas_mg.make Kernel.W;
      Nas_lu.make Kernel.W;
      Nas_sp.make Kernel.W;
    ]

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("sec31", sec31);
    ("sec32", sec32);
    ("sec33", sec33);
    ("ablation", ablation);
    ("dataflow", dataflow);
    ("cancel", cancel);
    ("packed", packed);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.printf "unknown section %S; available: %s@." name
            (String.concat " " (List.map fst sections)))
    requested
