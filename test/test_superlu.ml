(* Tests for the sparse LU substrate: CSC storage, the memplus-like
   generator, symbolic factorization correctness against dense elimination,
   numeric factorization, and the end-to-end solver binary. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- Sparse_csc ---------- *)

let test_of_entries () =
  let a = Sparse_csc.of_entries 3 [ (0, 0, 2.0); (1, 0, 1.0); (2, 2, 5.0); (0, 0, 1.0) ] in
  checki "nnz with dup summed" 3 (Sparse_csc.nnz a);
  Alcotest.check (Alcotest.float 0.0) "dup summed" 3.0 (Sparse_csc.entry a 0 0);
  Alcotest.check (Alcotest.float 0.0) "absent" 0.0 (Sparse_csc.entry a 1 1);
  Alcotest.check (Alcotest.float 0.0) "present" 5.0 (Sparse_csc.entry a 2 2)

let test_rowind_sorted () =
  let a = Sparse_csc.of_entries 4 [ (3, 1, 1.0); (0, 1, 1.0); (2, 1, 1.0) ] in
  let rows = Array.sub a.Sparse_csc.rowind a.Sparse_csc.colptr.(1) 3 in
  Alcotest.(check (array int)) "ascending" [| 0; 2; 3 |] rows

let test_mul_vec () =
  (* A = [2 1; 0 3] (column-major entries) *)
  let a = Sparse_csc.of_entries 2 [ (0, 0, 2.0); (0, 1, 1.0); (1, 1, 3.0) ] in
  let y = Sparse_csc.mul_vec a [| 1.0; 2.0 |] in
  Alcotest.(check (array (float 1e-15))) "Ax" [| 4.0; 6.0 |] y

(* ---------- Memplus_like ---------- *)

let test_generator_shape () =
  let n = 200 in
  let a = Memplus_like.generate ~seed:5 ~n () in
  checki "size" n a.Sparse_csc.n;
  checkb "sparse" true (Sparse_csc.nnz a < n * 12);
  checkb "has offdiagonals" true (Sparse_csc.nnz a > n);
  (* every diagonal entry present and positive *)
  for j = 0 to n - 1 do
    if Sparse_csc.entry a j j <= 0.0 then Alcotest.failf "diag %d missing" j
  done

let test_generator_deterministic () =
  let a = Memplus_like.generate ~seed:5 ~n:100 () in
  let b = Memplus_like.generate ~seed:5 ~n:100 () in
  checkb "same values" true (a.Sparse_csc.values = b.Sparse_csc.values);
  let c = Memplus_like.generate ~seed:6 ~n:100 () in
  checkb "seed matters" false (a.Sparse_csc.values = c.Sparse_csc.values)

let test_generator_dominance_without_plants () =
  let n = 150 in
  let a = Memplus_like.generate ~seed:9 ~n ~planted_pairs:0 () in
  (* column dominance by construction *)
  for j = 0 to n - 1 do
    let diag = ref 0.0 and off = ref 0.0 in
    for k = a.Sparse_csc.colptr.(j) to a.Sparse_csc.colptr.(j + 1) - 1 do
      if a.Sparse_csc.rowind.(k) = j then diag := Float.abs a.Sparse_csc.values.(k)
      else off := !off +. Float.abs a.Sparse_csc.values.(k)
    done;
    if !diag < !off then Alcotest.failf "column %d not dominant" j
  done

(* ---------- symbolic vs dense elimination ---------- *)

let dense_lu_pattern (a : Sparse_csc.t) =
  let n = a.Sparse_csc.n in
  let m = Array.make_matrix n n 0.0 in
  for j = 0 to n - 1 do
    for k = a.Sparse_csc.colptr.(j) to a.Sparse_csc.colptr.(j + 1) - 1 do
      m.(a.Sparse_csc.rowind.(k)).(j) <- a.Sparse_csc.values.(k)
    done
  done;
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      if m.(i).(k) <> 0.0 then begin
        m.(i).(k) <- m.(i).(k) /. m.(k).(k);
        for j = k + 1 to n - 1 do
          if m.(k).(j) <> 0.0 then m.(i).(j) <- m.(i).(j) -. (m.(i).(k) *. m.(k).(j))
        done
      end
    done
  done;
  m

let test_symbolic_covers_dense_fill () =
  let a = Memplus_like.generate ~seed:21 ~n:60 ~planted_pairs:2 () in
  let s = Slu.symbolic a in
  let dense = dense_lu_pattern a in
  let n = a.Sparse_csc.n in
  (* every numerically nonzero factor entry is inside the symbolic pattern *)
  let in_u i j =
    let rec go p = p < s.Slu.up.(j + 1) && (s.Slu.ui.(p) = i || go (p + 1)) in
    go s.Slu.up.(j)
  in
  let in_l i j =
    let rec go q = q < s.Slu.lp.(j + 1) && (s.Slu.li.(q) = i || go (q + 1)) in
    go s.Slu.lp.(j)
  in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      if dense.(i).(j) <> 0.0 then
        if i < j then begin
          if not (in_u i j) then Alcotest.failf "U(%d,%d) missing from pattern" i j
        end
        else if i > j then if not (in_l i j) then Alcotest.failf "L(%d,%d) missing" i j
    done
  done

let test_numeric_factor_matches_dense () =
  let a = Memplus_like.generate ~seed:22 ~n:50 ~planted_pairs:1 () in
  let s = Slu.symbolic a in
  let ux, lx, d = Slu.host_factor a s in
  let dense = dense_lu_pattern a in
  let n = a.Sparse_csc.n in
  (* diagonal pivots agree *)
  for j = 0 to n - 1 do
    if Float.abs (d.(j) -. dense.(j).(j)) > 1e-9 *. Float.abs dense.(j).(j) then
      Alcotest.failf "pivot %d: %g vs %g" j d.(j) dense.(j).(j)
  done;
  (* sampled L and U entries agree *)
  for j = 0 to n - 1 do
    for p = s.Slu.up.(j) to s.Slu.up.(j + 1) - 1 do
      let i = s.Slu.ui.(p) in
      if Float.abs (ux.(p) -. dense.(i).(j)) > 1e-9 *. Float.max 1.0 (Float.abs dense.(i).(j))
      then Alcotest.failf "U(%d,%d)" i j
    done;
    for q = s.Slu.lp.(j) to s.Slu.lp.(j + 1) - 1 do
      let i = s.Slu.li.(q) in
      if Float.abs (lx.(q) -. dense.(i).(j)) > 1e-9 *. Float.max 1.0 (Float.abs dense.(i).(j))
      then Alcotest.failf "L(%d,%d)" i j
    done
  done

let test_host_solve_accuracy () =
  let t = Slu.create ~n:120 ~seed:33 () in
  let x = Slu.host_solve t in
  checkb "accurate" true (Slu.error t x < 1e-10)

(* ---------- the binary ---------- *)

let test_binary_bit_for_bit () =
  let t = Slu.create ~n:150 ~seed:44 () in
  let x, _ = Slu.solve_native t in
  let xh = Slu.host_solve t in
  checkb "bit-for-bit" true
    (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) x xh)

let test_error_profile () =
  let t = Slu.create ~n:400 () in
  let x, _ = Slu.solve_native t in
  let xs, _ = Slu.solve_converted t in
  let ed = Slu.error t x and es = Slu.error t xs in
  checkb "double error tiny" true (ed < 1e-9);
  checkb "single error in the memplus band" true (es > 1e-5 && es < 5e-3);
  checkb "orders apart" true (es /. ed > 1e4)

let test_all_double_instrumented () =
  let t = Slu.create ~n:100 ~seed:55 () in
  let x, _ = Slu.solve_native t in
  let patched = Patcher.patch t.Slu.program Config.empty in
  let vm = Vm.create ~checked:true patched in
  t.Slu.setup vm;
  Vm.run vm;
  let xi = t.Slu.output vm in
  checkb "identical" true
    (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) x xi)

let test_target_thresholds () =
  let t = Slu.create ~n:100 ~seed:66 () in
  let tgt_loose = Slu.target t ~threshold:1.0 in
  let tgt_impossible = Slu.target t ~threshold:1e-30 in
  checkb "loose accepts all-double" true (tgt_loose.Bfs.Target.eval Config.empty = Verdict.Pass);
  checkb "impossible rejects" false
    (tgt_impossible.Bfs.Target.eval Config.empty = Verdict.Pass)

let test_equilibrate_preserves_solution () =
  let t = Slu.create ~n:100 ~seed:77 () in
  let ax, b = Slu.host_equilibrate t.Slu.a t.Slu.b in
  (* row scaling: solving the scaled system gives the same x *)
  let s = t.Slu.sym in
  let fac = Slu.host_factor ~values:ax t.Slu.a s in
  let x = Slu.host_trisolve s fac b in
  checkb "same solution" true (Slu.error t x < 1e-9)

let suite =
  [
    ("csc of_entries", `Quick, test_of_entries);
    ("csc rowind sorted", `Quick, test_rowind_sorted);
    ("csc mul_vec", `Quick, test_mul_vec);
    ("generator shape", `Quick, test_generator_shape);
    ("generator deterministic", `Quick, test_generator_deterministic);
    ("generator dominance", `Quick, test_generator_dominance_without_plants);
    ("symbolic covers dense fill", `Quick, test_symbolic_covers_dense_fill);
    ("numeric factor matches dense", `Quick, test_numeric_factor_matches_dense);
    ("host solve accuracy", `Quick, test_host_solve_accuracy);
    ("binary bit-for-bit", `Quick, test_binary_bit_for_bit);
    ("error profile", `Quick, test_error_profile);
    ("all-double instrumented identical", `Quick, test_all_double_instrumented);
    ("target thresholds", `Quick, test_target_thresholds);
    ("equilibration preserves solution", `Quick, test_equilibrate_preserves_solution);
  ]
