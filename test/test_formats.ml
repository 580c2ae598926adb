(* The precision-format lattice: Formats.round must be a correct
   round-to-nearest-even into every (ebits, mbits) format — checked against
   an independent value-space reference rounder, hand-computed binary16 and
   bfloat16 vectors (subnormals, overflow boundaries, NaN payloads), and
   the existing binary32 emulation at (8, 23). Then the lattice's
   integration seams: Config flag tokens and digests (pre-lattice
   byte-compatibility is load-bearing for every old journal and store
   log), the exchange-text parser's hard rejection of unknown format
   tokens, interpreter/compiled bit-identity under every named format, the
   shadow tracer's format shadows, and journal replay of pre-lattice
   artifacts. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let qt ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bits = Int64.bits_of_float
let bits_eq a b = Int64.equal (bits a) (bits b)

(* ------------------------------------------------------------- generators *)

let fmt_gen =
  QCheck2.Gen.map
    (fun (ebits, mbits) -> Formats.make ~ebits ~mbits)
    QCheck2.Gen.(pair (int_range 2 8) (int_range 1 23))

(* doubles drawn uniformly from the full bit space: subnormals, huge
   magnitudes, infinities and NaNs all appear *)
let raw_float =
  QCheck2.Gen.map
    (fun (hi, lo) ->
      Int64.float_of_bits
        (Int64.logor
           (Int64.shift_left (Int64.of_int hi) 32)
           (Int64.logand (Int64.of_int lo) 0xFFFF_FFFFL)))
    QCheck2.Gen.(pair int int)

(* bias toward the interesting range of small formats: moderate exponents
   where rounding, overflow and gradual underflow actually trigger *)
let near_float =
  QCheck2.Gen.map
    (fun (frac, exp, sign) ->
      let v = ldexp (Float.of_int frac /. 1e9) exp in
      if sign then -.v else v)
    QCheck2.Gen.(triple (int_bound 1_000_000_000) (int_range (-160) 160) bool)

let any_float = QCheck2.Gen.oneof [ raw_float; near_float ]

(* ------------------------------------------ independent reference rounder *)

(* Value-space round-to-nearest-even, sharing no code (and no bit tricks)
   with Formats.round: find the format's ulp at |x|, split |x| into
   quotient and fraction on that grid (both exact in binary64 because the
   quotient has at most mbits+1 <= 24 significant bits), and pick a
   neighbour. *)
let ref_round (t : Formats.t) x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity || x = 0.0 then x
  else begin
    let mb = t.Formats.mbits in
    let a = Float.abs x in
    let sgn = if Float.sign_bit x then -1.0 else 1.0 in
    let _, e' = Float.frexp a in
    (* a = m * 2^e' with 0.5 <= m < 1, so a's binade exponent is e' - 1 *)
    let ue = max (e' - 1) (Formats.emin t) in
    let ulp = ldexp 1.0 (ue - mb) in
    let scaled = a /. ulp in
    let q = Float.floor scaled in
    let frac = scaled -. q in
    let up = frac > 0.5 || (frac = 0.5 && Float.rem q 2.0 = 1.0) in
    let v = (q +. if up then 1.0 else 0.0) *. ulp in
    if v > Formats.max_value t then sgn *. Float.infinity else sgn *. v
  end

let agrees_with_reference =
  qt ~count:3000 "formats: round agrees with the value-space reference"
    QCheck2.Gen.(pair fmt_gen any_float)
    (fun (f, x) ->
      if Float.is_nan x then Float.is_nan (Formats.round f x)
      else
        let got = Formats.round f x and want = ref_round f x in
        bits_eq got want
        || QCheck2.Test.fail_reportf "round %s %h = %h, reference %h" (Formats.name f) x
             got want)

let idempotent =
  qt ~count:2000 "formats: round is bitwise idempotent"
    QCheck2.Gen.(pair fmt_gen any_float)
    (fun (f, x) ->
      let once = Formats.round f x in
      bits_eq once (Formats.round f once))

let monotone =
  qt ~count:2000 "formats: round is monotone"
    QCheck2.Gen.(tup3 fmt_gen any_float any_float)
    (fun (f, x, y) ->
      if Float.is_nan x || Float.is_nan y then true
      else
        let x, y = if x <= y then (x, y) else (y, x) in
        Formats.round f x <= Formats.round f y)

let sign_symmetric =
  qt ~count:2000 "formats: round commutes with negation"
    QCheck2.Gen.(pair fmt_gen any_float)
    (fun (f, x) -> bits_eq (Formats.round f (-.x)) (-.Formats.round f x))

(* every point of the format's own grid — normals and subnormals, built as
   k * 2^(ue - mbits) — is a fixed point of round *)
let grid_exact =
  qt ~count:2000 "formats: representable values are exact"
    QCheck2.Gen.(tup4 fmt_gen nat nat bool)
    (fun (f, kr, er, neg) ->
      let k = kr mod (1 lsl (f.Formats.mbits + 1)) in
      let ue =
        Formats.emin f + (er mod (Formats.emax f - Formats.emin f + 1))
      in
      let v = ldexp (Float.of_int k) (ue - f.Formats.mbits) in
      let v = if neg then -.v else v in
      Formats.is_exact f v && bits_eq (Formats.round f v) v)

let single_is_f32 =
  qt ~count:2000 "formats: (8,23) is bit-identical to the binary32 emulation"
    any_float
    (fun x ->
      bits_eq (Formats.round Formats.single x) (F32.round x)
      && bits_eq (Formats.round (Formats.make ~ebits:8 ~mbits:23) x) (F32.round x)
      && (Float.is_nan x || bits_eq (ref_round Formats.single x) (F32.round x)))

let double_is_identity =
  qt ~count:1000 "formats: binary64 rounds to itself" any_float (fun x ->
      bits_eq (Formats.round Formats.double x) x)

let token_roundtrip =
  qt ~count:500 "formats: e<E>m<M> tokens round-trip" fmt_gen (fun f ->
      match Formats.of_string (Formats.token f) with
      | Some g -> Formats.equal f g
      | None -> false)

(* ------------------------------------------------------ reference vectors *)

let check_round name f x expect =
  let got = Formats.round f x in
  if not (bits_eq got expect) then
    Alcotest.failf "%s: round %s %h = %h (bits %Lx), expected %h (bits %Lx)" name
      (Formats.name f) x got (bits got) expect (bits expect)

let test_half_vectors () =
  let h = Formats.half in
  let r = check_round "half" h in
  (* largest finite: (2 - 2^-10) * 2^15 = 65504 *)
  checkb "max_value" true (Formats.max_value h = 65504.0);
  r 65504.0 65504.0;
  r 65503.999 65504.0;
  (* the overflow boundary: the tie at 65520 (midpoint to the next binade
     base 65536, which is out of range) rounds away to infinity *)
  r 65519.999 65504.0;
  r 65520.0 Float.infinity;
  r 65536.0 Float.infinity;
  r (-65520.0) Float.neg_infinity;
  r Float.infinity Float.infinity;
  (* normal/subnormal frontier: 2^-14 is the smallest normal *)
  checkb "min_normal" true (Formats.min_normal h = ldexp 1.0 (-14));
  r (ldexp 1.0 (-14)) (ldexp 1.0 (-14));
  (* smallest subnormal 2^-24 is exact; its half, 2^-25, is the tie with
     zero (even), anything above it rounds up to 2^-24 *)
  checkb "min_subnormal" true (Formats.min_subnormal h = ldexp 1.0 (-24));
  r (ldexp 1.0 (-24)) (ldexp 1.0 (-24));
  r (ldexp 1.0 (-25)) 0.0;
  r (ldexp 1.5 (-25)) (ldexp 1.0 (-24));
  r (ldexp 1.0 (-26)) 0.0;
  (* underflow keeps the sign: -2^-25 goes to -0.0, not +0.0 *)
  checkb "signed underflow" true
    (bits_eq (Formats.round h (-.ldexp 1.0 (-25))) (-0.0));
  (* gradual underflow: 3 * 2^-25 sits between subnormals 2^-24 and 2^-23,
     tie to even picks 2^-23 (grid index 2) *)
  r (ldexp 3.0 (-25)) (ldexp 1.0 (-23));
  (* mantissa ties at full precision: 1 + 2^-11 is halfway between 1 and
     1 + 2^-10; even mantissa wins *)
  r (1.0 +. ldexp 1.0 (-11)) 1.0;
  r (1.0 +. ldexp 1.0 (-11) +. ldexp 1.0 (-12)) (1.0 +. ldexp 1.0 (-10));
  r (1.0 +. ldexp 3.0 (-11)) (1.0 +. ldexp 2.0 (-10))

let test_bfloat16_vectors () =
  let b = Formats.bfloat16 in
  let r = check_round "bf16" b in
  (* bfloat16 shares binary32's exponent range; max = (2 - 2^-7) * 2^127 *)
  let bmax = ldexp (2.0 -. ldexp 1.0 (-7)) 127 in
  checkb "max_value" true (Formats.max_value b = bmax);
  checkb "max decimal" true (bmax = 3.3895313892515355e38);
  r bmax bmax;
  r (ldexp 1.0 128) Float.infinity;
  (* the tie midway between max and 2^128 overflows to infinity *)
  r (ldexp (2.0 -. ldexp 1.0 (-8)) 127) Float.infinity;
  r (1.0 +. ldexp 1.0 (-8)) 1.0;
  r (1.0 +. ldexp 3.0 (-8)) (1.0 +. ldexp 2.0 (-7));
  r 1.0078125 1.0078125;
  (* min normal 2^-126, min subnormal 2^-133 *)
  r (ldexp 1.0 (-126)) (ldexp 1.0 (-126));
  r (ldexp 1.0 (-133)) (ldexp 1.0 (-133));
  r (ldexp 1.0 (-134)) 0.0;
  (* every binary64 subnormal is far below bf16's range *)
  r (Int64.float_of_bits 1L) 0.0

let test_nan_payloads () =
  (* a signaling NaN with a wide payload: rounding must truncate the
     payload to the format's mantissa width, force the quiet bit, keep the
     sign — and never turn the NaN into an infinity *)
  let payload = 0x4_DEAD_BEEF_1234L in
  let snan = Int64.float_of_bits (Int64.logor 0x7FF0_0000_0000_0000L payload) in
  List.iter
    (fun f ->
      let got = Formats.round f snan in
      checkb (Formats.name f ^ " stays NaN") true (Float.is_nan got);
      let keep =
        Int64.lognot (Int64.sub (Int64.shift_left 1L (52 - f.Formats.mbits)) 1L)
      in
      let expect =
        Int64.logor 0x7FF8_0000_0000_0000L (Int64.logand payload keep)
      in
      if not (Int64.equal (bits got) expect) then
        Alcotest.failf "%s: NaN payload %Lx, expected %Lx" (Formats.name f) (bits got)
          expect;
      (* sign bit survives *)
      let neg = Formats.round f (Int64.float_of_bits (Int64.logor Int64.min_int (bits snan))) in
      checkb (Formats.name f ^ " keeps NaN sign") true
        (Float.is_nan neg && Int64.compare (bits neg) 0L < 0))
    [ Formats.half; Formats.bfloat16; Formats.tf32 ];
  (* an already-quiet NaN whose payload fits is untouched *)
  let qnan = Int64.float_of_bits 0x7FF8_4000_0000_0000L in
  checkb "quiet half NaN unchanged" true
    (bits_eq (Formats.round Formats.half qnan) qnan)

(* -------------------------------------------------------- names and menus *)

let test_names_and_menus () =
  checkb "f16 aliases" true
    (Formats.of_string "f16" = Some Formats.half
    && Formats.of_string "half" = Some Formats.half
    && Formats.of_string "binary16" = Some Formats.half);
  checkb "bf16 aliases" true
    (Formats.of_string "bf16" = Some Formats.bfloat16
    && Formats.of_string "BFLOAT16" = Some Formats.bfloat16);
  checkb "custom token" true
    (Formats.of_string "e4m3" = Some (Formats.make ~ebits:4 ~mbits:3));
  checkb "double spellings" true
    (Formats.of_string "d" = Some Formats.double
    && Formats.of_string "e11m52" = Some Formats.double);
  checkb "rejects junk" true
    (Formats.of_string "e9m30" = None
    && Formats.of_string "em" = None
    && Formats.of_string "float128" = None);
  checks "names" "f16" (Formats.name Formats.half);
  checks "custom names fall back to the token" "e4m3"
    (Formats.name (Formats.make ~ebits:4 ~mbits:3));
  (* menus parse, dedupe and sort cheapest-first: bf16 (16 bits, 7 mant)
     before f16 (16 bits, 10 mant) before tf32 (19) before single (32) *)
  (match Formats.menu_of_string "single, f16 ,bf16,double,f16" with
  | Ok menu ->
      checks "menu order" "bf16,f16,single,double" (Formats.menu_to_string menu)
  | Error e -> Alcotest.failf "menu rejected: %s" e);
  (match Formats.menu_of_string "bf16,zz9" with
  | Error e -> checkb "error names the bad token" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "menu accepted an unknown token");
  checkb "empty menu rejected" true (Result.is_error (Formats.menu_of_string " , ,"));
  (* widths and the search's bits-saved metric *)
  checki "half width" 16 (Formats.width Formats.half);
  checki "bf16 width" 16 (Formats.width Formats.bfloat16);
  checki "tf32 width" 19 (Formats.width Formats.tf32);
  checki "half saves" 48 (Formats.bits_saved Formats.half);
  checki "single saves" 32 (Formats.bits_saved Formats.single);
  checki "double saves" 0 (Formats.bits_saved Formats.double)

(* ------------------------------------------------- Config flag integration *)

let test_flag_tokens () =
  checks "single" "s" (Config.flag_token Config.Single);
  checks "double" "d" (Config.flag_token Config.Double);
  checks "ignore" "i" (Config.flag_token Config.Ignore);
  checks "half" "e5m10" (Config.flag_token (Config.of_format Formats.half));
  (* of_format normalizes the IEEE widths back onto the legacy flags, so
     the exchange text and digests stay byte-identical *)
  checkb "of_format single" true (Config.of_format Formats.single = Config.Single);
  checkb "of_format double" true (Config.of_format Formats.double = Config.Double);
  List.iter
    (fun fl ->
      match Config.flag_of_token (Config.flag_token fl) with
      | Some fl' -> checkb ("round-trip " ^ Config.flag_token fl) true (fl = fl')
      | None -> Alcotest.failf "token %S did not parse" (Config.flag_token fl))
    [
      Config.Single;
      Config.Double;
      Config.Ignore;
      Config.of_format Formats.half;
      Config.of_format Formats.bfloat16;
      Config.of_format (Formats.make ~ebits:3 ~mbits:2);
    ];
  checkb "friendly names accepted" true
    (Config.flag_of_token "bf16" = Some (Config.of_format Formats.bfloat16)
    && Config.flag_of_token "single" = Some Config.Single);
  checkb "junk rejected" true (Config.flag_of_token "q" = None)

(* the program the compat tests pin digests and exchange text against *)
let synthetic_program () =
  let t = Builder.create () in
  let out = Builder.alloc_f t 4 in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        for k = 0 to 3 do
          let c = Builder.fconst b 0.5 in
          let v = Builder.fadd b c c in
          Builder.storef b (Builder.at (out + k)) v
        done)
  in
  Builder.program t ~main

(* Pre-lattice digest compatibility. Old journals and store logs key on
   this digest, so for configurations that only use s/d/i it
   must forever equal the original FNV-1a over (addr, flag char) —
   reimplemented here from the pre-lattice definition, independently of
   Config.digest's token-based generalization. *)
let legacy_digest prog cfg =
  let h = ref 0xcbf29ce484222325L in
  let mix c = h := Int64.mul (Int64.logxor !h (Int64.of_int c)) 0x100000001b3L in
  Array.iter
    (fun (info : Static.insn_info) ->
      mix info.Static.addr;
      let c =
        match Config.effective cfg info with
        | Config.Single -> 's'
        | Config.Double -> 'd'
        | Config.Ignore -> 'i'
        | Config.Fmt _ -> Alcotest.fail "legacy digest asked for a lattice flag"
      in
      mix (Char.code c))
    (Static.candidates prog);
  !h

let test_digest_compat () =
  let prog = synthetic_program () in
  let cands = Static.candidates prog in
  checkb "synthetic program has candidates" true (Array.length cands > 0);
  let rng = Rng.create 20260809 in
  for _ = 1 to 50 do
    let cfg =
      Array.fold_left
        (fun acc (info : Static.insn_info) ->
          match Rng.int rng 4 with
          | 0 -> Config.set_insn acc info.Static.addr Config.Single
          | 1 -> Config.set_insn acc info.Static.addr Config.Ignore
          | 2 -> Config.set_insn acc info.Static.addr Config.Double
          | _ -> acc)
        Config.empty cands
    in
    checks "pre-lattice digest unchanged"
      (Printf.sprintf "%016Lx" (legacy_digest prog cfg))
      (Config.digest prog cfg)
  done;
  (* and lattice flags produce distinct digests — a bf16 config must never
     collide with the single config in a shared result store *)
  let all flag =
    Array.fold_left
      (fun acc (info : Static.insn_info) -> Config.set_insn acc info.Static.addr flag)
      Config.empty cands
  in
  let ds = Config.digest prog (all Config.Single) in
  let db = Config.digest prog (all (Config.of_format Formats.bfloat16)) in
  let dh = Config.digest prog (all (Config.of_format Formats.half)) in
  checkb "format digests distinct" true (ds <> db && ds <> dh && db <> dh)

let test_exchange_text () =
  let prog = synthetic_program () in
  let cands = Static.candidates prog in
  let addr0 = cands.(0).Static.addr in
  let cfg =
    Config.set_insn
      (Config.set_insn Config.empty addr0 (Config.of_format Formats.half))
      cands.(Array.length cands - 1).Static.addr
      Config.Single
  in
  (* print -> parse is observationally the identity, lattice flags included *)
  (match Config.parse prog (Config.print prog cfg) with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok cfg' ->
      Array.iter
        (fun info ->
          checkb "effective flag survives" true
            (Config.effective cfg info = Config.effective cfg' info))
        cands;
      checks "digest survives" (Config.digest prog cfg) (Config.digest prog cfg'));
  (* a pre-lattice (s/d/i-only) rendering keeps the one-character flag
     column, byte-identical to the old exchange format *)
  let legacy = Config.print prog (Config.set_insn Config.empty addr0 Config.Single) in
  List.iter
    (fun line ->
      if line <> "" then
        checkb "legacy flag column is one char" true
          (match line.[0] with 's' | 'd' | 'i' | ' ' -> true | _ -> false))
    (String.split_on_char '\n' legacy);
  (* hostile exchange text: an unknown format token is a typed error, not a
     silently dropped flag — the wire carries these to workers *)
  (match Config.parse prog ("e9m9 MODULE: syn") with
  | Error e -> checkb "names the token" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted ebits=9");
  (match Config.parse prog ("z MODULE: syn") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted flag 'z'");
  (* census and bits accounting *)
  let census = Config.format_census prog cfg in
  checkb "census sees f16" true (List.mem_assoc "f16" census);
  checki "bits saved" (48 + 32) (Config.bits_saved prog cfg)

(* --------------------------------------- interpreter/compiled bit-identity *)

let all_flag_cfg flag prog =
  Array.fold_left
    (fun acc (info : Static.insn_info) -> Config.set_insn acc info.Static.addr flag)
    Config.empty (Static.candidates prog)

let fuzz_setup input vm = Vm.write_f vm 0 input

let test_differential_per_format () =
  List.iter
    (fun f ->
      let flag = Config.of_format f in
      for seed = 1 to 8 do
        let prog, input = Test_fuzz.random_program ((seed * 523) + 17) in
        let patched = Patcher.patch prog (all_flag_cfg flag prog) in
        Test_compile.differential ~checked:true ~setup:(fuzz_setup input)
          (Printf.sprintf "all-%s/seed-%d" (Formats.name f) seed)
          patched
      done)
    [ Formats.bfloat16; Formats.half; Formats.tf32; Formats.single ]

let test_differential_kernel_lattice () =
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun f ->
          let patched =
            Patcher.patch k.Kernel.program (all_flag_cfg (Config.of_format f) k.Kernel.program)
          in
          Test_compile.differential ~checked:true ~setup:k.Kernel.setup
            (k.Kernel.name ^ "/all-" ^ Formats.name f)
            patched)
        [ Formats.bfloat16; Formats.half; Formats.tf32 ];
      (* mixed lattice config: alternate bf16 / f16 / single per candidate *)
      let i = ref 0 in
      let mixed =
        Array.fold_left
          (fun acc (info : Static.insn_info) ->
            incr i;
            let flag =
              match !i mod 3 with
              | 0 -> Config.of_format Formats.bfloat16
              | 1 -> Config.of_format Formats.half
              | _ -> Config.Single
            in
            Config.set_insn acc info.Static.addr flag)
          Config.empty
          (Static.candidates k.Kernel.program)
      in
      Test_compile.differential ~checked:true ~setup:k.Kernel.setup
        (k.Kernel.name ^ "/mixed-lattice")
        (Patcher.patch k.Kernel.program mixed))
    [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W ]

(* the lattice on NAS kernels (second phase on): a single,double menu is the
   single-only search, final for final, and the full bf16,f16,single,double
   menu saves strictly more bits with a verified final. The pins (bits of
   both menus, full-menu evaluations and census) are the numbers
   EXPERIMENTS.md quotes. *)
let test_menus_on_kernels () =
  List.iter
    (fun ((k : Kernel.t), (single_bits, full_bits, full_evals, census)) ->
      let search formats =
        Bfs.search
          ~options:{ Bfs.default_options with second_phase = true; formats }
          (Kernel.target k)
      in
      let single = search [ Formats.single ] in
      let restricted = search [ Formats.single; Formats.double ] in
      let full = search [ Formats.bfloat16; Formats.half; Formats.single; Formats.double ] in
      let digest (r : Bfs.result) = Config.digest k.Kernel.program r.Bfs.final in
      checks (k.Kernel.name ^ ": single,double menu reproduces single") (digest single)
        (digest restricted);
      checkb (k.Kernel.name ^ ": single final passes") true single.Bfs.final_pass;
      checkb (k.Kernel.name ^ ": full-menu final passes") true full.Bfs.final_pass;
      if full.Bfs.bits_saved <= single.Bfs.bits_saved then
        Alcotest.failf "%s: full menu saved %d bits, single alone %d" k.Kernel.name
          full.Bfs.bits_saved single.Bfs.bits_saved;
      checki (k.Kernel.name ^ ": single bits") single_bits single.Bfs.bits_saved;
      checki (k.Kernel.name ^ ": full-menu bits") full_bits full.Bfs.bits_saved;
      checki (k.Kernel.name ^ ": full-menu evaluations") full_evals full.Bfs.tested;
      Alcotest.(check (list (pair string int)))
        (k.Kernel.name ^ ": full-menu census") census
        (Config.format_census k.Kernel.program full.Bfs.final))
    [
      (Nas_cg.make Kernel.W, (576, 864, 53, [ ("bf16", 18); ("double", 17) ]));
      (Nas_mg.make Kernel.W, (480, 608, 104, [ ("bf16", 8); ("double", 25); ("single", 7) ]));
    ]

(* -------------------------------------------------------- shadow formats *)

let test_shadow_format () =
  let prog, input = Test_fuzz.random_program 8461 in
  (* a bf16 shadow loses at least as much as the single shadow *)
  let run fmt =
    let tracer = Shadow_tracer.create ?fmt prog in
    let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:(fuzz_setup input) in
    Array.fold_left
      (fun acc s -> acc +. s.Shadow_tracer.sum_rel)
      0.0 (Shadow_tracer.stats tracer)
  in
  let single_err = run None in
  let bf16_err = run (Some Formats.bfloat16) in
  checkb "bf16 shadow error >= single shadow error" true (bf16_err >= single_err);
  (* all_format at single reproduces all_single exactly *)
  let a = Shadow_tracer.all_single prog in
  let b = Shadow_tracer.all_format Formats.single prog in
  checks "all_format single = all_single" (Config.digest prog a) (Config.digest prog b)

(* ------------------------------------------------- pre-lattice replay compat *)

let test_journal_replay_compat () =
  let prog = synthetic_program () in
  let cands = Static.candidates prog in
  (* the digests a pre-lattice campaign would have journaled *)
  let cfg_single =
    Array.fold_left
      (fun acc (info : Static.insn_info) -> Config.set_insn acc info.Static.addr Config.Single)
      Config.empty cands
  in
  let d_empty = Config.digest prog Config.empty in
  let d_single = Config.digest prog cfg_single in
  let path = Filename.temp_file "craft_formats_journal" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* a journal written by the pre-lattice system: v1 header, bare
         16-hex digests, verdict tokens, sequence numbers *)
      let oc = open_out path in
      Printf.fprintf oc "# craft-journal v1 syn\n";
      Printf.fprintf oc "%s pass 1 | (all-double)\n" d_empty;
      Printf.fprintf oc "%s fail 2 | s MODULE: syn\n" d_single;
      output_string oc "garbage-trailing-half-record";
      close_out oc;
      let j = Journal.create ~resume:true ~path prog in
      Fun.protect
        ~finally:(fun () -> Journal.close j)
        (fun () ->
          checki "both records replayed" 2 (Journal.replayed j);
          (match Journal.lookup j Config.empty with
          | Some Verdict.Pass -> ()
          | _ -> Alcotest.fail "all-double verdict lost on replay");
          (match Journal.lookup j cfg_single with
          | Some Verdict.Fail_verify -> ()
          | Some v ->
              Alcotest.failf "all-single verdict mangled: %s" (Harness.verdict_label v)
          | None -> Alcotest.fail "all-single verdict lost on replay");
          (* a lattice config is a miss, not a collision *)
          let cfg_bf16 = all_flag_cfg (Config.of_format Formats.bfloat16) prog in
          checkb "bf16 config not falsely memoized" true
            (Journal.lookup j cfg_bf16 = None);
          checki "replay hits counted" 2 (Journal.hits j)))

let suite =
  [
    agrees_with_reference;
    idempotent;
    monotone;
    sign_symmetric;
    grid_exact;
    single_is_f32;
    double_is_identity;
    token_roundtrip;
    ("formats: binary16 reference vectors", `Quick, test_half_vectors);
    ("formats: bfloat16 reference vectors", `Quick, test_bfloat16_vectors);
    ("formats: NaN payload truncation", `Quick, test_nan_payloads);
    ("formats: names, tokens and menus", `Quick, test_names_and_menus);
    ("formats: Config flag tokens", `Quick, test_flag_tokens);
    ("formats: pre-lattice digests byte-identical", `Quick, test_digest_compat);
    ("formats: exchange text round-trip and rejection", `Quick, test_exchange_text);
    ("formats: interp = compiled on fuzz programs per format", `Quick, test_differential_per_format);
    ("formats: interp = compiled on cg.W and mg.W lattice configs", `Quick, test_differential_kernel_lattice);
    ("formats: menus on cg.W and mg.W", `Quick, test_menus_on_kernels);
    ("formats: shadow carries reduced-format shadows", `Quick, test_shadow_format);
    ("formats: pre-lattice journal replays cleanly", `Quick, test_journal_replay_compat);
  ]
