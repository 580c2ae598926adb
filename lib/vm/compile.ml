(* ------------------------------------------------------------ compiled form *)

(* A compiled terminator keeps the block-index shape of [Ir.terminator];
   resolving indices to closures here would tie a block to one linked
   function instance and defeat cross-config caching.

   [CTestBr] and [CIcmpBr] are fused terminators: when a block's last
   instruction computes exactly the flag the [Br] branches on, the pair
   executes inline in the block driver with no closure dispatch.  The
   patcher's operand-check diamond ends a block with [Ftestflag tf, r]
   + [Br tf] per checked operand — about a third of all executed
   instructions in a patched program — and loop headers end with
   [Icmp] + [Br].  The fused forms keep the instruction's full effect
   (count bump, flag-register write) so state stays bit-identical to
   the interpreter's. *)
type cterm =
  | CJmp of int
  | CBr of int * int * int
  | CRet
  | CTestBr of { addr : int; tf : int; src : int; th : int; el : int }
  | CIcmpBr of { c : Ir.cmpop; addr : int; d : int; a : int; b : int; th : int; el : int }

(* The per-frame execution environment a compiled closure runs against.
   Everything a closure touches at runtime lives here; everything else
   (operand registers, precision mode, bounds, checked-mode tests, trap
   reasons, constants) was resolved when the closure was built. [exec] is
   the run's own call-into-function entry point, threaded through the
   environment so cached closures capture no per-run state.

   Closures do not maintain [Vm.counts]: a block's instructions execute
   exactly [bcounts] times each, except in the one partially-completed
   block of every active frame when a trap, limit or deadline aborts the
   run.  The driver therefore only records the frame's current block
   index ([cur_bidx]) and the body position being executed ([cur_k]) —
   two int stores, no write barrier — and [run] rebuilds exact
   per-instruction counts from [bcounts] in one O(program) pass at the
   end, with a per-frame fixup for the partial blocks on the exception
   path. *)
type env = {
  t : Vm.t;
  fr : float array;
  ir : int array;
  fheap : float array;
  iheap : int array;
  lfuncs : lfunc array;
  exec : lfunc -> float array -> int array -> float array * int array;
  mutable cur_bidx : int;
  mutable cur_k : int;
}

and cblock = {
  clabel : int;
  nsteps : int;  (** instruction count + 1, the interpreter's per-block step charge *)
  body : (env -> unit) array;
  cterm : cterm;
  iaddrs : int array;
      (** addresses of all the source block's instructions, in order,
          including one fused into the terminator — the unit of the
          bcounts-based count reconstruction *)
}

and lfunc = { src : Ir.func; cblocks : cblock array }

(* ------------------------------------------------------------------- cache *)

(* The cache witness: the full block-local slice of everything compilation
   specialized on. Two patched variants of a program share a block's
   compiled form exactly when this record compares equal — the instruction
   array carries every precision decision (the patcher's layout is
   config-invariant, so a BFS wave that flips one function misses only on
   that function's blocks). *)
type witness = {
  w_checked : bool;
  w_plain : bool;
  w_nf : int;
  w_ni : int;
  w_fregs : int;
  w_iregs : int;
  w_instrs : Ir.instr array;
  w_term : Ir.terminator;
}

type cache = (witness, cblock) Code_cache.t

let create_cache () : cache = Code_cache.create ()
let stats = Code_cache.stats
let report = Code_cache.report

(* -------------------------------------------------------------- primitives *)

let trap addr reason = raise (Vm.Trap (addr, reason))

let oob = "heap access out of bounds"

(* binary32 round of a double, bit-exact with F32.round *)
let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* low-32-bit extraction of a replaced encoding, bit-exact with
   Vm's extract32 *)
let[@inline] x32 v = Int32.float_of_bits (Int64.to_int32 (Int64.bits_of_float v))

(* Local, inlinable copies of the Replaced bit tests.  Without flambda a
   cross-module call cannot be inlined, so every [Replaced.is_replaced] in a
   closure body boxes its float argument and its Int64 intermediates; these
   formulations compile to straight-line unboxed code.  [is_rep] compares the
   high word as a native int: the logical shift lands in [0, 2^32), where
   [Int64.to_int] is exact, so the int equality is bit-identical to
   [Replaced.is_replaced]. *)
let[@inline] is_rep v =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 32) = 0x7FF4DEAD

(* bit-exact with [Replaced.encode] / [Replaced.downcast] *)
let[@inline] enc x =
  Int64.float_of_bits
    (Int64.logor 0x7FF4DEAD00000000L
       (Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFF_FFFFL))

(* checked D-operand fetch *)
let[@inline] dchk addr v =
  if is_rep v then trap addr "replaced operand reaches a double-precision op"
  else v

(* checked Flagged S-operand fetch *)
let[@inline] schk addr v =
  if not (is_rep v) then
    trap addr "unreplaced operand reaches a single-precision op"
  else x32 v

(* checked Plain S-operand fetch *)
let[@inline] pchk addr v =
  if is_rep v then trap addr "replaced operand in a plain-single binary"
  else round32 v

(* S-operand fetch for the non-specialized paths, resolved once per instr *)
let s_fetch ~plain ~checked addr : float -> float =
  match (plain, checked) with
  | false, false -> x32
  | false, true -> schk addr
  | true, false -> round32
  | true, true -> pchk addr

let s_store ~plain : float -> float = if plain then Fun.id else enc

(* Reduced-format [E] operand fetch: identical to the S shapes in Flagged
   mode (the payload is a binary32 sentinel either way), format-grid round
   in Plain mode. Trap reasons match Vm.ope exactly — the differential
   suite compares verdicts bit-for-bit. *)
let e_fetch ~plain ~checked fmt addr : float -> float =
  match (plain, checked) with
  | false, false -> x32
  | false, true ->
      fun v ->
        if not (is_rep v) then
          trap addr "unreplaced operand reaches a reduced-precision op"
        else x32 v
  | true, false -> Formats.round fmt
  | true, true ->
      fun v ->
        if is_rep v then trap addr "replaced operand in a plain reduced-precision binary"
        else Formats.round fmt v

(* Every F32 binary/unary op is (binary32 round) of the host double op, so
   S-precision compute compiles to [round32 (double_fn ...)]. *)
let fbin_fn (o : Ir.fbinop) : float -> float -> float =
  match o with
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Min -> Float.min
  | Max -> Float.max

let funop_fn (o : Ir.funop) : float -> float =
  match o with Sqrt -> sqrt | Neg -> ( ~-. ) | Abs -> Float.abs

let flibm_fn (o : Ir.flibm) : float -> float =
  match o with Sin -> sin | Cos -> cos | Tan -> tan | Exp -> exp | Log -> log | Atan -> atan

let cmp_fn (c : Ir.cmpop) : float -> float -> bool =
  match c with
  | Eq -> fun x y -> x = y
  | Ne -> fun x y -> x <> y
  | Lt -> fun x y -> x < y
  | Le -> fun x y -> x <= y
  | Gt -> fun x y -> x > y
  | Ge -> fun x y -> x >= y

(* Register accesses in closure bodies are unsafe: every register operand of
   every instruction was range-checked against the function's frame sizes
   when the block was compiled (see [check_registers]), and a cache hit
   requires an identical witness — same instructions, same frame sizes. *)
let[@inline] gf e i = Array.unsafe_get e.fr i
let[@inline] sf e i v = Array.unsafe_set e.fr i v
let[@inline] gi e i = Array.unsafe_get e.ir i
let[@inline] si e i v = Array.unsafe_set e.ir i v

(* ------------------------------------------------- per-instruction closures *)

(* Scalar Fbin arms are written out in full for the hot combinations
   (register indices, checked tests and encode/extract steps all burned
   into one straight-line closure); colder shapes go through the resolved
   [fetch]/[fn]/[store] functions. *)

let compile_fbin_d ~checked addr (o : Ir.fbinop) d a b : env -> unit =
  if checked then
    match o with
    | Add -> fun e -> sf e d (dchk addr (gf e a) +. dchk addr (gf e b))
    | Sub -> fun e -> sf e d (dchk addr (gf e a) -. dchk addr (gf e b))
    | Mul -> fun e -> sf e d (dchk addr (gf e a) *. dchk addr (gf e b))
    | Div -> fun e -> sf e d (dchk addr (gf e a) /. dchk addr (gf e b))
    | Min -> fun e -> sf e d (Float.min (dchk addr (gf e a)) (dchk addr (gf e b)))
    | Max -> fun e -> sf e d (Float.max (dchk addr (gf e a)) (dchk addr (gf e b)))
  else
    match o with
    | Add -> fun e -> sf e d ((gf e a) +. (gf e b))
    | Sub -> fun e -> sf e d ((gf e a) -. (gf e b))
    | Mul -> fun e -> sf e d ((gf e a) *. (gf e b))
    | Div -> fun e -> sf e d ((gf e a) /. (gf e b))
    | Min -> fun e -> sf e d (Float.min (gf e a) (gf e b))
    | Max -> fun e -> sf e d (Float.max (gf e a) (gf e b))

let compile_fbin_s ~checked ~plain addr (o : Ir.fbinop) d a b : env -> unit =
  if not plain then
    if checked then
      match o with
      | Add -> fun e -> sf e d (enc (round32 (schk addr (gf e a) +. schk addr (gf e b))))
      | Sub -> fun e -> sf e d (enc (round32 (schk addr (gf e a) -. schk addr (gf e b))))
      | Mul -> fun e -> sf e d (enc (round32 (schk addr (gf e a) *. schk addr (gf e b))))
      | Div -> fun e -> sf e d (enc (round32 (schk addr (gf e a) /. schk addr (gf e b))))
      | Min -> fun e -> sf e d (enc (round32 (Float.min (schk addr (gf e a)) (schk addr (gf e b)))))
      | Max -> fun e -> sf e d (enc (round32 (Float.max (schk addr (gf e a)) (schk addr (gf e b)))))
    else
      match o with
      | Add -> fun e -> sf e d (enc (round32 (x32 (gf e a) +. x32 (gf e b))))
      | Sub -> fun e -> sf e d (enc (round32 (x32 (gf e a) -. x32 (gf e b))))
      | Mul -> fun e -> sf e d (enc (round32 (x32 (gf e a) *. x32 (gf e b))))
      | Div -> fun e -> sf e d (enc (round32 (x32 (gf e a) /. x32 (gf e b))))
      | Min -> fun e -> sf e d (enc (round32 (Float.min (x32 (gf e a)) (x32 (gf e b)))))
      | Max -> fun e -> sf e d (enc (round32 (Float.max (x32 (gf e a)) (x32 (gf e b)))))
  else
    (* Plain mode only runs manually-converted binaries (run_converted);
       not a search hot path, so resolved functions suffice *)
    let fetch = s_fetch ~plain ~checked addr and fn = fbin_fn o in
    fun e -> sf e d (round32 (fn (fetch (gf e a)) (fetch (gf e b))))

let compile_fbinp ~checked ~plain addr (p : Ir.prec) (o : Ir.fbinop) d a b : env -> unit =
  (* both lanes read before either write — element-wise packed semantics,
     matching the interpreter's fixed Fbinp *)
  match p with
  | D ->
      let fn = fbin_fn o in
      if checked then
        fun e ->
          let x0 = dchk addr (gf e a) and y0 = dchk addr (gf e b) in
          let x1 = dchk addr (gf e (a + 1)) and y1 = dchk addr (gf e (b + 1)) in
          sf e d (fn x0 y0);
          sf e (d + 1) (fn x1 y1)
      else
        fun e ->
          let x0 = (gf e a) and y0 = (gf e b) in
          let x1 = (gf e (a + 1)) and y1 = (gf e (b + 1)) in
          sf e d (fn x0 y0);
          sf e (d + 1) (fn x1 y1)
  | S ->
      let fetch = s_fetch ~plain ~checked addr
      and fn = fbin_fn o
      and st = s_store ~plain in
      fun e ->
        let x0 = fetch (gf e a) and y0 = fetch (gf e b) in
        let x1 = fetch (gf e (a + 1)) and y1 = fetch (gf e (b + 1)) in
        sf e d (st (round32 (fn x0 y0)));
        sf e (d + 1) (st (round32 (fn x1 y1)))
  | E (eb, mb) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr
      and rnd = Formats.round fmt
      and fn = fbin_fn o
      and st = s_store ~plain in
      fun e ->
        let x0 = fetch (gf e a) and y0 = fetch (gf e b) in
        let x1 = fetch (gf e (a + 1)) and y1 = fetch (gf e (b + 1)) in
        sf e d (st (rnd (fn x0 y0)));
        sf e (d + 1) (st (rnd (fn x1 y1)))

(* loads/stores: addressing shape and bounds are burned in; the heap access
   is unsafe after the explicit bounds test (heap length = the witness's
   bound by construction) *)

let compile_fload ~nf addr d (m : Ir.mem) : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= nf then fun _e -> trap addr oob
      else fun e -> sf e d (Array.unsafe_get e.fheap off)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)

let compile_fstore ~nf addr (m : Ir.mem) s : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= nf then fun _e -> trap addr oob
      else fun e -> Array.unsafe_set e.fheap off (gf e s)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)

let compile_iload ~ni addr d (m : Ir.mem) : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= ni then fun _e -> trap addr oob
      else fun e -> si e d (Array.unsafe_get e.iheap off)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)

let compile_istore ~ni addr (m : Ir.mem) s : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= ni then fun _e -> trap addr oob
      else fun e -> Array.unsafe_set e.iheap off (gi e s)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)

let compile_ibin addr (o : Ir.ibinop) d a b : env -> unit =
  match o with
  | Iadd -> fun e -> si e d ((gi e a) + (gi e b))
  | Isub -> fun e -> si e d ((gi e a) - (gi e b))
  | Imul -> fun e -> si e d ((gi e a) * (gi e b))
  | Idiv ->
      fun e ->
        let y = (gi e b) in
        if y = 0 then trap addr "integer division by zero" else si e d ((gi e a) / y)
  | Irem ->
      fun e ->
        let y = (gi e b) in
        if y = 0 then trap addr "integer remainder by zero" else si e d ((gi e a) mod y)
  | Iand -> fun e -> si e d ((gi e a) land (gi e b))
  | Ior -> fun e -> si e d ((gi e a) lor (gi e b))
  | Ixor -> fun e -> si e d ((gi e a) lxor (gi e b))
  | Ishl -> fun e -> si e d ((gi e a) lsl (gi e b))
  | Ishr -> fun e -> si e d ((gi e a) asr (gi e b))
  | Imax -> fun e -> si e d ((let x = (gi e a) and y = (gi e b) in if x >= y then x else y))
  | Imin -> fun e -> si e d ((let x = (gi e a) and y = (gi e b) in if x <= y then x else y))

let compile_icmp _addr (c : Ir.cmpop) d a b : env -> unit =
  match c with
  | Eq -> fun e -> si e d (if (gi e a) = (gi e b) then 1 else 0)
  | Ne -> fun e -> si e d (if (gi e a) <> (gi e b) then 1 else 0)
  | Lt -> fun e -> si e d (if (gi e a) < (gi e b) then 1 else 0)
  | Le -> fun e -> si e d (if (gi e a) <= (gi e b) then 1 else 0)
  | Gt -> fun e -> si e d (if (gi e a) > (gi e b) then 1 else 0)
  | Ge -> fun e -> si e d (if (gi e a) >= (gi e b) then 1 else 0)

let compile_instr ~checked ~plain ~nf ~ni ({ addr; op } : Ir.instr) : env -> unit =
  match op with
  | Fbin (D, o, d, a, b) -> compile_fbin_d ~checked addr o d a b
  | Fbin (S, o, d, a, b) -> compile_fbin_s ~checked ~plain addr o d a b
  | Fbin (E (eb, mb), o, d, a, b) ->
      (* format and rounding resolved at compile time; the body is the S
         shape with the binary32 round swapped for the format-grid round *)
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr
      and rnd = Formats.round fmt
      and fn = fbin_fn o
      and st = s_store ~plain in
      fun e -> sf e d (st (rnd (fn (fetch (gf e a)) (fetch (gf e b)))))
  | Fbinp (p, o, d, a, b) -> compile_fbinp ~checked ~plain addr p o d a b
  | Funop (D, o, d, a) ->
      let fn = funop_fn o in
      if checked then fun e -> sf e d (fn (dchk addr (gf e a)))
      else fun e -> sf e d (fn (gf e a))
  | Funop (S, o, d, a) ->
      let fetch = s_fetch ~plain ~checked addr
      and fn = funop_fn o
      and st = s_store ~plain in
      fun e -> sf e d (st (round32 (fn (fetch (gf e a)))))
  | Funop (E (eb, mb), o, d, a) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr
      and rnd = Formats.round fmt
      and fn = funop_fn o
      and st = s_store ~plain in
      fun e -> sf e d (st (rnd (fn (fetch (gf e a)))))
  | Flibm (D, o, d, a) ->
      let fn = flibm_fn o in
      if checked then fun e -> sf e d (fn (dchk addr (gf e a)))
      else fun e -> sf e d (fn (gf e a))
  | Flibm (S, o, d, a) ->
      let fetch = s_fetch ~plain ~checked addr
      and fn = flibm_fn o
      and st = s_store ~plain in
      fun e -> sf e d (st (round32 (fn (fetch (gf e a)))))
  | Flibm (E (eb, mb), o, d, a) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr
      and rnd = Formats.round fmt
      and fn = flibm_fn o
      and st = s_store ~plain in
      fun e -> sf e d (st (rnd (fn (fetch (gf e a)))))
  | Fcmp (D, c, d, a, b) ->
      let cf = cmp_fn c in
      if checked then
        fun e ->
          si e d ((if cf (dchk addr (gf e a)) (dchk addr (gf e b)) then 1 else 0))
      else fun e -> si e d ((if cf (gf e a) (gf e b) then 1 else 0))
  | Fcmp (S, c, d, a, b) ->
      let fetch = s_fetch ~plain ~checked addr and cf = cmp_fn c in
      fun e ->
        si e d ((if cf (fetch (gf e a)) (fetch (gf e b)) then 1 else 0))
  | Fcmp (E (eb, mb), c, d, a, b) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr and cf = cmp_fn c in
      fun e ->
        si e d ((if cf (fetch (gf e a)) (fetch (gf e b)) then 1 else 0))
  | Fconst (D, d, x) -> fun e -> sf e d (x)
  | Fconst (S, d, x) ->
      (* the rounded (and, in Flagged mode, encoded) constant is itself a
         compile-time constant *)
      let v = if plain then round32 x else enc (round32 x) in
      fun e -> sf e d (v)
  | Fconst (E (eb, mb), d, x) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let r = Formats.round fmt x in
      let v = if plain then r else enc r in
      fun e -> sf e d (v)
  | Fmov (d, a) -> fun e -> sf e d ((gf e a))
  | Fload (d, m) -> compile_fload ~nf addr d m
  | Fstore (m, a) -> compile_fstore ~nf addr m a
  | Fcvt_i2f (D, d, a) -> fun e -> sf e d (float_of_int (gi e a))
  | Fcvt_i2f (S, d, a) ->
      let st = s_store ~plain in
      fun e -> sf e d (st (round32 (float_of_int (gi e a))))
  | Fcvt_i2f (E (eb, mb), d, a) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let rnd = Formats.round fmt and st = s_store ~plain in
      fun e -> sf e d (st (rnd (float_of_int (gi e a))))
  | Fcvt_f2i (D, d, a) ->
      if checked then fun e -> si e d (int_of_float (dchk addr (gf e a)))
      else fun e -> si e d (int_of_float (gf e a))
  | Fcvt_f2i (S, d, a) ->
      let fetch = s_fetch ~plain ~checked addr in
      fun e -> si e d (int_of_float (fetch (gf e a)))
  | Fcvt_f2i (E (eb, mb), d, a) ->
      let fmt = Formats.make ~ebits:eb ~mbits:mb in
      let fetch = e_fetch ~plain ~checked fmt addr in
      fun e -> si e d (int_of_float (fetch (gf e a)))
  | Ibin (o, d, a, b) -> compile_ibin addr o d a b
  | Icmp (c, d, a, b) -> compile_icmp addr c d a b
  | Iconst (d, x) -> fun e -> si e d (x)
  | Imov (d, a) -> fun e -> si e d ((gi e a))
  | Iload (d, m) -> compile_iload ~ni addr d m
  | Istore (m, a) -> compile_istore ~ni addr m a
  | Call { callee; fargs; iargs; frets; irets } ->
      fun e ->
        let lf = e.lfuncs.(callee) in
        let fa = Array.map (fun r -> e.fr.(r)) fargs in
        let ia = Array.map (fun r -> e.ir.(r)) iargs in
        let rf, ri = e.exec lf fa ia in
        e.t.Vm.cur_fregs <- e.fr;
        e.t.Vm.cur_iregs <- e.ir;
        Array.iteri (fun k r -> e.fr.(r) <- rf.(k)) frets;
        Array.iteri (fun k r -> e.ir.(r) <- ri.(k)) irets
  | Ftestflag (d, a) ->
      fun e -> si e d ((if is_rep (gf e a) then 1 else 0))
  | Fdowncast (d, a) -> fun e -> sf e d (enc (gf e a))
  | Fupcast (d, a) ->
      fun e ->
        let v = (gf e a) in
        if not (is_rep v) then trap addr "upcast of an unreplaced value"
        else sf e d (x32 v)
  | Fexpo (d, a) ->
      fun e ->
        si e d
          (Int64.to_int
             (Int64.logand
                (Int64.shift_right_logical (Int64.bits_of_float (gf e a)) 52)
                0x7FFL))

(* ----------------------------------------------------------------- linking *)

(* Register operands are range-checked once per compiled block so the closure
   bodies can use unsafe frame accesses.  This runs only on cache misses: a
   hit requires an identical witness, including the frame sizes the block
   was validated against.  All in-tree program producers (Builder, Asm, the
   patcher) satisfy {!Ir.validate}, so a failure here indicates a
   hand-constructed malformed program. *)
let check_registers ~fregs ~iregs ~fname (b : Ir.block) =
  let bad kind r =
    invalid_arg
      (Printf.sprintf "Compile: %s: block %d: %s register %d out of range" fname
         b.Ir.label kind r)
  in
  let chk_f r = if r < 0 || r >= fregs then bad "float" r in
  let chk_i r = if r < 0 || r >= iregs then bad "int" r in
  Array.iter
    (fun ({ op; _ } : Ir.instr) ->
      List.iter chk_f (Ir.defined_fregs op);
      List.iter chk_f (Ir.used_fregs op);
      List.iter chk_i (Ir.defined_iregs op);
      List.iter chk_i (Ir.used_iregs op))
    b.Ir.instrs;
  match b.Ir.term with Br (r, _, _) -> chk_i r | Jmp _ | Ret -> ()

let compile_block ?cache ~checked ~plain ~nf ~ni ~fregs ~iregs ~fname (b : Ir.block) :
    cblock =
  let build () =
    check_registers ~fregs ~iregs ~fname b;
    let n = Array.length b.instrs in
    (* fuse a flag-computing last instruction into the branch that tests it *)
    let fused, cterm =
      match b.term with
      | Jmp tgt -> (0, CJmp tgt)
      | Ret -> (0, CRet)
      | Br (r, th, el) -> (
          if n = 0 then (0, CBr (r, th, el))
          else
            match b.instrs.(n - 1) with
            | { addr; op = Ftestflag (d, a) } when d = r ->
                (1, CTestBr { addr; tf = d; src = a; th; el })
            | { addr; op = Icmp (c, d, a, b') } when d = r ->
                (1, CIcmpBr { c; addr; d; a; b = b'; th; el })
            | _ -> (0, CBr (r, th, el)))
    in
    {
      clabel = b.label;
      (* the fused instruction still counts toward the step charge *)
      nsteps = n + 1;
      body =
        Array.map (compile_instr ~checked ~plain ~nf ~ni) (Array.sub b.instrs 0 (n - fused));
      cterm;
      iaddrs = Array.map (fun (i : Ir.instr) -> i.addr) b.instrs;
    }
  in
  match cache with
  | None -> build ()
  | Some c ->
      let witness =
        {
          w_checked = checked;
          w_plain = plain;
          w_nf = nf;
          w_ni = ni;
          w_fregs = fregs;
          w_iregs = iregs;
          w_instrs = b.instrs;
          w_term = b.term;
        }
      in
      Code_cache.find_or_add c ~fname ~label:b.label ~witness build

let link ?cache ~checked ~plain (p : Ir.program) : lfunc array =
  let nf = p.fheap_size and ni = p.iheap_size in
  Array.map
    (fun (f : Ir.func) ->
      {
        src = f;
        cblocks =
          Array.map
            (compile_block ?cache ~checked ~plain ~nf ~ni ~fregs:f.n_fregs
               ~iregs:f.n_iregs ~fname:f.fname)
            f.blocks;
      })
    p.funcs

(* --------------------------------------------------------------- execution *)

let run ?cache (t : Vm.t) =
  if t.Vm.hooks <> [] then
    (* hooks observe (or perturb) every executed instruction; compiled code
       has no per-instruction observation point, so any installed hook —
       fault injector, shadow tracer, a test probe — routes the run through
       the interpreter unchanged *)
    Vm.run t
  else begin
    if t.Vm.ran then
      invalid_arg
        "Vm.run: this state has already executed (counters and heaps reflect \
         the previous run); create a fresh VM per run";
    t.Vm.ran <- true;
    (* fetched once per run, exactly like the interpreter *)
    let watchdog = Vm.installed_watchdog () in
    let plain = t.Vm.smode = Vm.Plain in
    let lfuncs = link ?cache ~checked:t.Vm.checked ~plain t.Vm.prog in
    let fheap = t.Vm.fheap
    and iheap = t.Vm.iheap
    and counts = t.Vm.counts
    and bcounts = t.Vm.bcounts in
    let rec exec lf fargs iargs =
      let f = lf.src in
      let fr = Array.make f.Ir.n_fregs 0.0 in
      let ir = Array.make f.Ir.n_iregs 0 in
      Array.blit fargs 0 fr 0 (Array.length fargs);
      Array.blit iargs 0 ir 0 (Array.length iargs);
      t.Vm.cur_fregs <- fr;
      t.Vm.cur_iregs <- ir;
      let e =
        { t; fr; ir; fheap; iheap; lfuncs; exec; cur_bidx = f.Ir.entry; cur_k = -1 }
      in
      let cblocks = lf.cblocks in
      let max_steps = t.Vm.max_steps in
      (* The block driver is duplicated on watchdog presence so the common
         no-watchdog case pays no per-block match.  [bcounts] and the [Br]
         register access are unsafe: any program containing a cached block
         has a [bcounts] array longer than that block's label, and the [Br]
         register was range-checked by [check_registers].  [cur_bidx]/[cur_k]
         record how far the current block got — the instruction the frame is
         executing is already counted (the interpreter bumps before it runs),
         everything after it is not. *)
      let rec go bidx =
        let cb = Array.unsafe_get cblocks bidx in
        e.cur_bidx <- bidx;
        e.cur_k <- -1;
        let l = cb.clabel in
        Array.unsafe_set bcounts l (Array.unsafe_get bcounts l + 1);
        t.Vm.steps <- t.Vm.steps + cb.nsteps;
        if t.Vm.steps > max_steps then raise (Vm.Limit max_steps);
        let body = cb.body in
        for k = 0 to Array.length body - 1 do
          e.cur_k <- k;
          (Array.unsafe_get body k) e
        done;
        match cb.cterm with
        | CJmp tgt -> go tgt
        | CBr (r, th, el) -> if Array.unsafe_get ir r <> 0 then go th else go el
        | CTestBr { addr = _; tf; src; th; el } ->
            let rep = is_rep (Array.unsafe_get fr src) in
            Array.unsafe_set ir tf (if rep then 1 else 0);
            if rep then go th else go el
        | CIcmpBr { c; addr = _; d; a; b; th; el } ->
            let x = Array.unsafe_get ir a and y = Array.unsafe_get ir b in
            let v =
              match c with
              | Eq -> x = y
              | Ne -> x <> y
              | Lt -> x < y
              | Le -> x <= y
              | Gt -> x > y
              | Ge -> x >= y
            in
            Array.unsafe_set ir d (if v then 1 else 0);
            if v then go th else go el
        | CRet -> ()
      in
      (* the watchdog heartbeats per block here (per instruction in the
         interpreter): cancellation latency stays a few hundred blocks,
         and the block label stands in for the instruction address *)
      let rec go_w w bidx =
        let cb = Array.unsafe_get cblocks bidx in
        e.cur_bidx <- bidx;
        e.cur_k <- -1;
        let l = cb.clabel in
        Array.unsafe_set bcounts l (Array.unsafe_get bcounts l + 1);
        t.Vm.steps <- t.Vm.steps + cb.nsteps;
        if t.Vm.steps > max_steps then raise (Vm.Limit max_steps);
        w t cb.clabel;
        let body = cb.body in
        for k = 0 to Array.length body - 1 do
          e.cur_k <- k;
          (Array.unsafe_get body k) e
        done;
        match cb.cterm with
        | CJmp tgt -> go_w w tgt
        | CBr (r, th, el) -> if Array.unsafe_get ir r <> 0 then go_w w th else go_w w el
        | CTestBr { addr = _; tf; src; th; el } ->
            let rep = is_rep (Array.unsafe_get fr src) in
            Array.unsafe_set ir tf (if rep then 1 else 0);
            if rep then go_w w th else go_w w el
        | CIcmpBr { c; addr = _; d; a; b; th; el } ->
            let x = Array.unsafe_get ir a and y = Array.unsafe_get ir b in
            let v =
              match c with
              | Eq -> x = y
              | Ne -> x <> y
              | Lt -> x < y
              | Le -> x <= y
              | Gt -> x > y
              | Ge -> x >= y
            in
            Array.unsafe_set ir d (if v then 1 else 0);
            if v then go_w w th else go_w w el
        | CRet -> ()
      in
      (try match watchdog with None -> go f.Ir.entry | Some w -> go_w w f.Ir.entry
       with ex ->
         (* the run is aborting: retract the counts of this frame's current
            block for the instructions it did not reach, so the final
            bcounts-based reconstruction yields exactly the interpreter's
            per-instruction counts *)
         let cb = Array.unsafe_get cblocks e.cur_bidx in
         let ia = cb.iaddrs in
         for i = e.cur_k + 1 to Array.length ia - 1 do
           let a = Array.unsafe_get ia i in
           counts.(a) <- counts.(a) - 1
         done;
         raise ex);
      ( Array.map (fun r -> fr.(r)) f.Ir.ret_fregs,
        Array.map (fun r -> ir.(r)) f.Ir.ret_iregs )
    in
    (* one O(program) pass turns block entry counts into exact
       per-instruction counts (plus the per-frame retractions above on the
       abort path); runs on both the normal and the exceptional exit *)
    let reconstruct () =
      Array.iter
        (fun lf ->
          Array.iter
            (fun cb ->
              let m = Array.unsafe_get bcounts cb.clabel in
              if m <> 0 then
                let ia = cb.iaddrs in
                for i = 0 to Array.length ia - 1 do
                  let a = Array.unsafe_get ia i in
                  counts.(a) <- counts.(a) + m
                done)
            lf.cblocks)
        lfuncs
    in
    let main = lfuncs.(t.Vm.prog.main) in
    let mf = main.src in
    (match exec main (Array.make mf.Ir.n_fargs 0.0) (Array.make mf.Ir.n_iargs 0) with
    | (_ : float array * int array) -> reconstruct ()
    | exception ex ->
        reconstruct ();
        raise ex)
  end
