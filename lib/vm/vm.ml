exception Trap of int * string
exception Limit of int
exception Deadline of float

type smode = Flagged | Plain

type t = {
  prog : Ir.program;
  fheap : float array;
  iheap : int array;
  counts : int array;
  bcounts : int array;
  cand_addrs : int array;
  checked : bool;
  smode : smode;
  max_steps : int;
  mutable steps : int;
  mutable ran : bool;
  mutable hooks : (int * (t -> int -> unit)) list;
  mutable next_hook_id : int;
  mutable cur_fregs : float array;
  mutable cur_iregs : int array;
}

let add_hook t h =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  t.hooks <- t.hooks @ [ (id, h) ];
  id

let remove_hook t id = t.hooks <- List.filter (fun (i, _) -> i <> id) t.hooks

(* Domain-local watchdog: a supervisor (Search.Pool's monitor) installs a
   callback on the worker domain before it evaluates, and every VM created on
   that domain drives it per executed instruction — the same observation
   point as [hook], but ambient, because the supervised VM is created deep
   inside the evaluation closure where the supervisor cannot reach. The
   callback doubles as a heartbeat (progress evidence) and a cancellation
   point (it may raise, typically {!Deadline}). *)
let watchdog_key : (t -> int -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_watchdog w f =
  let cell = Domain.DLS.get watchdog_key in
  let saved = !cell in
  cell := Some w;
  Fun.protect ~finally:(fun () -> cell := saved) f

let installed_watchdog () = !(Domain.DLS.get watchdog_key)

let max_addr_of (p : Ir.program) = Static.max_addr p

let max_label_of (p : Ir.program) =
  Array.fold_left
    (fun acc (f : Ir.func) ->
      Array.fold_left (fun acc (b : Ir.block) -> max acc b.label) acc f.blocks)
    0 p.funcs

(* Addresses of candidate FP instructions, collected once per state so
   {!fp_ops_executed} — called per evaluation by the harness and bench —
   sums a short vector instead of rescanning the whole program. *)
let cand_addrs_of (p : Ir.program) =
  let acc = ref [] in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun ({ addr; op } : Ir.instr) ->
              if Ir.is_candidate op then acc := addr :: !acc)
            b.instrs)
        f.blocks)
    p.funcs;
  Array.of_list (List.rev !acc)

let create ?(checked = false) ?(smode = Flagged) ?(max_steps = 2_000_000_000) prog =
  {
    prog;
    fheap = Array.make prog.fheap_size 0.0;
    iheap = Array.make prog.iheap_size 0;
    counts = Array.make (max_addr_of prog + 1) 0;
    bcounts = Array.make (max_label_of prog + 1) 0;
    cand_addrs = cand_addrs_of prog;
    checked;
    smode;
    max_steps;
    steps = 0;
    ran = false;
    hooks = [];
    next_hook_id = 0;
    cur_fregs = [||];
    cur_iregs = [||];
  }

let is_replaced = Replaced.is_replaced

let extract32 v = Int32.float_of_bits (Int64.to_int32 (Int64.bits_of_float v))

let trap addr reason = raise (Trap (addr, reason))

(* Operand fetch for D-precision ops: enforce the invariant in checked mode. *)
let opd t addr v = if t.checked && is_replaced v then trap addr "replaced operand reaches a double-precision op" else v

(* Operand fetch for S-precision ops. Flagged mode: operands must carry the
   replacement flag and the value is extracted from the low 32 bits. Plain
   mode (manually-converted binaries): operands are ordinary binary32-exact
   doubles. *)
let ops t addr v =
  match t.smode with
  | Flagged ->
      if t.checked && not (is_replaced v) then
        trap addr "unreplaced operand reaches a single-precision op"
      else extract32 v
  | Plain ->
      if t.checked && is_replaced v then
        trap addr "replaced operand in a plain-single binary"
      else F32.round v

(* Operand fetch for reduced-format [E] ops. Flagged mode is identical to
   the S case — the operand travels as a binary32 sentinel payload and every
   in-format value is binary32-exact, so extraction loses nothing. Plain
   mode rounds through the format grid (the manually-converted-binary
   reading of a reduced-format op). *)
let ope t fmt addr v =
  match t.smode with
  | Flagged ->
      if t.checked && not (is_replaced v) then
        trap addr "unreplaced operand reaches a reduced-precision op"
      else extract32 v
  | Plain ->
      if t.checked && is_replaced v then
        trap addr "replaced operand in a plain reduced-precision binary"
      else Formats.round fmt v

(* Result store for S-precision ops. *)
let sres t v = match t.smode with Flagged -> Replaced.encode v | Plain -> v

let fmt_of e m = Formats.make ~ebits:e ~mbits:m

let fbin_d (o : Ir.fbinop) x y =
  match o with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Min -> Float.min x y
  | Max -> Float.max x y

let fbin_s (o : Ir.fbinop) x y =
  match o with
  | Add -> F32.add x y
  | Sub -> F32.sub x y
  | Mul -> F32.mul x y
  | Div -> F32.div x y
  | Min -> F32.min x y
  | Max -> F32.max x y

let funop_d (o : Ir.funop) x =
  match o with Sqrt -> sqrt x | Neg -> -.x | Abs -> Float.abs x

let funop_s (o : Ir.funop) x =
  match o with Sqrt -> F32.sqrt x | Neg -> F32.neg x | Abs -> F32.abs x

let flibm_d (o : Ir.flibm) x =
  match o with
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x
  | Exp -> exp x
  | Log -> log x
  | Atan -> atan x

let flibm_s (o : Ir.flibm) x =
  match o with
  | Sin -> F32.sin x
  | Cos -> F32.cos x
  | Tan -> F32.tan x
  | Exp -> F32.exp x
  | Log -> F32.log x
  | Atan -> F32.atan x

let cmp (c : Ir.cmpop) (x : float) (y : float) =
  let b =
    match c with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
  in
  if b then 1 else 0

let icmp (c : Ir.cmpop) (x : int) (y : int) =
  let b =
    match c with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
  in
  if b then 1 else 0

let ibin addr (o : Ir.ibinop) x y =
  match o with
  | Iadd -> x + y
  | Isub -> x - y
  | Imul -> x * y
  | Idiv -> if y = 0 then trap addr "integer division by zero" else x / y
  | Irem -> if y = 0 then trap addr "integer remainder by zero" else x mod y
  | Iand -> x land y
  | Ior -> x lor y
  | Ixor -> x lxor y
  | Ishl -> x lsl y
  | Ishr -> x asr y
  | Imax -> if x >= y then x else y
  | Imin -> if x <= y then x else y

let run t =
  if t.ran then
    invalid_arg
      "Vm.run: this state has already executed (counters and heaps reflect \
       the previous run); create a fresh VM per run";
  t.ran <- true;
  (* fetched once per run: installation happens before the evaluation starts,
     and cancellation is signalled through state the callback itself reads *)
  let watchdog = !(Domain.DLS.get watchdog_key) in
  let prog = t.prog in
  let fheap = t.fheap and iheap = t.iheap in
  let nf = Array.length fheap and ni = Array.length iheap in
  let counts = t.counts and bcounts = t.bcounts in
  let rec exec_func (f : Ir.func) (fargs : float array) (iargs : int array) =
    let fr = Array.make f.n_fregs 0.0 in
    let ir = Array.make f.n_iregs 0 in
    Array.blit fargs 0 fr 0 (Array.length fargs);
    Array.blit iargs 0 ir 0 (Array.length iargs);
    (* expose the active frame to hooks; each invocation's register arrays
       are fresh, so their physical identity distinguishes call frames *)
    t.cur_fregs <- fr;
    t.cur_iregs <- ir;
    let eaddr addr ({ base; index; scale; offset } : Ir.mem) bound =
      let a =
        offset
        + (match base with Some r -> ir.(r) | None -> 0)
        + (match index with Some r -> ir.(r) * scale | None -> 0)
      in
      if a < 0 || a >= bound then trap addr "heap access out of bounds" else a
    in
    let step ({ addr; op } : Ir.instr) =
      counts.(addr) <- counts.(addr) + 1;
      (* installation order; the list is an immutable snapshot, so a hook
         removing itself (Faults does) cannot disturb the iteration *)
      (match t.hooks with
      | [] -> ()
      | [ (_, h) ] -> h t addr
      | hs -> List.iter (fun (_, h) -> h t addr) hs);
      (match watchdog with Some w -> w t addr | None -> ());
      match op with
      | Fbin (D, o, d, a, b) -> fr.(d) <- fbin_d o (opd t addr fr.(a)) (opd t addr fr.(b))
      | Fbin (S, o, d, a, b) ->
          fr.(d) <- sres t (fbin_s o (ops t addr fr.(a)) (ops t addr fr.(b)))
      | Fbin (E (e, m), o, d, a, b) ->
          (* compute in binary64, round through the (e,m) grid: exact by the
             double-rounding theorem since every format has mbits <= 23 *)
          let f = fmt_of e m in
          fr.(d) <- sres t (Formats.round f (fbin_d o (ope t f addr fr.(a)) (ope t f addr fr.(b))))
      | Fbinp (D, o, d, a, b) ->
          (* both lanes read their operands before either result lands, as a
             packed register file does element-wise — with write-then-read,
             overlapping windows (d = a - 1, d = b - 1, ...) would feed lane
             0's result into lane 1's operands *)
          let x0 = opd t addr fr.(a) and y0 = opd t addr fr.(b) in
          let x1 = opd t addr fr.(a + 1) and y1 = opd t addr fr.(b + 1) in
          fr.(d) <- fbin_d o x0 y0;
          fr.(d + 1) <- fbin_d o x1 y1
      | Fbinp (S, o, d, a, b) ->
          let x0 = ops t addr fr.(a) and y0 = ops t addr fr.(b) in
          let x1 = ops t addr fr.(a + 1) and y1 = ops t addr fr.(b + 1) in
          fr.(d) <- sres t (fbin_s o x0 y0);
          fr.(d + 1) <- sres t (fbin_s o x1 y1)
      | Fbinp (E (e, m), o, d, a, b) ->
          let f = fmt_of e m in
          let x0 = ope t f addr fr.(a) and y0 = ope t f addr fr.(b) in
          let x1 = ope t f addr fr.(a + 1) and y1 = ope t f addr fr.(b + 1) in
          fr.(d) <- sres t (Formats.round f (fbin_d o x0 y0));
          fr.(d + 1) <- sres t (Formats.round f (fbin_d o x1 y1))
      | Funop (D, o, d, a) -> fr.(d) <- funop_d o (opd t addr fr.(a))
      | Funop (S, o, d, a) -> fr.(d) <- sres t (funop_s o (ops t addr fr.(a)))
      | Funop (E (e, m), o, d, a) ->
          let f = fmt_of e m in
          fr.(d) <- sres t (Formats.round f (funop_d o (ope t f addr fr.(a))))
      | Flibm (D, o, d, a) -> fr.(d) <- flibm_d o (opd t addr fr.(a))
      | Flibm (S, o, d, a) -> fr.(d) <- sres t (flibm_s o (ops t addr fr.(a)))
      | Flibm (E (e, m), o, d, a) ->
          let f = fmt_of e m in
          fr.(d) <- sres t (Formats.round f (flibm_d o (ope t f addr fr.(a))))
      | Fcmp (D, c, d, a, b) -> ir.(d) <- cmp c (opd t addr fr.(a)) (opd t addr fr.(b))
      | Fcmp (S, c, d, a, b) -> ir.(d) <- cmp c (ops t addr fr.(a)) (ops t addr fr.(b))
      | Fcmp (E (e, m), c, d, a, b) ->
          let f = fmt_of e m in
          ir.(d) <- cmp c (ope t f addr fr.(a)) (ope t f addr fr.(b))
      | Fconst (D, d, x) -> fr.(d) <- x
      | Fconst (S, d, x) -> fr.(d) <- sres t (F32.round x)
      | Fconst (E (e, m), d, x) -> fr.(d) <- sres t (Formats.round (fmt_of e m) x)
      | Fmov (d, a) -> fr.(d) <- fr.(a)
      | Fload (d, m) -> fr.(d) <- fheap.(eaddr addr m nf)
      | Fstore (m, a) -> fheap.(eaddr addr m nf) <- fr.(a)
      | Fcvt_i2f (D, d, a) -> fr.(d) <- float_of_int ir.(a)
      | Fcvt_i2f (S, d, a) -> fr.(d) <- sres t (F32.round (float_of_int ir.(a)))
      | Fcvt_i2f (E (e, m), d, a) ->
          fr.(d) <- sres t (Formats.round (fmt_of e m) (float_of_int ir.(a)))
      | Fcvt_f2i (D, d, a) -> ir.(d) <- int_of_float (opd t addr fr.(a))
      | Fcvt_f2i (S, d, a) -> ir.(d) <- int_of_float (ops t addr fr.(a))
      | Fcvt_f2i (E (e, m), d, a) -> ir.(d) <- int_of_float (ope t (fmt_of e m) addr fr.(a))
      | Ibin (o, d, a, b) -> ir.(d) <- ibin addr o ir.(a) ir.(b)
      | Icmp (c, d, a, b) -> ir.(d) <- icmp c ir.(a) ir.(b)
      | Iconst (d, x) -> ir.(d) <- x
      | Imov (d, a) -> ir.(d) <- ir.(a)
      | Iload (d, m) -> ir.(d) <- iheap.(eaddr addr m ni)
      | Istore (m, a) -> iheap.(eaddr addr m ni) <- ir.(a)
      | Call { callee; fargs; iargs; frets; irets } ->
          let g = prog.funcs.(callee) in
          let fa = Array.map (fun r -> fr.(r)) fargs in
          let ia = Array.map (fun r -> ir.(r)) iargs in
          let rf, ri = exec_func g fa ia in
          t.cur_fregs <- fr;
          t.cur_iregs <- ir;
          Array.iteri (fun k r -> fr.(r) <- rf.(k)) frets;
          Array.iteri (fun k r -> ir.(r) <- ri.(k)) irets
      | Ftestflag (d, a) -> ir.(d) <- if is_replaced fr.(a) then 1 else 0
      | Fdowncast (d, a) -> fr.(d) <- Replaced.downcast fr.(a)
      | Fupcast (d, a) ->
          let v = fr.(a) in
          if not (is_replaced v) then trap addr "upcast of an unreplaced value"
          else fr.(d) <- extract32 v
      | Fexpo (d, a) ->
          ir.(d) <-
            Int64.to_int
              (Int64.logand (Int64.shift_right_logical (Int64.bits_of_float fr.(a)) 52) 0x7FFL)
    in
    let rec run_block bidx =
      let b = f.blocks.(bidx) in
      bcounts.(b.label) <- bcounts.(b.label) + 1;
      let n = Array.length b.instrs in
      t.steps <- t.steps + n + 1;
      if t.steps > t.max_steps then raise (Limit t.max_steps);
      for k = 0 to n - 1 do
        step (Array.unsafe_get b.instrs k)
      done;
      match b.term with
      | Jmp tgt -> run_block tgt
      | Br (r, th, el) -> if ir.(r) <> 0 then run_block th else run_block el
      | Ret -> ()
    in
    run_block f.entry;
    (Array.map (fun r -> fr.(r)) f.ret_fregs, Array.map (fun r -> ir.(r)) f.ret_iregs)
  in
  let main = prog.funcs.(prog.main) in
  let (_ : float array * int array) =
    exec_func main (Array.make main.n_fargs 0.0) (Array.make main.n_iargs 0)
  in
  ()

let get_f t slot = t.fheap.(slot)
let get_f_value t slot = Replaced.coerce t.fheap.(slot)
let set_f t slot v = t.fheap.(slot) <- v
let get_i t slot = t.iheap.(slot)
let write_f t base a = Array.blit a 0 t.fheap base (Array.length a)
let write_i t base a = Array.blit a 0 t.iheap base (Array.length a)
let read_f t base n = Array.init n (fun k -> get_f_value t (base + k))

let fp_ops_executed t =
  Array.fold_left (fun acc addr -> acc + t.counts.(addr)) 0 t.cand_addrs
