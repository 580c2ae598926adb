type fv = int
type iv = int
type fn = int

type pre_block = {
  label : int;
  index : int;
  mutable rev_instrs : Ir.op list;
  mutable term : Ir.terminator option;
}

type pre_func = {
  p_fid : int;
  p_name : string;
  p_module : string;
  p_nf_args : int;
  p_ni_args : int;
  mutable p_ret_fregs : int array;
  mutable p_ret_iregs : int array;
  mutable p_rets_fixed : bool;
  mutable p_n_fregs : int;
  mutable p_n_iregs : int;
  mutable p_blocks_rev : pre_block list;
  mutable p_n_blocks : int;
}

type t = {
  mutable funcs_rev : pre_func list;
  mutable n_funcs : int;
  mutable fheap : int;
  mutable iheap : int;
  mutable next_label : int;
  mutable modules_rev : string list;
}

type fb = { prog : t; pf : pre_func; mutable cur : pre_block }

let create () =
  { funcs_rev = []; n_funcs = 0; fheap = 0; iheap = 0; next_label = 1; modules_rev = [] }

let alloc_f t n =
  let base = t.fheap in
  t.fheap <- t.fheap + n;
  base

let alloc_i t n =
  let base = t.iheap in
  t.iheap <- t.iheap + n;
  base

let new_block (b : fb) =
  let pf = b.pf in
  let blk =
    { label = b.prog.next_label; index = pf.p_n_blocks; rev_instrs = []; term = None }
  in
  b.prog.next_label <- b.prog.next_label + 1;
  pf.p_n_blocks <- pf.p_n_blocks + 1;
  pf.p_blocks_rev <- blk :: pf.p_blocks_rev;
  blk

let emit (b : fb) op = b.cur.rev_instrs <- op :: b.cur.rev_instrs

let terminate (b : fb) term =
  match b.cur.term with None -> b.cur.term <- Some term | Some _ -> ()

let freshf (b : fb) =
  let r = b.pf.p_n_fregs in
  b.pf.p_n_fregs <- r + 1;
  r

let freshi (b : fb) =
  let r = b.pf.p_n_iregs in
  b.pf.p_n_iregs <- r + 1;
  r

let setf b dst src = emit b (Ir.Fmov (dst, src))
let seti b dst src = emit b (Ir.Imov (dst, src))

let fconst b x =
  let d = freshf b in
  emit b (Ir.Fconst (D, d, x));
  d

let iconst b x =
  let d = freshi b in
  emit b (Ir.Iconst (d, x));
  d

let fbin op b x y =
  let d = freshf b in
  emit b (Ir.Fbin (D, op, d, x, y));
  d

let fadd b = fbin Ir.Add b
let fsub b = fbin Ir.Sub b
let fmul b = fbin Ir.Mul b
let fdiv b = fbin Ir.Div b
let fmin b = fbin Ir.Min b
let fmax b = fbin Ir.Max b

let funop op b x =
  let d = freshf b in
  emit b (Ir.Funop (D, op, d, x));
  d

let fsqrt b = funop Ir.Sqrt b
let fneg b = funop Ir.Neg b
let fabs b = funop Ir.Abs b

let flibm op b x =
  let d = freshf b in
  emit b (Ir.Flibm (D, op, d, x));
  d

let fsin b = flibm Ir.Sin b
let fcos b = flibm Ir.Cos b
let fexp b = flibm Ir.Exp b
let flog b = flibm Ir.Log b

let fcmp op b x y =
  let d = freshi b in
  emit b (Ir.Fcmp (D, op, d, x, y));
  d

let feq b = fcmp Ir.Eq b
let fne b = fcmp Ir.Ne b
let flt b = fcmp Ir.Lt b
let fle b = fcmp Ir.Le b
let fgt b = fcmp Ir.Gt b
let fge b = fcmp Ir.Ge b

let i2f b x =
  let d = freshf b in
  emit b (Ir.Fcvt_i2f (D, d, x));
  d

let f2i b x =
  let d = freshi b in
  emit b (Ir.Fcvt_f2i (D, d, x));
  d

let ibin op b x y =
  let d = freshi b in
  emit b (Ir.Ibin (op, d, x, y));
  d

let iadd b = ibin Ir.Iadd b
let isub b = ibin Ir.Isub b
let imul b = ibin Ir.Imul b
let idiv b = ibin Ir.Idiv b
let irem b = ibin Ir.Irem b
let iand b = ibin Ir.Iand b
let ixor b = ibin Ir.Ixor b
let ishl b = ibin Ir.Ishl b

let iaddc b x c = iadd b x (iconst b c)
let imulc b x c = imul b x (iconst b c)

let icmp op b x y =
  let d = freshi b in
  emit b (Ir.Icmp (op, d, x, y));
  d

let ieq b = icmp Ir.Eq b
let ilt b = icmp Ir.Lt b
let ile b = icmp Ir.Le b
let igt b = icmp Ir.Gt b
let ige b = icmp Ir.Ge b

type addr = Ir.mem

let at slot : addr = { base = None; index = None; scale = 1; offset = slot }
let idx base i : addr = { base = None; index = Some i; scale = 1; offset = base }
let idx_scaled base i s : addr = { base = None; index = Some i; scale = s; offset = base }
let dyn p : addr = { base = Some p; index = None; scale = 1; offset = 0 }
let dyn_idx p i : addr = { base = Some p; index = Some i; scale = 1; offset = 0 }
let dyn_off p k : addr = { base = Some p; index = None; scale = 1; offset = k }

let loadf b a =
  let d = freshf b in
  emit b (Ir.Fload (d, a));
  d

let storef b a v = emit b (Ir.Fstore (a, v))

let loadi b a =
  let d = freshi b in
  emit b (Ir.Iload (d, a));
  d

let storei b a v = emit b (Ir.Istore (a, v))

let if_ b cond then_gen else_gen =
  let then_blk = new_block b in
  let else_blk = new_block b in
  let join_blk = new_block b in
  terminate b (Ir.Br (cond, then_blk.index, else_blk.index));
  b.cur <- then_blk;
  then_gen ();
  terminate b (Ir.Jmp join_blk.index);
  b.cur <- else_blk;
  else_gen ();
  terminate b (Ir.Jmp join_blk.index);
  b.cur <- join_blk

let when_ b cond then_gen = if_ b cond then_gen (fun () -> ())

let while_ b cond_gen body_gen =
  let cond_blk = new_block b in
  terminate b (Ir.Jmp cond_blk.index);
  b.cur <- cond_blk;
  let c = cond_gen () in
  let body_blk = new_block b in
  let exit_blk = new_block b in
  terminate b (Ir.Br (c, body_blk.index, exit_blk.index));
  b.cur <- body_blk;
  body_gen ();
  terminate b (Ir.Jmp cond_blk.index);
  b.cur <- exit_blk

let for_ b lo hi body =
  let i = freshi b in
  seti b i lo;
  while_ b
    (fun () -> ilt b i hi)
    (fun () ->
      body i;
      let one = iconst b 1 in
      emit b (Ir.Ibin (Iadd, i, i, one)))

let for_range b lo hi body = for_ b (iconst b lo) (iconst b hi) body

let for_down b hi lo body =
  let i = freshi b in
  seti b i hi;
  (* i starts at hi and is pre-decremented, so the body sees hi-1 .. lo. *)
  while_ b
    (fun () -> igt b i lo)
    (fun () ->
      let one = iconst b 1 in
      emit b (Ir.Ibin (Isub, i, i, one));
      body i)

let find_pf (t : t) fid = List.find (fun pf -> pf.p_fid = fid) t.funcs_rev

let call b callee ~fargs ~iargs =
  let pf = find_pf b.prog callee in
  if List.length fargs <> pf.p_nf_args || List.length iargs <> pf.p_ni_args then
    invalid_arg
      (Printf.sprintf "Builder.call %s: arity mismatch (%d,%d args given, (%d,%d) expected)"
         pf.p_name (List.length fargs) (List.length iargs) pf.p_nf_args pf.p_ni_args);
  let frets = Array.init (Array.length pf.p_ret_fregs) (fun _ -> freshf b) in
  let irets = Array.init (Array.length pf.p_ret_iregs) (fun _ -> freshi b) in
  emit b
    (Ir.Call
       {
         callee;
         fargs = Array.of_list fargs;
         iargs = Array.of_list iargs;
         frets;
         irets;
       });
  (frets, irets)

let ret b ?(f = []) ?(i = []) () =
  let pf = b.pf in
  if not pf.p_rets_fixed then begin
    pf.p_ret_fregs <- Array.of_list (List.map (fun _ -> freshf b) f);
    pf.p_ret_iregs <- Array.of_list (List.map (fun _ -> freshi b) i);
    pf.p_rets_fixed <- true
  end;
  if List.length f <> Array.length pf.p_ret_fregs || List.length i <> Array.length pf.p_ret_iregs
  then invalid_arg (Printf.sprintf "Builder.ret %s: inconsistent return arity" pf.p_name);
  List.iteri (fun k v -> setf b pf.p_ret_fregs.(k) v) f;
  List.iteri (fun k v -> seti b pf.p_ret_iregs.(k) v) i;
  terminate b Ir.Ret;
  (* Anything emitted after a ret lands in a fresh unreachable block. *)
  let dead = new_block b in
  b.cur <- dead

let func t ~module_ name ~nf_args ~ni_args body =
  if not (List.exists (String.equal module_) t.modules_rev) then
    t.modules_rev <- module_ :: t.modules_rev;
  let pf =
    {
      p_fid = t.n_funcs;
      p_name = name;
      p_module = module_;
      p_nf_args = nf_args;
      p_ni_args = ni_args;
      p_ret_fregs = [||];
      p_ret_iregs = [||];
      p_rets_fixed = false;
      p_n_fregs = nf_args;
      p_n_iregs = ni_args;
      p_blocks_rev = [];
      p_n_blocks = 0;
    }
  in
  t.funcs_rev <- pf :: t.funcs_rev;
  t.n_funcs <- t.n_funcs + 1;
  let b = { prog = t; pf; cur = { label = 0; index = -1; rev_instrs = []; term = None } } in
  let entry = new_block b in
  b.cur <- entry;
  let fargs = Array.init nf_args (fun k -> k) in
  let iargs = Array.init ni_args (fun k -> k) in
  body b fargs iargs;
  terminate b Ir.Ret;
  if not pf.p_rets_fixed then pf.p_rets_fixed <- true;
  pf.p_fid

let program t ~main =
  let next_addr = ref 0 in
  let finalize_func (pf : pre_func) : Ir.func =
    let blocks =
      List.rev pf.p_blocks_rev
      |> List.map (fun blk ->
             let instrs =
               List.rev blk.rev_instrs
               |> List.map (fun op ->
                      let addr = !next_addr in
                      incr next_addr;
                      ({ addr; op } : Ir.instr))
               |> Array.of_list
             in
             let term = match blk.term with Some tm -> tm | None -> Ir.Ret in
             ({ label = blk.label; instrs; term } : Ir.block))
      |> Array.of_list
    in
    {
      Ir.fid = pf.p_fid;
      fname = pf.p_name;
      module_name = pf.p_module;
      n_fargs = pf.p_nf_args;
      n_iargs = pf.p_ni_args;
      ret_fregs = pf.p_ret_fregs;
      ret_iregs = pf.p_ret_iregs;
      n_fregs = max pf.p_n_fregs 1;
      n_iregs = max pf.p_n_iregs 1;
      entry = 0;
      blocks;
    }
  in
  let funcs = List.rev t.funcs_rev |> List.map finalize_func |> Array.of_list in
  let prog =
    {
      Ir.funcs;
      main;
      fheap_size = max t.fheap 1;
      iheap_size = max t.iheap 1;
      modules = Array.of_list (List.rev t.modules_rev);
    }
  in
  Ir.validate_exn prog

type fpair = int

let freshf2 b =
  let r0 = freshf b in
  let r1 = freshf b in
  assert (r1 = r0 + 1);
  r0

let fpair b x y =
  let p = freshf2 b in
  emit b (Ir.Fmov (p, x));
  emit b (Ir.Fmov (p + 1, y));
  p

let flane b p lane =
  let d = freshf b in
  emit b (Ir.Fmov (d, p + lane));
  d

let loadfp b (a : addr) =
  let p = freshf2 b in
  emit b (Ir.Fload (p, a));
  emit b (Ir.Fload (p + 1, { a with offset = a.offset + 1 }));
  p

let storefp b (a : addr) p =
  emit b (Ir.Fstore (a, p));
  emit b (Ir.Fstore ({ a with offset = a.offset + 1 }, p + 1))

let fbinp op b x y =
  let d = freshf2 b in
  emit b (Ir.Fbinp (D, op, d, x, y));
  d

let faddp b = fbinp Ir.Add b
let fmulp b = fbinp Ir.Mul b
