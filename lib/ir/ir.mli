(** The program representation the analysis operates on.

    The paper instruments x86-64 binaries; here the "binary" is an explicit
    register-machine IR with the same structure the analysis needs: programs
    contain modules, modules contain functions, functions contain basic
    blocks, blocks contain addressed instructions. Floating-point opcodes
    come in double ([D]) and single ([S]) variants so that the patcher's
    "opcode rewriting" (addsd -> addss) is a real transformation, plus
    emulated reduced formats [E (ebits, mbits)] (half, bfloat16, customs)
    whose operands travel exactly like [S] but whose results are rounded
    through the (ebits, mbits) grid.

    Register files are per-function (virtual registers [f0..], [i0..]);
    values in float registers and in the float heap are raw 64-bit patterns,
    so the replaced encoding of {!Craft_fpbits.Replaced} travels through
    loads, stores and moves untouched, exactly as on real hardware. *)

type prec = D | S | E of int * int

type fbinop = Add | Sub | Mul | Div | Min | Max
type funop = Sqrt | Neg | Abs
type flibm = Sin | Cos | Tan | Exp | Log | Atan
type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type ibinop =
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Irem
  | Iand
  | Ior
  | Ixor
  | Ishl
  | Ishr
  | Imax
  | Imin

type mem = { base : int option; index : int option; scale : int; offset : int }
(** Effective address: [offset + reg(base) + reg(index) * scale], in units of
    heap slots (8-byte doubles for the float heap, words for the int heap). *)

type call = {
  callee : int;
  fargs : int array;  (** caller float regs copied to callee f0.. *)
  iargs : int array;
  frets : int array;  (** caller float regs receiving callee returns *)
  irets : int array;
}

type op =
  | Fbin of prec * fbinop * int * int * int  (** dst, a, b *)
  | Fbinp of prec * fbinop * int * int * int
      (** packed (two-lane) arithmetic on adjacent register pairs: lanes
          [(dst, dst+1) <- (a, a+1) op (b, b+1)] — the 128-bit XMM packed
          operations the paper's replacement also covers (addpd → addps;
          the snippet template's "fix flags in any packed outputs") *)
  | Funop of prec * funop * int * int  (** dst, a *)
  | Flibm of prec * flibm * int * int  (** dst, a — libm call *)
  | Fcmp of prec * cmpop * int * int * int  (** int dst, fa, fb *)
  | Fconst of prec * int * float  (** dst, immediate *)
  | Fmov of int * int
  | Fload of int * mem
  | Fstore of mem * int
  | Fcvt_i2f of prec * int * int  (** float dst, int src *)
  | Fcvt_f2i of prec * int * int  (** int dst, float src; truncates *)
  | Ibin of ibinop * int * int * int
  | Icmp of cmpop * int * int * int
  | Iconst of int * int
  | Imov of int * int
  | Iload of int * mem
  | Istore of mem * int
  | Call of call
  | Ftestflag of int * int  (** int dst <- 1 if float src is replaced (snippet op) *)
  | Fdowncast of int * int  (** dst <- replaced(round32 src) (snippet op) *)
  | Fupcast of int * int  (** dst <- widen(extract src) (snippet op) *)
  | Fexpo of int * int
      (** int dst <- biased exponent field of float src (movq+shr+and;
          emitted by analysis instrumentation such as the cancellation
          detector, never by source programs) *)

type terminator =
  | Jmp of int  (** target: block index within the function *)
  | Br of int * int * int  (** int reg, then-index, else-index; taken if reg <> 0 *)
  | Ret

type instr = { addr : int; op : op }

type block = {
  label : int;  (** globally unique, stable under patching *)
  instrs : instr array;
  term : terminator;
}

type func = {
  fid : int;
  fname : string;
  module_name : string;
  n_fargs : int;
  n_iargs : int;
  ret_fregs : int array;  (** registers whose values Ret hands back *)
  ret_iregs : int array;
  n_fregs : int;
  n_iregs : int;
  entry : int;  (** entry block index *)
  blocks : block array;
}

type program = {
  funcs : func array;
  main : int;
  fheap_size : int;
  iheap_size : int;
  modules : string array;  (** distinct module names, in order *)
}

val is_candidate : op -> bool
(** True for the double-precision floating-point instructions the
    configuration space ranges over (the paper's set [Pd]): arithmetic,
    libm calls, comparisons, conversions and float immediates. Pure
    pattern movers ([Fmov]/[Fload]/[Fstore]) carry replaced values
    untouched and are never patched; snippet ops are patcher-internal. *)

val is_snippet_op : op -> bool

val defined_fregs : op -> int list
val used_fregs : op -> int list
val defined_iregs : op -> int list
val used_iregs : op -> int list

val mnemonic : op -> string
(** x86-flavoured mnemonic, e.g. ["addsd"], ["mulss"], ["cvtsi2sd"]. *)

val disasm : op -> string

val pp_program : Format.formatter -> program -> unit
(** objdump-style listing of the whole program. *)

val validate : program -> (unit, string list) result
(** Structural well-formedness: register indices within the declared files,
    branch targets in range, call arities matching callee signatures, unique
    block labels and instruction addresses, entry block in range. *)

val validate_exn : program -> program
(** [validate_exn p] returns [p] or raises [Invalid_argument] listing the
    problems. *)

val find_func : program -> string -> func
(** Lookup by name; raises [Not_found]. *)
