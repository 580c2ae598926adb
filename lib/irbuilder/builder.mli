(** A mini-compiler for authoring IR programs ("binaries").

    The benchmark kernels are written against this imperative eDSL: virtual
    registers are handed out on demand, structured control flow ([if_],
    [while_], [for_]) is lowered to basic blocks with explicit terminators,
    and static heap regions are allocated at build time. [program] assigns
    instruction addresses and block labels and validates the result.

    All floating-point instructions are emitted as double precision ([D]
    opcodes) — exactly like the original binaries the paper starts from;
    single-precision variants only ever appear via the patcher. *)

type t
(** Program under construction. *)

type fb
(** Function under construction. *)

type fv
(** A float virtual register. *)

type iv
(** An integer virtual register. *)

type fn
(** Handle of a built function, usable as a call target. *)

val create : unit -> t

(** {1 Static heap allocation} *)

val alloc_f : t -> int -> int
(** [alloc_f t n] reserves [n] slots in the float heap, returning the base
    slot index. *)

val alloc_i : t -> int -> int

(** {1 Functions} *)

val func :
  t ->
  module_:string ->
  string ->
  nf_args:int ->
  ni_args:int ->
  (fb -> fv array -> iv array -> unit) ->
  fn
(** [func t ~module_ name ~nf_args ~ni_args body] defines a function. [body]
    receives the argument registers. If generation ends without an explicit
    {!ret}, a bare [ret] (no return values) is appended. The numbers of
    float/int return values are inferred from the first {!ret} executed
    during generation; every [ret] in one function must agree. *)

val program : t -> main:fn -> Ir.program
(** Finalize: assign addresses/labels, validate, and return the program. *)

(** {1 Emission — inside a function body} *)

val freshf : fb -> fv
(** A fresh, uninitialized float register (a mutable local variable). *)

val freshi : fb -> iv

val setf : fb -> fv -> fv -> unit
(** [setf b dst src] emits a register move. *)

val seti : fb -> iv -> iv -> unit

val fconst : fb -> float -> fv
val iconst : fb -> int -> iv

val fadd : fb -> fv -> fv -> fv
val fsub : fb -> fv -> fv -> fv
val fmul : fb -> fv -> fv -> fv
val fdiv : fb -> fv -> fv -> fv
val fmin : fb -> fv -> fv -> fv
val fmax : fb -> fv -> fv -> fv
val fsqrt : fb -> fv -> fv
val fneg : fb -> fv -> fv
val fabs : fb -> fv -> fv
val fsin : fb -> fv -> fv
val fcos : fb -> fv -> fv
val fexp : fb -> fv -> fv
val flog : fb -> fv -> fv

val feq : fb -> fv -> fv -> iv
val fne : fb -> fv -> fv -> iv
val flt : fb -> fv -> fv -> iv
val fle : fb -> fv -> fv -> iv
val fgt : fb -> fv -> fv -> iv
val fge : fb -> fv -> fv -> iv

val i2f : fb -> iv -> fv
val f2i : fb -> fv -> iv

val iadd : fb -> iv -> iv -> iv
val isub : fb -> iv -> iv -> iv
val imul : fb -> iv -> iv -> iv
val idiv : fb -> iv -> iv -> iv
val irem : fb -> iv -> iv -> iv
val iand : fb -> iv -> iv -> iv
val ixor : fb -> iv -> iv -> iv
val ishl : fb -> iv -> iv -> iv

val iaddc : fb -> iv -> int -> iv
(** [iaddc b x c] adds an immediate (emits the constant load + add). *)

val imulc : fb -> iv -> int -> iv

val ieq : fb -> iv -> iv -> iv
val ilt : fb -> iv -> iv -> iv
val ile : fb -> iv -> iv -> iv
val igt : fb -> iv -> iv -> iv
val ige : fb -> iv -> iv -> iv

(** {1 Memory}

    Addresses are in heap-slot units. [base] is a static slot index; the
    optional register index is scaled and added. *)

type addr

val at : int -> addr
(** Static slot. *)

val idx : int -> iv -> addr
(** [idx base i] is slot [base + i]. *)

val idx_scaled : int -> iv -> int -> addr
(** [idx_scaled base i s] is slot [base + i*s]. *)

val dyn : iv -> addr
(** Slot held in a register (pointer). *)

val dyn_idx : iv -> iv -> addr
(** [dyn_idx p i] is slot [reg(p) + reg(i)]. *)

val dyn_off : iv -> int -> addr
(** [dyn_off p k] is slot [reg(p) + k]. *)

val loadf : fb -> addr -> fv
val storef : fb -> addr -> fv -> unit
val loadi : fb -> addr -> iv
val storei : fb -> addr -> iv -> unit

(** {1 Control flow} *)

val if_ : fb -> iv -> (unit -> unit) -> (unit -> unit) -> unit
val when_ : fb -> iv -> (unit -> unit) -> unit

val while_ : fb -> (unit -> iv) -> (unit -> unit) -> unit
(** [while_ b cond body]: [cond] is re-emitted once and re-evaluated each
    iteration (a genuine loop in the IR, not unrolling). *)

val for_ : fb -> iv -> iv -> (iv -> unit) -> unit
(** [for_ b lo hi body] iterates [lo <= i < hi]. *)

val for_range : fb -> int -> int -> (iv -> unit) -> unit
(** [for_range b lo hi body] with constant bounds. *)

val for_down : fb -> iv -> iv -> (iv -> unit) -> unit
(** [for_down b hi lo body] iterates [i = hi-1 downto lo]. *)

val call : fb -> fn -> fargs:fv list -> iargs:iv list -> fv array * iv array
val ret : fb -> ?f:fv list -> ?i:iv list -> unit -> unit

(** {1 Packed (two-lane SIMD) values}

    Pairs live in adjacent registers, like doubles packed in an XMM
    register. Packed arithmetic lowers to the IR's [Fbinp] (addpd/addps
    after patching), which the cost model prices as a single operation —
    the SIMD advantage the paper's introduction describes. *)

type fpair

val fpair : fb -> fv -> fv -> fpair
(** Pack two scalars (lane 0, lane 1) into a fresh adjacent pair. *)

val flane : fb -> fpair -> int -> fv
(** Extract lane 0 or 1 into a fresh scalar register. *)

val loadfp : fb -> addr -> fpair
(** Load lanes from two consecutive heap slots. *)

val storefp : fb -> addr -> fpair -> unit

val faddp : fb -> fpair -> fpair -> fpair
val fmulp : fb -> fpair -> fpair -> fpair
