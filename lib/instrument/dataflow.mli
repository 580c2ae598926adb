(** Static data-flow analysis of replaced-value reachability (the paper's
    §2.5, third future optimization: "static data flow analysis could
    improve overheads by detecting instructions that never encounter
    replaced double-precision numbers under a given configuration, and thus
    would not need to be replaced with a double-precision snippet").

    For a program and a configuration, the analysis computes, at each
    instruction, whether each float register {e may} hold a replaced value
    and whether it {e may} hold a plain double:

    - a [Double]-kept instruction needs an operand check only if the
      operand may be replaced; if it is definitely replaced the check
      collapses to an unconditional upcast;
    - a [Single] instruction needs a check only if the operand may be
      plain; if it is definitely plain the check collapses to an
      unconditional downcast.

    The analysis is a forward fix-point over each function's CFG, made
    interprocedural with per-function summaries (argument states join over
    call sites; return states flow back — register frames are private, so
    calls affect only the explicitly passed registers). The float heap is
    modeled as a single summary cell (any store taints it with the stored
    state), which is sound and precise enough to remove most checks in
    practice. In-place operand conversion is modeled: after a patched
    single instruction its operands are definitely replaced; after a
    patched double instruction they are definitely plain. *)

type state =
  | Bot  (** unreachable / uninitialized *)
  | Plain  (** definitely an ordinary double *)
  | Repl  (** definitely a replaced encoding *)
  | Either

type t

val analyze : Ir.program -> Config.t -> t
(** Fix-point analysis of the program as it will behave {e after} patching
    with the given configuration. *)

val operand_state : t -> addr:int -> reg:int -> state
(** State of float register [reg] immediately before the candidate
    instruction at [addr] executes. Registers never queried at [addr]
    report [Either] (conservative). *)

val checks_removable : t -> Ir.program -> Config.t -> int * int
(** [(removable, total)] operand checks under the configuration: a check is
    removable when the operand state is definite ([Plain] for a single
    target's downcast-skip is {e not} removable — definite [Plain] means
    the conversion is unconditional, which still saves the test+branch).
    [removable] counts operands whose test+branch disappears entirely
    (definitely-converted or definitely-not), [total] counts all checked
    operands. *)
