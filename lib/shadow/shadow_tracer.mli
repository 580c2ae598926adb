(** Shadow-value precision tracer (the profiling half of [lib/shadow]).

    One native (all-double) run, instrumented through {!Vm.add_hook},
    carries a complete parallel state: every float register of every live
    call frame and every float-heap slot has a {e shadow} computed through
    the same operations but in the precision a candidate configuration
    assigns to each instruction — by default, binary32 everywhere. The
    divergence between shadow and actual value, accumulated per
    instruction, prices how sensitive each candidate is to single
    precision {e without} running a patched binary per candidate.

    The shadow follows the native control flow (branches, effective
    addresses and trip counts come from the actual execution). Where
    single-precision execution would have taken a different path — a
    comparison or float→int conversion whose shadow outcome differs — a
    {e flip} is counted instead; predictions downstream of a flip are
    unreliable and {!Shadow_report} treats flips as disqualifying.

    Call frames are tracked by the physical identity of the VM's register
    arrays ({!Vm.t.cur_fregs}): no interpreter cooperation, and the
    fault-injection hook of {!Faults} composes with the tracer through the
    ordered hook list. *)

type insn_stats = {
  mutable execs : int;  (** value observations (packed ops count per lane) *)
  mutable sum_rel : float;  (** sum of per-observation relative divergence *)
  mutable max_rel : float;  (** worst observed relative divergence *)
  mutable max_local : float;
      (** worst {e locally introduced} rounding error: the instruction's
          configured-precision result against the infinitely-better
          (double) result {e on the same shadow operands}. Exactly 0 for
          instructions configured [Double] — the soundness property the
          test suite pins. *)
  mutable max_mag : float;  (** largest operand magnitude seen *)
  mutable cancels : int;  (** additions/subtractions that cancelled ≥10 bits *)
  mutable cancel_blowups : int;
      (** cancellations whose result divergence far exceeded the divergence
          the operands brought in — error amplification events *)
  mutable flips : int;  (** control-relevant outcome differences (Fcmp, Fcvt_f2i) *)
}

type t

val all_single : ?base:Config.t -> Ir.program -> Config.t
(** The default shadow configuration: every candidate single, except
    candidates whose effective flag under [base] is [Ignore] (hint sets
    mark those as must-stay-exact; their shadow computes in double). *)

val all_format : ?base:Config.t -> Formats.t -> Ir.program -> Config.t
(** Like {!all_single} but every non-[Ignore] candidate carries [fmt] —
    the lowest-format shadow used by lattice-aware analyses. [fmt] equal
    to {!Formats.single} reproduces {!all_single} exactly. *)

val create : ?config:Config.t -> ?fmt:Formats.t -> Ir.program -> t
(** Fresh tracer. [config] assigns each candidate the precision its shadow
    computes in (default {!all_single}); [Double]-flagged instructions
    propagate shadows exactly and accumulate zero divergence. [fmt] is a
    shorthand for [~config:(all_format fmt prog)] — it is an error to pass
    both. *)

val attach : t -> Vm.t -> int
(** Install the tracer on a VM (resets any previous trace state); returns
    the hook id ({!Vm.remove_hook}). The shadow heap is initialized from
    the VM's float heap at the first executed instruction, so call it any
    time before [Vm.run] — including before heap setup. *)

val trace : ?checked:bool -> ?smode:Vm.smode -> t -> setup:(Vm.t -> unit) -> Vm.t
(** Convenience: create a VM, run [setup], attach, run to completion, and
    return the finished VM. *)

val stats : t -> insn_stats array
(** Per-instruction accumulators, indexed by instruction address. *)

val shadow_heap : t -> float array
(** The shadow float heap after (or during) a trace — what the program's
    outputs would have been had every [Single]-configured instruction
    computed in binary32. The differential soundness test checks this
    against an actual {!To_single} converted run. *)

val observations : t -> int
(** Total shadow value observations across all instructions. *)

