(** Deterministic fault injection for configuration evaluations.

    The real CRAFT tool evaluates thousands of instrumented binaries, any of
    which can crash, hang, or silently produce garbage. This module models
    that hostile world on top of the VM so the resilient harness
    ({!Harness}) can be proven to contain every failure mode, and so demo
    runs ([craft search --inject ...]) can show the search surviving it.

    Injection is fully deterministic: whether an evaluation faults, which
    fault it gets and when it fires are all derived from a {!Util.Rng}
    stream seeded by [(spec seed, configuration key, attempt number)]. The
    same campaign with the same spec replays bit-for-bit; with
    [transient = true], a given configuration faults on its first attempt
    only, so a retrying harness always recovers the true verdict. *)

type mode =
  | Trap  (** raise {!Injected} at the Nth executed instruction *)
  | Hang  (** spin the step counter to the budget, then {!Vm.Limit} *)
  | Bitflip
      (** flip one payload bit of a replaced encoding in the float heap
          mid-run (silent data corruption) *)
  | Corrupt  (** overwrite a float-heap slot after the run completes *)
  | Crash  (** raise a generic exception mid-run (evaluator bug / OOM) *)

type spec = {
  seed : int;
  rate : float;  (** probability that an evaluation is selected for a fault *)
  modes : mode list;  (** faults drawn uniformly from this list *)
  transient : bool;
      (** fault a given configuration on its first attempt only (retries
          see a clean run); [false] makes faults persistent *)
}

val default : spec
(** [seed=1, rate=0.2, modes=\[Trap; Hang\], transient]. *)

val parse : string -> (spec, string) result
(** Parse a CLI spec: comma-separated [seed=N], [rate=F],
    [modes=trap+hang+bitflip+corrupt+crash], [transient], [persistent].
    Omitted fields keep their {!default}. *)

val to_string : spec -> string
(** Inverse of {!parse} (up to field order). *)

type t
(** Injector state: the spec plus per-configuration attempt memory. *)

val create : spec -> t

val injected : t -> int
(** Faults that actually fired so far (a scheduled fault whose trigger
    point lies beyond the end of a short run never fires). *)

val arm : t -> key:string -> Vm.t -> unit
(** Decide deterministically whether the next run of [vm] — the evaluation
    of the configuration identified by [key], at that key's current attempt
    number — faults, and install the corresponding VM hook. Also records
    the decision for {!finish}. Thread-safe. *)

val finish : t -> key:string -> Vm.t -> bool
(** Apply post-run faults ({!Corrupt}) after a completed run, and report
    whether a silent fault — a {!Bitflip} mid-run or that {!Corrupt} —
    hit this run. Call between [Vm.run] and output extraction; skip when
    the run raised. *)

exception Corrupted
(** What an evaluator raises when verification fails on a run {!finish}
    reported as silently corrupted: the failure is the injector's, not the
    configuration's, so it classifies as a crash and a retrying harness
    runs the configuration again, like any other injected fault. *)

exception Injected of string
(** What a {!Trap} fault raises: the injector's trap, not the program's,
    so it classifies as a crash and a retrying harness reruns it. *)
