(** The execution engine.

    Runs IR programs with the precise bit-level semantics the analysis
    relies on: float registers and the float heap hold raw 64-bit patterns,
    [S]-precision opcodes operate on replaced-encoded operands (extract low
    32 bits, compute in emulated binary32, re-encode with the 0x7FF4DEAD
    flag), and [D]-precision opcodes operate on plain doubles.

    In [checked] mode the VM enforces the instrumentation invariant the
    paper gets "for free" from NaN poisoning: a [D] operation consuming a
    replaced value — or an [S] operation consuming an unreplaced one —
    raises {!Trap} (the analogue of the instrumented binary crashing when
    the analysis missed an instruction).

    Execution counts are recorded per instruction address and per block
    label; {!Cost} turns them into modeled cycles and memory traffic. *)

exception Trap of int * string
(** [(address, reason)]: instrumentation-invariant violation, out-of-bounds
    heap access, or division by zero. *)

exception Limit of int
(** Raised when the step budget is exhausted (argument: the budget). *)

exception Deadline of float
(** Raised by a supervisor's {!with_watchdog} callback when an evaluation
    exceeds its wall-clock deadline (argument: the deadline in seconds).
    Classified as a timeout by {!Harness.classify}. *)

type smode =
  | Flagged  (** instrumented binaries: [S] ops read/write replaced encodings *)
  | Plain
      (** manually-converted single binaries: [S] ops read/write plain
          binary32-exact doubles, no flags anywhere *)

type t = {
  prog : Ir.program;
  fheap : float array;
  iheap : int array;
  counts : int array;  (** executions per instruction address *)
  bcounts : int array;  (** executions per block label *)
  cand_addrs : int array;
      (** addresses of candidate FP instructions, indexed once at creation
          so {!fp_ops_executed} is O(candidates) per call instead of
          rescanning the program *)
  checked : bool;
  smode : smode;
  max_steps : int;
  mutable steps : int;
  mutable ran : bool;  (** set by {!run}; a state executes at most once *)
  mutable hooks : (int * (t -> int -> unit)) list;
      (** observation/fault-injection hooks with their registration ids,
          kept in installation order; manage through {!add_hook} and
          {!remove_hook} rather than mutating directly *)
  mutable next_hook_id : int;
  mutable cur_fregs : float array;
      (** float registers of the frame currently executing — valid inside a
          hook; each call frame allocates fresh arrays, so physical identity
          ([==]) identifies the frame across hook invocations *)
  mutable cur_iregs : int array;  (** integer registers of the same frame *)
}

val add_hook : t -> (t -> int -> unit) -> int
(** Install an observation/fault-injection hook; returns a registration id
    for {!remove_hook}. Hooks are called with the state and the instruction
    address before every executed instruction, in installation order (the
    fault injector armed before an observation tracer fires first, so the
    tracer sees the faulted state the program actually executes); a hook may
    raise (e.g. {!Trap}) or mutate the state ({!Faults} uses both).
    Installing multiple hooks composes — the shadow tracer and the fault
    injector stack instead of evicting each other. *)

val remove_hook : t -> int -> unit
(** Uninstall the hook registered under this id (no-op if absent). Safe to
    call from inside the hook itself during execution. *)

val create : ?checked:bool -> ?smode:smode -> ?max_steps:int -> Ir.program -> t
(** Fresh state with zeroed heaps and counters. [checked] defaults to
    [false] (native runs); patched programs should run with
    [checked:true]. [smode] defaults to [Flagged]. [max_steps] defaults to
    2e9. *)

val run : t -> unit
(** Execute from [main]. The state's counters and heaps reflect the run
    afterwards; [run] can be called once per state — a second call raises
    [Invalid_argument] instead of silently accumulating counts into the
    previous run's state. *)

val with_watchdog : (t -> int -> unit) -> (unit -> 'a) -> 'a
(** [with_watchdog w f] runs [f] with [w] installed as the calling domain's
    watchdog: every VM executing on this domain during [f] calls
    [w vm addr] once per instruction, at the same observation point as
    [hook] but without needing access to the VM value (supervised VMs are
    created deep inside evaluation closures). The watchdog is the
    supervision channel of {!Pool}: it publishes heartbeats and raises
    {!Deadline} when the monitor flags the task as over-deadline. Nests and
    restores the previous watchdog on exit (even by exception). *)

val installed_watchdog : unit -> (t -> int -> unit) option
(** The calling domain's current watchdog, if a supervisor installed one
    with {!with_watchdog}. Alternative execution engines ({!Compile.run})
    fetch it once per run and drive it themselves, exactly as {!run}
    does. *)

val get_f : t -> int -> float
(** Raw pattern at a float-heap slot (may be a replaced encoding). *)

val get_f_value : t -> int -> float
(** Value at a float-heap slot, coerced: replaced encodings are decoded to
    their single-precision value. This is how verification routines read
    program outputs. *)

val set_f : t -> int -> float -> unit
val get_i : t -> int -> int

val write_f : t -> int -> float array -> unit
(** Bulk-poke doubles into the float heap starting at a slot. *)

val write_i : t -> int -> int array -> unit

val read_f : t -> int -> int -> float array
(** [read_f t base n] reads [n] coerced values starting at [base]. *)

val fp_ops_executed : t -> int
(** Total executions of candidate FP instructions (denominator of the
    paper's "dynamic instructions replaced" percentage). *)
