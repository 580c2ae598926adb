(** Common shape of the benchmark programs under analysis.

    Each benchmark is an IR program ("the binary") plus the pieces the
    analysis system of paper Fig. 2 needs: a representative data set
    ([setup] pokes it into a fresh VM), an output extractor, and a
    verification routine. NAS-style benchmarks come in geometrically scaled
    classes W/A/C (miniatures of the NAS classes, sized for VM execution —
    see DESIGN.md). *)

type class_ = W | A | C

val class_name : class_ -> string

type t = {
  name : string;  (** e.g. ["cg.A"] *)
  program : Ir.program;
  setup : Vm.t -> unit;
  output : Vm.t -> float array;
  verify : float array -> bool;
  reference : float array;  (** host-language double-precision reference *)
  hints : Config.t;
      (** user-provided base flags ([Ignore] on RNG routines, paper §2.1) *)
  comm_bytes : ranks:int -> Mpi_model.net -> float;
      (** modeled communication cycles per run at a rank count (Fig. 8);
          0 for single-node benchmarks *)
}

val run_native : t -> float array * Vm.t
(** Original binary, no instrumentation. *)

val run_patched : ?config:Config.t -> t -> float array * Vm.t
(** Instrumented binary under a configuration (default: the benchmark's
    hints only, i.e. the all-double base case of the overhead
    experiments). Runs checked. *)

val run_converted : t -> float array * Vm.t
(** The manually-converted all-single binary (plain single semantics). *)

val target : ?eval_steps:int -> ?faults:Faults.t -> ?cache:Compile.cache -> t -> Bfs.Target.t
(** Search target with the benchmark's verification routine. [eval_steps],
    [faults] and [cache] are passed through to {!Bfs.Target.make}
    (per-evaluation step budget, deterministic fault injection, and the
    compiled-block cache — by default one per target; an explicit [cache]
    shares compiled blocks across campaigns, as the campaign server
    does). *)

val check_reference : t -> bool
(** Native run matches the host reference bit-for-bit. *)
