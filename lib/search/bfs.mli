(** The automatic breadth-first configuration search (paper §2.2).

    The search walks the program structure tree breadth-first, testing
    whether whole modules can be replaced by single precision, descending
    into functions, basic blocks and finally individual instructions when a
    coarser replacement fails the user-provided verification routine.

    Both of the paper's optimizations are implemented and can be toggled
    for ablation:

    - {e binary splitting}: when an aggregate with many children fails, the
      children are first retried as two half-partitions instead of
      individually;
    - {e profiling prioritization}: a native profiling run weights every
      work item by the dynamic execution count of the instructions it
      covers, and the work queue is processed heaviest-first.

    The search is one {!MACHINE} — a wave state machine — run by
    {!drive}, the single campaign driver every search strategy shares
    (the others live in [Strategy]). Configuration evaluations are
    independent full program runs. With [workers > 1] they are dispatched
    in deterministic waves to a supervised {!Pool} of long-lived worker
    domains — either one the caller supplies (carrying a wall-clock
    deadline) or a transient one staffed for this campaign; when a pool
    is present, every evaluation of the campaign goes through it. Every
    evaluation is classified through {!Verdict.classify}: a trap, step
    blowout, out-of-memory or stack overflow is that one item's TRAP /
    TIMEOUT / CRASH verdict in the log, never the campaign's death.

    A killed or stopped campaign resumes one way: it is run again from
    the start while the result store ([Store], opened by [craft search
    --journal] inline and shared by the campaign server) serves every
    verdict it already holds, so the re-walk repeats the interrupted
    campaign's waves without re-evaluating them. *)

exception Aborted
(** The one exception evaluation containment re-raises: raising it from an
    evaluator simulates the campaign being killed (tests, operator
    interrupt). Everything else is classified per-item. Only a sequential
    campaign dies of it: under a pool the escaping exception is a worker
    death, which {!Pool} requeues and then quarantines as [Crashed], and
    the campaign completes. *)

module Target : sig
  type t = {
    program : Ir.program;  (** the original, all-double program *)
    eval : Config.t -> bool;
        (** patch + run + verify one configuration. Must be thread-safe
            (evaluations run on domains) and must treat VM traps as
            failure. Use {!make} unless custom behaviour is needed. *)
    raw_eval : Config.t -> bool;
        (** same evaluation, but failures {e raise} ({!Vm.Trap},
            {!Vm.Limit}, or anything a broken evaluator throws) instead of
            folding into [false]. This is what {!Harness.make} classifies
            into verdicts; [eval] is the legacy contained view of it. *)
    profile : unit -> int array;
        (** address-indexed dynamic execution counts from one native run *)
    code_cache : Compile.cache option;
        (** the compiled-block cache shared by every evaluation of this
            target, when it was built with [backend:Compiled] (the
            default); [None] for pure-interpreter targets. Read its
            hit/miss stats through {!Compile.stats} — {!Harness.wrap_target}
            surfaces them in the harness report. *)
  }

  val make :
    ?eval_steps:int ->
    ?faults:Faults.t ->
    ?backend:Compile.backend ->
    ?cache:Compile.cache ->
    Ir.program ->
    setup:(Vm.t -> unit) ->
    output:(Vm.t -> float array) ->
    verify:(float array -> bool) ->
    t
  (** Standard target: [eval cfg] patches the program with [cfg], runs it
      checked with [setup] applied, reads [output] (coerced) and applies
      [verify]; any VM trap or step-limit blowout counts as verification
      failure. [eval_steps] caps the VM step budget of each evaluation
      (default 2e9) — a configuration that loops or merely exceeds it is a
      step-timeout, not a stuck campaign. [faults] arms the deterministic
      fault injector around every evaluation (never around [profile]).

      [backend] selects the execution engine for plain evaluations
      (default {!Compile.Compiled}, sharing one {!Compile.cache} across
      the whole campaign). [cache] supplies that cache from outside —
      the campaign server hands every concurrent job on the same program
      one cache, so compiled blocks are shared {e across} campaigns, not
      just within one. Evaluations with [faults] armed, and runs where
      [setup] installs a VM hook, always go through the interpreter —
      {!Compile.run}'s own fallback rule — so the backend choice never
      changes observable results. [profile] always interprets (it runs the
      unpatched program once; compiling it buys nothing). *)
end

type granularity = Module_level | Func_level | Block_level | Insn_level

type shadow_opts = {
  report : Shadow_report.t;  (** a finished shadow-value analysis *)
  seed_predicted : bool;
      (** evaluate the predicted configuration first; on pass, its
          structures enter the passing set immediately and only the
          unpredicted remainder of the tree is searched *)
  reorder : bool;
      (** order the frontier by predicted tolerance (most tolerant first)
          instead of raw execution counts *)
  prune_above : float option;
      (** skip — without evaluating — items whose predicted divergence
          exceeds this hard bound. The skip is reported through
          [on_pruned] and the search log, and the item still descends, so
          finer candidates below it are never lost. Items containing
          control-flow flips are never pruned (their prediction is
          unreliable). [None] disables pruning. *)
  on_pruned : Config.t -> float -> unit;
      (** called for every pruned candidate with its configuration and
          predicted divergence (default: nothing; every prune is already
          a [PRUNED] line of the search log and counted in
          [result.pruned]) *)
}

val shadow :
  ?seed_predicted:bool ->
  ?reorder:bool ->
  ?prune_above:float ->
  ?on_pruned:(Config.t -> float -> unit) ->
  Shadow_report.t ->
  shadow_opts
(** Defaults: seed and reorder on, no pruning, no pruning callback. *)

type options = {
  stop_at : granularity;  (** coarsest terminal level of the descent *)
  binary_split : bool;
  prioritize : bool;
  split_threshold : int;  (** partition instead of enumerating when an
                              aggregate has more children than this *)
  workers : int;  (** parallel evaluation domains (1 = sequential) *)
  second_phase : bool;
      (** greedy composition pass when the final union fails (paper §3.1's
          suggested extension) *)
  base : Config.t;
      (** pre-seeded flags (e.g. [Ignore] hints on RNG routines); ignored
          instructions are excluded from the candidate universe *)
  pool : Pool.t option;
      (** evaluate waves on this supervised worker pool (caller keeps
          ownership — the search never shuts it down). [None] with
          [workers > 1] staffs a transient deadline-less pool for the
          campaign. *)
  shadow : shadow_opts option;
      (** shadow-guided mode: seed the passing set with the analysis'
          predicted configuration, reorder the frontier by predicted
          tolerance, and optionally prune hopeless candidates *)
  formats : Formats.t list;
      (** the precision-format menu (lattice). The structural descent runs
          entirely at the {e entry} format — the widest reduced format on
          the menu; with the default [[Formats.single]] the search is
          exactly the pre-lattice BFS, evaluation for evaluation. Cheaper
          formats on the menu are then tried per passing structure
          (cheapest first, first pass wins — see the LATTICE log lines),
          so e.g. [[bf16; f16; single]] can leave a structure at [bf16]
          when the verifier still accepts it there. [Formats.double] on
          the menu is ignored: double means "not replaced". Duplicates
          are removed; order is irrelevant (cost-sorted internally). *)
  stop : unit -> bool;
      (** cooperative stop request, polled at wave boundaries only. When
          it returns [true] the search stops descending, composes the
          union of the structures accepted {e so far} and returns with
          [interrupted = true] — how SIGINT in [craft search] and job
          cancellation in the campaign server end a campaign without
          losing it. Default: never stop. *)
}

val default_options : options
(** Instruction-level descent, both optimizations on, threshold 4, 1
    worker, no second phase, empty base, no pool, no shadow guidance,
    never-firing stop. *)

type result = {
  final : Config.t;  (** union of every individually-passing replacement *)
  final_pass : bool;
  candidates : int;  (** size of the candidate universe *)
  tested : int;  (** configurations evaluated, including the final one(s) *)
  static_replaced : int;  (** candidates effectively single in [final] *)
  static_pct : float;
  dynamic_pct : float;
      (** profile-weighted replaced fraction of {e all} candidate
          executions, including [Ignore]-flagged instructions *)
  passing_nodes : Static.node list;  (** structures that passed as a whole *)
  passing_flags : (Static.node * Config.flag) list;
      (** the same structures with the precision flag each one ended the
          lattice descent at; always [entry]-format flags when the menu
          has a single reduced format *)
  bits_saved : int;
      (** {!Config.bits_saved} of [final]: total mantissa+exponent bits
          shaved off across every statically replaced candidate — the
          poster's headline metric, strictly larger when narrow formats
          survive verification *)
  log : string list;  (** chronological search narration *)
  supervisor : Pool.stats option;
      (** pool supervision tallies, when a pool evaluated the waves *)
  pruned : int;
      (** candidates skipped by shadow pruning (each one logged and
          reported through [on_pruned], never dropped silently) *)
  interrupted : bool;
      (** the campaign was stopped by [options.stop] with work still
          queued; [final] is the union of what had passed by then *)
}

val search : ?options:options -> Target.t -> result
(** [drive breadth_first]. Raises only {!Aborted}, and only when an
    evaluator raises it in a campaign without a pool. *)

(** {1 Wave machines and the campaign driver} *)

type flagged = (Static.node * Config.flag) list
(** An accepted replacement set: structures with the precision flag each
    one currently holds. *)

type ctx = {
  target : Target.t;  (** program, eval path, profile, code cache *)
  options : options;
      (** the full campaign options; machines read what they need *)
  counts : int array;
      (** address-indexed dynamic execution counts from the one profiling run *)
  universe : Static.insn_info list;
      (** the candidate instructions not [Ignore]-flagged by [options.base] *)
  entry : Formats.t;
      (** the widest reduced format on the menu — the flag every search move
          is tried at; cheaper formats are the finish's business *)
}

type wave = {
  configs : Config.t list;  (** evaluated together, verdicts in this order *)
  pruned : int;  (** candidates skipped without an evaluation this wave *)
  notes : string list;  (** narration, logged before the evaluations *)
}
(** One proposed wave. It may evaluate nothing (every item of a BFS wave
    pruned) and still counts as a wave: the driver polls [stop] after
    it. *)

type finish =
  | Structures
      (** lattice-descend each accepted structure alone, then evaluate
          the union (and greedy composition) — BFS's finish *)
  | Instructions
      (** evaluate the union (and greedy composition), then give every
          candidate left double one chance on top (the top-up) and descend
          the accepted instructions in place, keeping the whole
          configuration passing — the finish of the flat, instruction-level
          machines, which makes each one maximal over the same move set *)

module type MACHINE = sig
  type state

  val name : string
  (** The strategy's token ([Strategy.of_string] syntax). *)

  val finish : finish

  val init : ctx -> eval:(Config.t -> Verdict.verdict) -> state * string list
  (** The starting state, plus narration. [eval] is the driver's
      contained, counted evaluation path, for probes made before the first
      wave (BFS's shadow seed). *)

  val propose : ctx -> state -> wave option * state
  (** The next wave, or [None] when the machine is done. *)

  val consume : ctx -> state -> Verdict.verdict list -> state * string list
  (** Fold one wave's verdicts (in proposal order) into the state. *)

  val flagged : ctx -> state -> flagged
  (** The accepted set so far: what the finish composes. *)

  val interrupt : state -> string option
  (** Narration for a stop request at a wave boundary, or [None] when
      nothing was left to do (the campaign then finishes normally). *)
end

val breadth_first : (module MACHINE)
(** The paper's breadth-first structural descent (tagged ["bfs"]). Its
    state is the work queue, the passing set and the item sequence
    counter. *)

val drive : (module MACHINE) -> ?options:options -> Target.t -> result
(** Run one campaign with a machine. The driver alone profiles the
    target, staffs or borrows the pool, evaluates every configuration
    through one contained path that counts [tested], polls [stop] at wave
    boundaries, runs the machine's finish and builds the result. Raises
    only {!Aborted}, and only when an evaluator raises it in a campaign
    without a pool (see {!Aborted}). *)

val force_single : base:Config.t -> Config.t -> Static.node -> Config.t
(** [force_single ~base cfg node] marks [node] [Single] in [cfg] — at the
    aggregate level when possible, expanded to instruction level when the
    aggregate contains [Ignore]-flagged instructions (aggregate flags
    override children, and user ignore-hints must survive). *)
