(** The resilient evaluation harness.

    The autosearch is a long campaign of thousands of independent
    configuration evaluations, each of which — like the instrumented
    binaries of the real tool — can fail verification, trap, exceed its
    step budget, or crash outright. This module turns any raising
    evaluator (usually {!Bfs.Target.raw_eval}) into a {e total} function
    returning a classified {!Verdict.verdict}, with

    - containment: no exception whatsoever escapes {!eval};
    - bounded retries for flaky verdicts — exactly those for which
      {!Verdict.is_flaky} holds (crash) — so transient faults don't turn
      into permanent search decisions. A pass, a verification failure, a
      VM trap or a timeout is final: the VM is deterministic, so a rerun
      repeats a step-budget overrun, and a wall-clock deadline miss
      leaves its pool task cancelled. An injected trap or hang
      ({!Faults.Injected}) or silent corruption that fails verification
      ({!Faults.Corrupted}) is a crash, retried like any other. This is
      the one rerun policy: the {!Pool} never reruns a task;
    - per-verdict counters for the end-of-campaign breakdown report.

    Flakiness only enters through {!Faults} injection or a genuinely
    non-deterministic user evaluator. *)

type counters = {
  mutable evaluations : int;  (** calls to {!eval} *)
  mutable attempts : int;  (** underlying evaluator runs, retries included *)
  mutable pass : int;
  mutable fail_verify : int;
  mutable trapped : int;
  mutable timed_out : int;
  mutable crashed : int;
  mutable retried : int;  (** retry attempts performed *)
}
(** Per-attempt verdict tallies ([pass + fail_verify + trapped + timed_out
    + crashed = attempts]); reads are racy-but-monotone under domain
    parallelism. *)

type t

val make : ?retries:int -> ?cache:Compile.cache -> (Config.t -> bool) -> t
(** [make raw] wraps a raising evaluator. [retries] (default 0) bounds the
    extra attempts granted to a flaky verdict, each run at once.
    [cache] attaches the target's compiled-block cache so {!report} can
    append its hit/miss line. *)

val eval : t -> Config.t -> Verdict.verdict
(** Total classified evaluation with retries. Never raises. *)

val counters : t -> counters

val report : t -> string
(** One-line verdict breakdown, e.g.
    ["verdicts: pass=12 fail=30 trap=3 timeout=1 crash=0 | 46 evaluations, 47 attempts, 4 retried"];
    when a compiled-block cache is attached, the {!Compile.report} line
    (hits / misses / hit rate) is appended. *)

val wrap_target : ?retries:int -> Bfs.Target.t -> t * Bfs.Target.t
(** Build a harness over the target's {!Bfs.Target.raw_eval} and return it
    together with the same target whose [eval] is the harness's {!eval} —
    drop-in resilience (containment + retries + counters) for
    {!Bfs.search} and every [Strategy] campaign. The target's
    {!Bfs.Target.code_cache} (if any) is attached, so the harness report
    also carries the campaign's code-cache hit rate. *)
