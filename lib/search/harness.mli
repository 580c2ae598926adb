(** The resilient evaluation harness.

    The autosearch is a long campaign of thousands of independent
    configuration evaluations, each of which — like the instrumented
    binaries of the real tool — can fail verification, trap, exceed its
    step budget, or crash outright. This module turns any raising
    evaluator (usually {!Bfs.Target.raw_eval}) into a {e total} function
    returning a classified {!verdict}, with

    - containment: no exception whatsoever escapes {!eval};
    - bounded retries with deterministic exponential backoff for flaky
      (infrastructure-looking) verdicts, so transient faults don't turn
      into permanent search decisions;
    - per-verdict counters for the end-of-campaign breakdown report.

    The verdict taxonomy itself lives in {!Verdict} (so {!Pool} and
    {!Bfs} can classify without a dependency cycle); this module
    re-exports it unchanged.

    Verdict equality of retried evaluations is deterministic because the
    VM itself is; flakiness only enters through {!Faults} injection or a
    genuinely non-deterministic user evaluator. *)

type verdict = Verdict.verdict =
  | Pass  (** ran to completion and verified *)
  | Fail_verify  (** ran to completion, verification rejected the output *)
  | Trapped of int * string
      (** the VM trapped: instrumentation-invariant violation,
          out-of-bounds access, division by zero, injected trap ...
          [(address, reason)] *)
  | Step_timeout
      (** the per-evaluation step budget ran out, or the supervisor's
          wall-clock deadline cancelled the run *)
  | Crashed of string  (** any other exception from the evaluator *)
  | Pruned of string
      (** skipped without evaluation: the shadow-value analysis predicted
          divergence above the search's hard bound (see {!Bfs.shadow});
          journaled, never produced by the harness itself *)

val verdict_label : verdict -> string
(** Short class label: ["pass"], ["fail"], ["trap"], ["timeout"],
    ["crash"], ["pruned"]. *)

val verdict_to_string : verdict -> string
(** Compact single-token serialization (no spaces; payloads are
    percent-escaped), e.g. ["trap:0x00001f:injected%20fault"]. Used by the
    {!Journal}. *)

val verdict_of_string : string -> verdict option
(** Inverse of {!verdict_to_string}; [None] on malformed input. *)

val pp_verdict : Format.formatter -> verdict -> unit

type counters = {
  mutable evaluations : int;  (** calls to {!eval} *)
  mutable attempts : int;  (** underlying evaluator runs, retries included *)
  mutable pass : int;
  mutable fail_verify : int;
  mutable trapped : int;
  mutable timed_out : int;
  mutable crashed : int;
  mutable retried : int;  (** retry attempts performed *)
  mutable backoff_units : int;  (** modeled backoff delay accumulated *)
}
(** Per-attempt verdict tallies ([pass + fail_verify + trapped + timed_out
    + crashed = attempts]); reads are racy-but-monotone under domain
    parallelism. *)

type t

val make :
  ?retries:int ->
  ?backoff:int ->
  ?retry_fail_verify:bool ->
  ?cache:Compile.cache ->
  (Config.t -> bool) ->
  t
(** [make raw] wraps a raising evaluator. [retries] (default 0) bounds the
    extra attempts granted to a flaky verdict; attempt [k]'s modeled
    backoff delay is [backoff * 2^(k-1)] units (default base 1, recorded
    in the counters — the VM world has no wall clock to actually sleep
    on), saturating at {!max_backoff_unit} per delay so large retry
    budgets can't overflow the accounting. [cache] attaches the target's
    compiled-block cache so {!report} can append its hit/miss line.
    [retry_fail_verify] (default
    false) extends retrying to {!Fail_verify}, for campaigns where
    injected silent corruption can forge verification failures. *)

val max_backoff_unit : int
(** Ceiling on one modeled backoff delay ([2^20] units). Exponential
    backoff saturates here instead of overflowing [1 lsl attempt] on
    large retry counts. *)

val eval : t -> Config.t -> verdict
(** Total classified evaluation with retries. Never raises. *)

val counters : t -> counters

val report : t -> string
(** One-line verdict breakdown, e.g.
    ["verdicts: pass=12 fail=30 trap=3 timeout=1 crash=0 | 46 evaluations, 47 attempts, 4 retried, backoff 7 units"];
    when a compiled-block cache is attached, the {!Compile.report} line
    (hits / misses / hit rate) is appended. *)

val wrap_target : ?retries:int -> ?backoff:int -> ?retry_fail_verify:bool ->
  Bfs.Target.t -> t * Bfs.Target.t
(** Build a harness over the target's {!Bfs.Target.raw_eval} and return it
    together with the same target whose [eval] is the harness's {!eval}
    folded to a bool ({!Pass} is [true]) — drop-in resilience (containment
    + retries + counters)
    for {!Bfs.search} and every [Strategy] campaign. The target's
    {!Bfs.Target.code_cache} (if any) is attached, so the harness report
    also carries the campaign's code-cache hit rate. *)
