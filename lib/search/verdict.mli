(** Classified evaluation outcomes.

    The verdict taxonomy and its total classifier live below every other
    search module so that {!Pool} (what escapes a task), {!Bfs}
    (evaluation containment) and {!Harness} (retries, counters) can all
    speak the same language without a dependency cycle. *)

type verdict =
  | Pass  (** ran to completion and verified *)
  | Fail_verify  (** ran to completion, verification rejected the output *)
  | Trapped of int * string
      (** the VM trapped: instrumentation-invariant violation,
          out-of-bounds access, division by zero, injected trap ...
          [(address, reason)] *)
  | Step_timeout
      (** the per-evaluation step budget ran out, or the supervisor's
          wall-clock deadline cancelled the run ({!Vm.Deadline}) *)
  | Crashed of string  (** any other exception from the evaluator *)
  | Pruned of string
      (** the candidate was never evaluated: the shadow-value analysis
          predicted its divergence above the configured hard bound and the
          search skipped it. A prune is reported in the search log and the
          result's prune count, never stored as a verdict; the token stays
          decodable because older store logs hold it. Never produced by
          {!classify}. *)

val verdict_label : verdict -> string
(** Short class label: ["pass"], ["fail"], ["trap"], ["timeout"],
    ["crash"], ["pruned"]. *)

val verdict_to_string : verdict -> string
(** Compact single-token serialization (no spaces; payloads are
    percent-escaped), e.g. ["crash:out%20of%20memory"]. Used by the
    store log and the wire protocol. *)

val verdict_of_string : string -> verdict option
(** Inverse of {!verdict_to_string}; [None] on malformed input. *)

val pp_verdict : Format.formatter -> verdict -> unit

val is_flaky : verdict -> bool
(** True for {!Crashed} only — the one verdict a retry might change when
    faults are transient. A VM trap and a step-budget overrun are
    deterministic; a wall-clock deadline miss is not retried either,
    because the pool task whose deadline passed stays cancelled. *)

val classify : (unit -> bool) -> verdict
(** Run one evaluation thunk and classify its outcome. Total: maps
    {!Vm.Trap}/{!Vm.Limit}/{!Vm.Deadline} to their verdicts and every other
    exception (including [Stack_overflow] and [Out_of_memory]) to
    {!Crashed}. *)

val classify_exn : exn -> verdict
(** The exception half of {!classify}, for callers that must let specific
    control exceptions (e.g. {!Bfs.Aborted}) propagate before classifying
    the rest. *)

val escape : string -> string
(** Percent-escape the characters the store and WAL line formats
    reserve (space, [%], [|], [:], tab, CR, LF). *)

val unescape : string -> string option
(** Inverse of {!escape}; [None] on a malformed escape sequence. *)
