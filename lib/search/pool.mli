(** The supervised evaluation worker pool.

    The autosearch dispatches hundreds of independent configuration
    evaluations. {!Bfs} used to spawn one domain per wave item and block in
    [Domain.join]: a genuinely non-terminating evaluator (hung {e outside}
    the VM step budget) froze the campaign forever, and each wave paid the
    full domain spawn cost. This pool replaces that with [workers]
    long-lived domains pulling from a bounded task queue, under a monitor
    domain that enforces a per-task {e wall-clock} deadline on top of the
    VM's step budget:

    - the worker polls a cancellation flag every 256 executed instructions
      through the per-instruction VM watchdog ({!Vm.with_watchdog});
    - a {e deadline miss} is first cancelled cooperatively (the watchdog
      raises {!Vm.Deadline}, classified as a timeout). A worker that stays
      unresponsive for [grace] more seconds is hung outside the VM — OCaml
      domains cannot be killed, so it is {e abandoned} (leaked, marked
      zombie), the task resolves as {!Verdict.Step_timeout}, and a
      replacement worker is staffed;
    - an exception {e escaping} a task thunk is that task's verdict, by
      {!Verdict.classify_exn} (a {!Vm.Trap} is [Trapped], a {!Vm.Limit} or
      {!Vm.Deadline} a timeout, anything else a crash), and the worker
      takes the next task. The pool never reruns a task: retries are the
      harness's ({!Harness}, [--retries]);
    - if domains cannot be spawned, or more than [max_worker_loss] workers
      have been abandoned, the pool {e degrades} to serial inline
      execution with a logged warning — the campaign always finishes.
      There is no deadline then; an escaping exception is classified the
      same way.

    Results are returned in submission order; a pool is meant to be
    created once per campaign and reused across waves. *)

type options = {
  workers : int;  (** long-lived worker domains (clamped to ≥ 1) *)
  deadline : float option;
      (** per-task wall-clock deadline in seconds; [None] disables the
          monitor entirely *)
  grace : float;
      (** extra seconds after a cooperative cancel before the worker is
          declared hung and abandoned (default 0.5) *)
  max_worker_loss : int;
      (** abandoned workers the pool replaces before it degrades to serial
          (default 8) *)
  queue_cap : int;  (** bounded queue: max undispatched tasks (default 64) *)
}

val default_options : options

type stats = {
  tasks : int;
  completed : int;
  deadline_misses : int;  (** tasks whose wall-clock deadline elapsed *)
  abandoned : int;  (** deadline misses that also ignored the cancel *)
  restarts : int;  (** replacement workers staffed for abandoned ones *)
  inline_runs : int;  (** tasks executed serially after degradation *)
  degraded : bool;
}

type t

val create : ?options:options -> ?log:(string -> unit) -> unit -> t
(** Spawn the workers (and the monitor, polling every 2 ms, when a
    deadline is set). [log] receives supervision events as they happen
    (default: silent); the same events are always buffered for
    {!drain_events}. *)

val run : t -> (unit -> Verdict.verdict) list -> Verdict.verdict list
(** Dispatch one wave of evaluation thunks and block until every one has a
    verdict — by evaluation, by classifying what the thunk raised, by
    deadline, or by degraded inline execution. Each thunk runs at most
    once. Results are in submission order. Never raises from a task. *)

val shutdown : t -> unit
(** Stop accepting work, join every live worker and the monitor. Abandoned
    (zombie) workers are intentionally leaked — they hold genuinely hung
    tasks and die with the process. Idempotent. *)

val stats : t -> stats

val drain_events : t -> string list
(** Supervision events (oldest first) since the last drain — how {!Bfs}
    folds pool warnings into the search narration. *)

val report : t -> string
(** One-line supervisor summary for end-of-run reports. *)
