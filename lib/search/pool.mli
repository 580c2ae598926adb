(** The supervised evaluation worker pool.

    The autosearch dispatches hundreds of independent configuration
    evaluations. {!Bfs} used to spawn one domain per wave item and block in
    [Domain.join]: a genuinely non-terminating evaluator (hung {e outside}
    the VM step budget) or a dying worker froze the campaign forever, and
    each wave paid the full domain spawn cost. This pool replaces that with
    [workers] long-lived domains pulling from a bounded task queue, under a
    monitor domain that enforces a per-task {e wall-clock} deadline on top
    of the VM's step budget:

    - {e heartbeats} are driven through the per-instruction VM watchdog
      ({!Vm.with_watchdog}): the worker publishes progress and polls a
      cancellation flag every 256 executed instructions;
    - a {e deadline miss} is first cancelled cooperatively (the watchdog
      raises {!Vm.Deadline}, classified as a timeout). A worker that stays
      unresponsive for [grace] more seconds is hung outside the VM — OCaml
      domains cannot be killed, so it is {e abandoned} (leaked, marked
      zombie), the task resolves as {!Verdict.Step_timeout}, and a
      replacement worker is staffed;
    - an exception {e escaping} a task thunk is worker-fatal (the in-VM
      analogue of an evaluation segfaulting the worker process): the worker
      is restarted and the task is requeued — until the same task has
      killed [quarantine_after] workers, at which point it is quarantined
      with a {!Verdict.Crashed} verdict instead of being retried forever;
    - if domains cannot be spawned, or total worker losses exceed
      [max_worker_loss], the pool {e degrades} to serial inline execution
      with a logged warning — the campaign always finishes. There is no
      supervision then: an exception escaping a thunk is classified on the
      spot by {!Verdict.classify_exn} (a {!Vm.Trap} is [Trapped], a
      {!Vm.Limit} or {!Vm.Deadline} a timeout, anything else a crash),
      with no requeue.

    Well-behaved stacks (thunks over {!Bfs.Target.eval} or
    {!Harness.eval}) are total, so worker deaths only arise from genuinely
    abnormal failures. Results are returned in submission order; a pool is
    meant to be created once per campaign and reused across waves. *)

type options = {
  workers : int;  (** long-lived worker domains (clamped to ≥ 1) *)
  deadline : float option;
      (** per-task wall-clock deadline in seconds; [None] disables the
          monitor entirely *)
  grace : float;
      (** extra seconds after a cooperative cancel before the worker is
          declared hung and abandoned (default 0.5) *)
  quarantine_after : int;
      (** worker deaths a single task may cause before it is quarantined
          (default 2) *)
  max_worker_loss : int;
      (** total deaths + abandonments before the pool degrades to serial
          (default 8) *)
  queue_cap : int;  (** bounded queue: max undispatched tasks (default 64) *)
  poll_interval : float;  (** monitor polling period in seconds *)
}

val default_options : options

type stats = {
  tasks : int;
  completed : int;
  deadline_misses : int;  (** tasks whose wall-clock deadline elapsed *)
  abandoned : int;  (** deadline misses that also ignored the cancel *)
  worker_deaths : int;
  restarts : int;  (** replacement workers staffed *)
  quarantined : int;
  inline_runs : int;  (** tasks executed serially after degradation *)
  degraded : bool;
}

type t

val create : ?options:options -> ?log:(string -> unit) -> unit -> t
(** Spawn the workers (and the monitor, when a deadline is set). [log]
    receives supervision events as they happen (default: silent); the same
    events are always buffered for {!drain_events}. *)

val run : t -> (unit -> Verdict.verdict) list -> Verdict.verdict list
(** Dispatch one wave of evaluation thunks and block until every one has a
    verdict — by evaluation, deadline, quarantine, or degraded inline
    execution. Results are in submission order. Never raises from a task. *)

val shutdown : t -> unit
(** Stop accepting work, join every live worker and the monitor. Abandoned
    (zombie) workers are intentionally leaked — they hold genuinely hung
    tasks and die with the process. Idempotent. *)

val stats : t -> stats
val degraded : t -> bool

val drain_events : t -> string list
(** Supervision events (oldest first) since the last drain — how {!Bfs}
    folds pool warnings into the search narration. *)

val report : t -> string
(** One-line supervisor summary for end-of-run reports. *)
