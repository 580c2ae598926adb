(** The campaign scheduler: many concurrent searches, one shared substrate.

    Each submitted {!Wire.job_spec} becomes a job with an event stream
    and a priority. [max_concurrent] runner threads
    drive the campaigns; every candidate evaluation flows
    through the one shared {!Pool} (so the machine's worker domains are a
    single resource, not per-campaign fleets), compiled blocks land in the
    one shared {!Compile.cache}, and verdicts are memoized in the
    cross-campaign {!Store}, keyed under the {!Store.context} of the
    job's {!Wire.context}, the record its evaluator is also built from
    ({!Campaign.target}) — identical evaluations submitted by different
    clients run once, server-wide.

    Failure containment: an exception escaping a campaign's search loop
    itself (not an evaluation — those are already classified verdicts)
    kills only that job's run; the job is requeued and, after
    [quarantine_after] such deaths, quarantined with the exception
    message instead of being retried forever. A requeued job re-walks its
    campaign from the start while the {!Store} serves every verdict it
    already holds, so the retry re-evaluates nothing that was stored.

    With a [state_dir], the same containment extends to {e daemon} death:
    every submission and every terminal outcome is appended to a job-table
    {!Wal} under the state dir (terminal configurations also land in a
    per-job [result] file, written atomically), and {!create} replays it —
    each recovered spec is admitted again as {!submit} admits one, and a
    spec that no longer validates or resolves is dropped with a
    [not recovered] log line; finished jobs are re-listed with their
    persisted result, unfinished
    ones are re-queued and re-walk their campaigns against the replayed
    store exactly as after a driver death. Combined with a durable
    {!Store} a [kill -9]'d daemon restarted on the same state dir loses no
    verdicts and no campaigns.

    Cancellation and drain are cooperative through {!Bfs}'s wave-boundary
    stop: a cancelled (or drain-interrupted) job ends [Cancelled] with the
    partial result composed — never killed mid-wave. *)

type options = {
  max_concurrent : int;  (** runner threads (campaigns in flight) *)
  wave_width : int;  (** {!Bfs} wave size ([options.workers]) per job *)
  retries : int;  (** harness retry budget per evaluation *)
  quarantine_after : int;  (** driver deaths before a job is quarantined *)
  state_dir : string option;
      (** root for the job-table WAL and the per-job [result] files;
          [None] keeps the job table memory-only (tests) *)
}

val default_options : options
(** 2 runners, wave width 2, no retries, quarantine after 2, no state
    dir. *)

type t

val create :
  ?options:options ->
  ?log:(string -> unit) ->
  ?fleet:Fleet.t ->
  resolve:(Wire.job_spec -> (Kernel.t, string) result) ->
  pool:Pool.t ->
  cache:Compile.cache ->
  store:Store.t ->
  unit ->
  t
(** Staff the runner threads. [resolve] maps a job spec to the benchmark
    to search (the CLI passes the bundled-kernel loader; tests inject
    synthetic programs). The scheduler borrows [pool], [cache], [store]
    and [fleet] — the caller owns their lifecycle.

    With [fleet], store misses are offered to the worker fleet inside the
    store's compute closure ({!Fleet.eval}, falling back to the local
    harness when the fleet is empty or slow) with the job's context; the
    store's in-flight dedup means each key reaches the fleet at most once,
    server-wide. *)

val submit : t -> Wire.job_spec -> (string, string) result
(** Queue a campaign; returns its job id. [Error] after {!shutdown}, when
    {!Campaign.of_spec} rejects the spec's strategy token or format menu
    (the message names the token), or when [resolve] rejects its
    benchmark. A queued job runs through {!Campaign.run}, as
    [craft search] does, with the scheduler's wave width, pool and stop
    request. *)

val status : t -> string option -> (Wire.job_status list, string) result
(** One job's status, or every job's (submission order). *)

val events : t -> job:string -> from:int -> (int * string list * bool, string) result
(** [(next_cursor, lines, final)] — the job's event lines from cursor
    [from]; [final] once the job is terminal and [lines] reaches the end
    of its log. *)

val result : t -> string -> (Wire.job_status * string * string, string) result
(** [(status, config_text, summary)] of a terminal job; [Error] while it
    is still queued or running. *)

val cancel : t -> string -> bool
(** Request a cooperative stop. [true] if the job was queued (dequeued
    immediately) or running (will stop at the next wave boundary); [false]
    for unknown or already-terminal jobs. *)

val stats : t -> Wire.server_stats

val wait_idle : t -> unit
(** Block until no job is queued or running. *)

val shutdown : t -> ?cancel_running:bool -> unit -> unit
(** Stop accepting submissions, then stop the runners: with
    [cancel_running] (default [false]) running jobs are stopped at their
    next wave boundary and any queued jobs are cancelled; without it the
    runners finish every queued and running job first. Joins the runner
    threads. Idempotent. *)
