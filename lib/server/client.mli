(** Typed client for the campaign daemon.

    One {!t} is one connection running the strict request/reply protocol;
    it is thread-safe (a mutex serialises frames on the wire). Every call
    is total — transport failures, server [Error_reply]s and protocol
    surprises all come back as [Error _] strings, never exceptions, so CLI
    verbs and the campaign benchmark can pattern-match their way to an
    exit code.

    Every call runs one retry loop. Reconnects are retried with
    {e jittered} exponential backoff (so many clients whose daemon
    restarts do not stampede it in lockstep), and the total backoff per
    call is capped at 30 s. Failures where the request provably never
    left — a refused dial, a failed write — are always retried. Once a
    request has been written, a transport failure retries only
    {e idempotent} frames (every query including Cancel; everything except
    Submit, which could be doubled): this is what lets {!watch} and
    {!wait} ride through a daemon restart, reconnecting with their event
    cursor and job id and resuming against the recovered job table
    instead of dying with the old process. *)

type t

val reach : Rng.t -> Server.addr -> (Unix.file_descr, string) result
(** Dial [addr] with up to 5 extra attempts spaced 0.2 s apart (doubling,
    jittered by [rng]; about 6 s in all) — a just-started daemon may not
    be listening yet. {!connect} and {!Worker.run} dial through it. *)

val connect : Server.addr -> (t, string) result
(** {!reach} [addr]. Also ignores [SIGPIPE] process-wide, like
    {!Server.start}: a write to a daemon that just died must surface as
    [EPIPE] and feed the retry loop, not kill the client. *)

val close : t -> unit
(** Idempotent. *)

val submit : t -> Wire.job_spec -> (string, string) result
(** Returns the job id. *)

val status : ?job:string -> t -> (Wire.job_status list, string) result

val watch : t -> job:string -> (string -> unit) -> (int, string) result
(** Stream the job's event lines to the callback until the server reports
    the stream final (the job is terminal and fully drained), polling
    every 50 ms when no new lines are pending. Returns the final cursor.
    A daemon restarted on its state dir within a call's retry budget
    re-lists the job from its WAL, and the watch resumes. *)

val result : t -> string -> (Wire.job_status * string * string, string) result
(** [(status, config_text, summary)] of a terminal job. *)

val wait : t -> string -> (Wire.job_status * string * string, string) result
(** Poll every 50 ms until the job is terminal, then fetch its result;
    rides a daemon restart as {!watch} does. *)

val cancel : t -> string -> (bool, string) result
val stats : t -> (Wire.server_stats, string) result
