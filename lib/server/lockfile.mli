(** Exclusive state-dir lock for [craft serve].

    Two daemons on one [--state-dir] would silently interleave appends
    into the same store log, WAL and per-job results; this lock makes the
    second one refuse to start with a clear error instead.

    The exclusion is an [fcntl(2)] record lock ([Unix.lockf F_TLOCK]) on
    [<dir>/LOCK], held for the daemon's lifetime. Kernel locks die with
    their process, so a lock left by a SIGKILLed or crashed daemon is
    stale by construction and reclaimed by the next {!acquire} — no pid
    probing races. The owner's pid is written into the file purely to make
    the refusal message actionable. *)

type t

val acquire : dir:string -> (t, string) result
(** Take the exclusive lock on [dir] (created if missing), writing our pid
    into it. [Error] names the live holder when another daemon has it. *)

val release : t -> unit
(** Unlock, close and remove the lockfile. The lock also vanishes on any
    process death, including [kill -9]. *)

val path : dir:string -> string
(** [<dir>/LOCK], for tests and error messages. *)
