(** The cross-campaign evaluation result store.

    The {!Journal} memoizes verdicts {e within} one campaign; the code
    cache shares compiled blocks across evaluations. This store is the
    serving-layer third leg: verdicts memoized {e across} campaigns and
    clients, keyed by everything a verdict depends on —

    {v (program key, eval-options digest, Config.digest) v}

    where the program key is {!program_key} (the structural fingerprint
    of the candidate tree), the eval-options digest covers the
    step budget and backend (two jobs with different budgets may
    legitimately disagree on a timeout verdict), and {!Config.digest}
    identifies the candidate's effective per-instruction flags. Two
    clients submitting overlapping campaigns against one program evaluate
    each shared candidate once, server-wide.

    Lookups deduplicate {e in flight}: while a key is being computed, a
    second requester blocks on it instead of recomputing — so even two
    byte-identical campaigns racing each other evaluate each candidate
    exactly once. The store is domain- and thread-safe.

    With [?path], the store is {e durable}: every fresh verdict is appended
    to a {!Durable_log} (one escaped-key line per verdict,
    [<key> <verdict-token> <seq>]) that {!create} replays into the table,
    so a daemon SIGKILLed mid-campaign restarts with every verdict it ever
    computed. {!compact} rewrites a log grown across many daemon
    lifetimes. *)

type t

type record = { key : string; verdict : Verdict.verdict; seq : int }

val codec : record Durable_log.codec

type stats = {
  hits : int;  (** served without evaluating (includes in-flight waits) *)
  misses : int;  (** computed and recorded *)
  entries : int;
  waits : int;  (** hits that blocked on an in-flight computation *)
  replayed : int;  (** entries loaded from the durable log at {!create} *)
}

val create : ?path:string -> ?fsync_every:int -> unit -> t
(** Memory-only without [path]. With [path], replay the log and append
    every fresh verdict to it. [fsync_every] (default 32) is the log's
    fsync policy: 1 syncs per record, 0 never syncs (flush only). *)

val key : program_key:string -> opts_digest:string -> config_digest:string -> string
(** Compose the canonical store key. *)

val program_key : Ir.program -> string
(** 16-hex-digit FNV-1a fingerprint of the program's structure tree: the
    first component of every key. *)

val find_or_compute : t -> key:string -> (unit -> Verdict.verdict) -> Verdict.verdict * bool
(** [find_or_compute t ~key f] returns the memoized verdict for [key],
    running [f] (outside the store lock) and recording its result on a
    miss. The boolean is [true] when the verdict was served from the
    store — already recorded, or computed concurrently by someone else
    while we waited. If [f] raises, the pending entry is withdrawn (the
    next requester recomputes) and the exception propagates. *)

val close : t -> unit
(** Flush, fsync and close the log. The in-memory table keeps serving;
    further verdicts are no longer persisted. Idempotent. *)

val scan : path:string -> (string * Verdict.verdict) list
(** The log's [(key, verdict)] pairs, oldest first, read without opening
    it for writing (inspection, tests). *)

val compact : path:string -> (int * int, string) result
(** Offline compaction: atomically rewrite the log with one record per
    distinct key (last verdict wins, matching replay;
    {!Durable_log.rewrite}). Returns [(kept, dropped)]. Run it on a
    daemon's state dir between lifetimes, not while one is appending. *)

val stats : t -> stats

val hit_rate : stats -> float
(** Hits over total lookups, in [0,1]; 0 before any lookup. *)

val report : t -> string
(** One-line summary for the daemon's shutdown log. *)
