(** The evaluation result store: the one verdict memo.

    Every verdict a campaign earns is memoized here, keyed by everything
    it depends on —

    {v program_key / context / Config.digest v}

    where the program key is {!program_key} (the structural fingerprint
    of the candidate tree), the context is {!context} (the input the
    kernel is verified on, the step budget, and an inline campaign's
    fault-injection spec: two campaigns that differ there may
    legitimately disagree on a verdict) and {!Config.digest} identifies
    the candidate's effective per-instruction flags. The campaign daemon
    shares one store across campaigns and clients, so overlapping
    campaigns evaluate each shared candidate once, server-wide; an inline
    [craft search --journal FILE] keeps one store per campaign on disk
    ({!open_journal}).

    Lookups deduplicate {e in flight}: while a key is being computed, a
    second requester blocks on it instead of recomputing — so even two
    byte-identical campaigns racing each other evaluate each candidate
    exactly once. The store is domain- and thread-safe.

    With [?path], the store is {e durable}: every fresh verdict is appended
    to a {!Durable_log} (one escaped-key line per verdict,
    [<key> <verdict-token> <seq>]) that {!create} replays into the table,
    so a campaign or daemon SIGKILLed mid-run restarts with every verdict
    it ever computed, and a re-walk of the campaign is served from it.
    {!compact} rewrites a log grown across many daemon lifetimes. *)

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

val open_journal : resume:bool -> path:string -> (t, string) result
(** The durable store of one inline campaign, [craft search --journal
    FILE]: every record flushed, fsync at {!close}. Without [resume] an
    existing [path] is removed first. With [resume] its verdicts are
    replayed, unless its first line is not this store's header (a file
    written by another tool or an older journal format): then [Error],
    and the file is left untouched. *)

val key : program_key:string -> context:string -> config_digest:string -> string
(** Compose the canonical store key. *)

val program_key : Ir.program -> string
(** 16-hex-digit FNV-1a fingerprint of the program's structure tree: the
    first component of every key. *)

val context : Wire.context -> Kernel.t -> string
(** The middle component of every key of one campaign, computed once per
    campaign from its evaluation context ({!Campaign.context}) and the
    kernel that context resolved to:
    [steps=<budget>;backend=compiled;input=<name>;reference=<digest>],
    then [;inject=<spec>] inline under [--inject]. It names the kernel's
    input (its name, which carries the class, e.g. [ep.A], and a digest
    of its reference output), the context's step budget (default: the
    target's) and its fault-injection spec; the retry budget is not
    part of it. A verdict earned under one
    context is never served under another: a campaign at class A misses
    every class-W verdict, and one under another step budget misses
    every verdict of the budgeted run. [backend=compiled] is a constant:
    every evaluation runs on the compiled backend, and the token stays so
    that store logs written when the engine was a choice keep hitting. *)

val wrap_target : t -> context:string -> Bfs.Target.t -> Bfs.Target.t
(** The inline campaign's evaluation path: [eval] looks the configuration
    up under [context] and, on a miss, evaluates it through the target's
    own [eval] (usually a harnessed one, {!Harness.wrap_target}) and
    records the verdict it returns. *)

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
