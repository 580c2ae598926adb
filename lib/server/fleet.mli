(** The distributed worker fleet dispatcher.

    The paper ran its mixed-precision search on a Xeon cluster over MPI;
    this is the reproduction's equivalent: remote [craft worker]
    processes ({!Worker}) connect to the campaign daemon over the wire
    protocol, lease batches of configuration evaluations carved out of
    the scheduler's waves, and stream verdicts back. The dispatcher makes
    worker failure a first-class event rather than a campaign-killer:

    - {b One liveness clock}: a worker is live exactly while it was heard
      from (any frame) within three heartbeat intervals. A clean goodbye
      or a restart under the same name ends the old incarnation's
      liveness at once.
    - {b Leases with a heartbeat deadline}: a worker that misses two
      heartbeat intervals mid-batch, or holds a lease past [lease_ttl],
      has its lease requeued and earns a strike. Requeue is time-based,
      never disconnect-based, so a worker that drops its connection and
      rejoins quickly keeps its lease and its in-flight work.
    - {b Requeue}: items of a dead lease return to the queue with their
      original enqueue time, so the campaign-wide item deadline still
      bounds their total wait.
    - {b Quarantine}: a worker {e name} that repeatedly kills batches
      (strikes ≥ [quarantine_after]: missed heartbeats, an expired lease,
      a restart mid-batch) is banned — later hellos, leases and
      heartbeats are refused. A clean goodbye adds no strike and removes
      none.
    - {b Rejoin with delta sync}: a returning worker presents its old id
      and receives the keys of leased items that resolved while it was
      away, so it never re-evaluates memoized work.
    - {b Graceful degradation}: with no live workers — or when an item
      has waited past its deadline — the waiter reclaims the item and
      evaluates on the in-process pool, so a chaos-ravaged fleet can only
      slow a campaign down, never wedge or corrupt it.

    Verdict integrity: the dispatcher accepts a pushed verdict only for
    an item still leased to the pushing worker under the pushed lease id;
    everything else (duplicates, stale leases, reclaimed items,
    unparseable verdicts) is counted and ignored. Combined with the
    {!Store}'s in-flight dedup — {!eval} runs inside [find_or_compute],
    so each store key reaches the fleet at most once — the store records
    no lost and no duplicate verdicts under chaos. *)

type options = {
  heartbeat_every : float;
      (** expected worker heartbeat interval, seconds: a worker is live
          for three of them after it was last heard from, a lease is
          requeued after two silent ones, and an empty-queue lease request
          long-polls for half of one *)
  lease_ttl : float;  (** max lease age before it is requeued regardless *)
  item_deadline : float;
      (** max seconds an item waits on the fleet before its waiter
          reclaims it and evaluates locally *)
  quarantine_after : int;  (** strikes before a worker name is banned *)
}

val default_options : options
(** heartbeat 2s, lease TTL 60s, item deadline 300s, quarantine after 3
    strikes. A lease holds at most the worker's own capacity. *)

type stats = {
  joined : int;
  rejoined : int;
  leases : int;
  requeued_leases : int;
  requeued_items : int;
  accepted : int;
  ignored : int;  (** duplicates, stale leases, unparseable verdicts *)
  remote : int;  (** evaluations resolved by the fleet *)
  local_fallbacks : int;  (** evaluations reclaimed to the local pool *)
  quarantined : string list;  (** banned worker names *)
}

type t

val create : ?options:options -> ?log:(string -> unit) -> unit -> t
(** Start the dispatcher and its monitor thread (the deadline clock). *)

val stop : t -> unit
(** Stop the monitor and release every waiter into local fallback. *)

val eval :
  t ->
  ctx:Wire.context ->
  key:string ->
  text:string ->
  (unit -> Verdict.verdict) ->
  Verdict.verdict * [ `Remote | `Local ]
(** [eval t ~ctx ~key ~text local] resolves one configuration evaluation:
    offered to the fleet when live workers exist, falling back to
    [local ()] when the fleet is empty, the dispatcher is stopped, or the
    item waits past [item_deadline]. [key] must be unique among in-flight
    items — the scheduler guarantees this by calling [eval] inside
    {!Store.find_or_compute}. [text] is the {!Config.print} exchange form
    workers parse back. [ctx] is the context [key] was built from: a
    lease holds items of one context and carries it ({!Wire.batch}).
    Blocks until a verdict exists. *)

val handle : t -> Wire.frame -> Wire.frame option
(** Dispatch one fleet frame (hello / lease request / result push /
    heartbeat / goodbye) to its reply; [None] for campaign frames, which
    the caller routes to the scheduler as before. *)

val live_workers : t -> int
(** Workers currently live: heard from within three heartbeat intervals,
    not quarantined, and neither departed nor replaced by a restart. *)

val stats : t -> stats
val report : t -> string
(** One-line counter summary for shutdown logs. *)
