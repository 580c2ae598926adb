(** The distributed worker fleet dispatcher.

    The paper ran its mixed-precision search on a Xeon cluster over MPI;
    this is the reproduction's equivalent: remote [craft worker]
    processes ({!Worker}) connect to the campaign daemon over the wire
    protocol, lease batches of configuration evaluations carved out of
    the scheduler's waves, and stream verdicts back. The dispatcher makes
    worker failure a first-class event rather than a campaign-killer:

    - {b Leases with two-tier deadlines} ({!Pool}'s design one layer up):
      a worker that misses two heartbeat intervals has its lease requeued
      and earns a strike (tier 1); after a further grace period it is
      presumed dead (tier 2). Requeue is time-based, never
      disconnect-based, so a worker that drops its connection and rejoins
      quickly keeps its lease and its in-flight work.
    - {b Requeue}: items of a dead lease return to the queue with their
      original enqueue time, so the campaign-wide item deadline still
      bounds their total wait.
    - {b Quarantine}: a worker {e name} that repeatedly kills batches
      (strikes ≥ [quarantine_after]) is banned — later hellos, leases and
      heartbeats are refused, exactly like the scheduler quarantines a
      crashing campaign.
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
    so each store key reaches the fleet at most once — the journal sees
    no lost and no duplicate verdicts under chaos. *)

type options = {
  heartbeat_every : float;  (** expected worker heartbeat interval, seconds *)
  grace : float;  (** tier-2 slack past the missed-heartbeat deadline *)
  lease_ttl : float;  (** max lease age before it is requeued regardless *)
  item_deadline : float;
      (** max seconds an item waits on the fleet before its waiter
          reclaims it and evaluates locally *)
  poll_timeout : float;  (** long-poll bound for an empty-queue lease request *)
  max_batch : int;  (** max items per lease *)
  quarantine_after : int;  (** strikes before a worker name is banned *)
}

val default_options : options
(** heartbeat 2s, grace 2s, lease TTL 60s, item deadline 300s, poll 1s,
    batch 8, quarantine after 3 strikes. *)

type ctx = {
  bench : string;
  cls : string;
  eval_steps : int option;
  retries : int;  (** harness retry budget workers must apply *)
}
(** Everything a worker needs to rebuild the evaluation environment; one
    lease carries one context. *)

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
  ctx:ctx ->
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
    workers parse back. Blocks until a verdict exists. *)

val handle : t -> Wire.frame -> Wire.frame option
(** Dispatch one fleet frame (hello / lease request / result push /
    heartbeat / goodbye) to its reply; [None] for campaign frames, which
    the caller routes to the scheduler as before. *)

val disconnected : t -> string -> unit
(** [disconnected t wid]: the worker's connection dropped. A hint only —
    leases are reclaimed by the deadline sweep, not by disconnects, so a
    quick rejoin (see {!handle} on [Worker_hello] with a reconnect token)
    resumes without losing work. *)

val live_workers : t -> int
(** Workers currently considered live (connected, or within their
    two-tier deadline). *)

val stats : t -> stats
val report : t -> string
(** One-line counter summary for shutdown logs. *)
