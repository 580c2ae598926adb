(** The remote evaluation worker ([craft worker]).

    A worker dials the campaign daemon, introduces itself
    ([Worker_hello]), then loops: lease a batch of configuration
    evaluations, rebuild the batch's kernel + resilient harness locally,
    evaluate each item, and stream the verdicts back ([Result_push]) —
    heartbeating between items so the {!Fleet} dispatcher can tell a slow
    worker from a dead one. The loop survives a dropped connection by
    rejoining with its reconnect token: the daemon replies with the keys
    that resolved while it was away (delta sync), which the worker skips.

    A worker builds its evaluator from the lease alone: the batch's
    {!Wire.context} is the one the daemon keyed the items' verdicts by,
    and {!Campaign.target} turns it into the same harnessed target the
    daemon would build. A worker never fabricates verdicts: an
    unparseable config or an unbuildable kernel is skipped, and the
    daemon requeues the item when the lease expires.

    Failure injection: [?chaos] ({!Chaos}) makes the {e worker} hostile
    at the transport layer (death mid-batch, heartbeat stalls, garbage
    frames, duplicate deliveries), which only the daemon's fleet
    machinery can contain. *)

type stats = {
  evaluated : int;  (** configurations actually evaluated *)
  pushed : int;  (** verdicts the daemon accepted *)
  skipped : int;  (** delta-synced away, or unresolvable *)
  batches : int;  (** leases taken *)
  rejoins : int;  (** reconnects after a lost connection *)
}

val run :
  ?name:string ->
  ?capacity:int ->
  ?chaos:Chaos.t ->
  ?log:(string -> unit) ->
  ?stop:(unit -> bool) ->
  resolve:(bench:string -> cls:string -> (Kernel.t, string) result) ->
  Server.addr ->
  stats
(** [run ~resolve addr] works until the daemon goes away (every dial,
    first or rejoining, goes through {!Client.reach}, which gives up
    after 5 redials, about 6 s), refuses us (quarantine, version
    mismatch), or [stop ()] turns true (the worker then says [Goodbye] so
    its lease requeues immediately). [name] defaults to ["worker-<pid>"]
    and is the daemon-side quarantine identity. [chaos]'s [Kill] action
    raises {!Chaos.Killed} out of [run] — process hosts turn it into
    [exit 137], test hosts catch it and restart [run] with fresh state,
    both faithful to a real SIGKILL. Thread-safe to host several workers
    in one process (each gets its own compile cache and harnesses). *)
