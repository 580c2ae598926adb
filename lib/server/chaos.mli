(** Deterministic network-level fault injection for the worker fleet.

    {!Vm.Faults} makes individual {e evaluations} hostile (traps, hangs,
    silent corruption inside the VM); this module makes the {e fleet}
    hostile, at the transport layer, so the dispatcher's death/rejoin
    machinery can be proven out the same way the resilient harness was.
    A chaos-enabled worker ({!Worker}, [craft worker --chaos ...]) draws
    at most one action per leased batch:

    - [Kill]: the worker dies mid-batch ({!Killed} simulates SIGKILL
      in-process; [craft worker] turns it into [exit 137]) and restarts
      from scratch — the daemon must requeue the unfinished items.
    - [Stall]: the worker stops heartbeating and sleeps mid-batch — the
      daemon's two-tier deadlines must requeue the lease and ignore the
      stale results that arrive after the stall.
    - [Garbage]: the worker writes raw junk bytes into the connection —
      the daemon's total decoder drops the connection, and the worker
      must rejoin with result-store delta sync.
    - [Dup]: the worker delivers a result batch twice — the daemon must
      acknowledge the duplicate without double-recording.

    Like {!Vm.Faults}, decisions are a pure function of (seed, batch key),
    so a chaos campaign replays bit-for-bit; a [limit] budget bounds the
    total number of fired faults so every campaign eventually drains. *)

exception Killed
(** Raised inside an in-process worker selected for [Kill]; simulates
    SIGKILL for workers hosted in test threads and bench domains. *)

type action = Kill | Stall | Garbage | Dup

val action_name : action -> string

type spec = {
  seed : int;
  rate : float;  (** probability that a leased batch draws a fault *)
  actions : action list;  (** drawn uniformly from this list *)
  limit : int;  (** total faults allowed to fire; 0 disables injection *)
  stall_for : float;  (** seconds a [Stall] holds its breath *)
}

val parse : string -> (spec, string) result
(** Parse a CLI spec: comma-separated [seed=N], [rate=F],
    [actions=kill+stall+garbage+dup], [limit=N], [stall=F]. Omitted
    fields default to [seed=1, rate=0.25, actions=all four, limit=4,
    stall=1s]. *)

type t
(** Injector state: the spec plus the spent-budget counter. *)

val create : spec -> t

val draw : t -> key:string -> action option
(** [draw t ~key] decides deterministically whether the batch identified
    by [key] (worker name + lease id) faults, and with which action.
    Returns [None] once [limit] faults have fired. Thread-safe. *)

val stall_for : t -> float
(** The spec's [stall_for], for the worker applying a [Stall]. *)
