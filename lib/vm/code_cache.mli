(** Shared cache of compiled code, keyed by [(function, label, witness)].

    The witness is the caller's full description of everything the compiled
    value depends on — for {!Compile} that is the block's instruction array
    (precisions included), terminator, run mode and heap bounds, i.e. the
    block-local slice of the precision configuration. Lookups compare the
    witness structurally rather than hashing it to a digest: a block is
    reused {e only} when its slice is identical, so a cache hit can never
    splice wrongly-specialized code into a run.

    The cache is domain-safe (one internal mutex); compiled values are
    immutable closures and may be executed concurrently by many workers. *)

type ('w, 'v) t

type stats = { hits : int; misses : int; entries : int }

val create : unit -> ('w, 'v) t

val find_or_add :
  ('w, 'v) t -> fname:string -> label:int -> witness:'w -> (unit -> 'v) -> 'v
(** [find_or_add t ~fname ~label ~witness compile] returns the cached value
    for this (function, label) whose witness equals [witness], compiling
    and memoizing it on a miss. [compile] runs under the cache lock, so
    concurrent linkers never duplicate work for the same block. *)

val stats : ('w, 'v) t -> stats

val hit_rate : stats -> float
(** Hits over total lookups, in [0,1]; 0 when no lookups happened. *)

val report : ('w, 'v) t -> string
(** One-line human-readable summary. *)
