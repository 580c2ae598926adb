(** Pluggable search strategies: the tokens that name them and the wave
    machines behind them.

    The paper's search is a fixed breadth-first descent over the precision
    hierarchy; §2.5 leaves other search heuristics as future work. Every
    strategy here is a {!Bfs.MACHINE} — a wave state machine that
    {e proposes} the next wave of configurations and {e consumes} its
    verdicts — run by the one campaign driver, {!Bfs.drive}, which owns
    pool evaluation and containment, stop polling and the finish. [bfs] is {!Bfs.breadth_first}, so [run Bfs] {e is}
    {!Bfs.search}. [split], [delta] and [anneal] search the flat candidate
    set one instruction at a time and share the {!Bfs.Instructions}
    finish (union, optional greedy composition, a greedy {e top-up} sweep
    and the in-place lattice descent), so every one of them ends maximal
    over the same move set and the "no worse than BFS" bake-off assertion
    is an apples-to-apples comparison. *)

(** {1 Strategy tokens} *)

type token =
  | Bfs  (** the paper's breadth-first structural descent, verbatim *)
  | Split  (** count-weighted binary splitting over the flat candidate set *)
  | Delta  (** Precimonious-style delta-debugging with shrinking partitions *)
  | Anneal of int
      (** shadow-seeded greedy descent with bounded random restarts;
          deterministic from the explicit seed *)

val default_seed : int
(** Seed [anneal] uses when none is given (the token ["anneal"]). *)

val of_string : string -> (token, string) result
(** Parse a strategy token: [""] and ["bfs"] are {!token.Bfs}; ["split"],
    ["delta"], ["anneal"], ["anneal:<seed>"] as expected. Anything else is
    a descriptive [Error] — the typed validation [Campaign.of_spec]
    applies to every campaign's strategy token, inline or served. *)

val to_string : token -> string
(** Inverse of {!of_string} ([Anneal default_seed] prints ["anneal"]). *)

(** {1 Running} *)

val run : ?options:Bfs.options -> token -> Bfs.Target.t -> Bfs.result
(** Run a strategy campaign: {!Bfs.drive} with the token's machine.
    [run Bfs] is [Bfs.search ~options]. The flat machines are
    count-weighted binary splitting ([split]: one group holding the whole
    universe, a failing group splits into halves of equal dynamic weight,
    heaviest groups first, [workers] groups per wave), Precimonious-style
    delta-debugging ([delta]: complements of ever-finer partitions proposed
    as one wave, then grow-back coldest first) and shadow-seeded greedy
    descent with two seeded random restarts ([anneal], strictly sequential,
    so bit-deterministic on every evaluation path). Raises only
    {!Bfs.Aborted}, and only when an evaluator raises it in a campaign
    without a pool: under a pool it is that item's [Crashed] verdict after
    one run, and the campaign completes. *)
