(** Aggregation of {!Shadow_tracer} accumulators up the configuration
    hierarchy (instruction → block → function → module): an annotated
    tree, a predicted configuration, and a ranked candidate list — the
    inputs the shadow-guided search mode ({!Bfs.shadow}) consumes. *)

type t

val default_threshold : float
(** [1e-8]: strict enough that the predicted configuration's seed
    evaluation passes on the NAS kernels (their verification tolerances
    are 1e-9..1e-12); an over-eager prediction costs the search one wasted
    evaluation, an under-eager one only shrinks the head start. *)

val make : ?threshold:float -> ?base:Config.t -> Ir.program -> Shadow_tracer.t -> t
(** Build a report over a finished trace. [base] is the search's base
    configuration (hint sets): candidates it flags [Ignore] are excluded
    from prediction, exactly as the search excludes them from flipping. *)

val max_rel_at : t -> int -> float
(** Worst observed divergence of one instruction address (0 if never
    executed or out of range). *)

val flips_at : t -> int -> int

val predicted_nodes : t -> Static.node list
(** Maximal structures whose every live candidate stays below the
    threshold with no flips anywhere inside, in tree order: the predicted
    configuration, which the search {e verifies} with a real evaluation
    before trusting it. *)

val ranked : t -> (Static.node * float) list
(** Every structure with live candidates paired with its predicted
    divergence (infinity when flips were observed), most tolerant first. *)

val render : t -> string
(** The annotated tree ([craft shadow] output): per-structure divergence,
    cancellation and flip counts, with predicted-single structures marked
    ['s'] and collapsed. *)

val to_json : t -> string
(** Machine-readable export of the same data. *)
