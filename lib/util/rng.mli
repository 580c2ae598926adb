(** Deterministic, splittable pseudo-random number generator.

    All data sets in the reproduction are generated from seeded instances of
    this generator so that every experiment is reproducible bit-for-bit. The
    core is xoshiro256**, seeded through splitmix64. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] returns an independent generator derived from [t]'s current
    state, advancing [t]. *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)], 53-bit resolution. *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
