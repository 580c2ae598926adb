(** Parameterized floating-point formats: an (exponent bits, mantissa bits)
    pair with round-to-nearest-even emulation on doubles.

    A format value is represented as the nearest double (every format this
    module can build embeds exactly in binary64, and every sub-single format
    embeds exactly in binary32, which is what the 0x7FF4DEAD sentinel
    encoding requires). [round] takes any double to the nearest value
    representable in the format, so "computing in the format" means: compute
    the operation in binary64 on in-format operands, then [round] the result.
    For [+ - * / sqrt] this is bit-identical to native arithmetic in the
    format whenever [52 >= 2 * (mbits + 1) + 2] — the classical
    double-rounding theorem — which holds for every format accepted by
    [make] (mbits <= 23).

    Rounding semantics (documented contract, exercised by the test suite):
    - round-to-nearest, ties to even, implemented by bit manipulation on the
      Int64 payload of the double;
    - gradual underflow: results below the smallest normal are rounded onto
      the format's subnormal grid (no abrupt flush-to-zero), and values
      strictly below half the smallest subnormal round to a signed zero;
      exactly half rounds to zero too (ties-to-even: zero is even);
    - overflow: a rounded result whose exponent exceeds the format maximum
      becomes a signed infinity (IEEE round-then-overflow semantics);
    - NaNs stay NaN: the payload is truncated to the format's mantissa width
      and the quiet bit is forced, the sign is preserved;
    - signed zeros and infinities pass through unchanged. *)

type t = private { ebits : int; mbits : int }

val make : ebits:int -> mbits:int -> t
(** [make ~ebits ~mbits] builds a format with [2 <= ebits <= 8] and
    [1 <= mbits <= 23] — the range whose values embed exactly in binary32,
    as the sentinel encoding requires. The one exception, binary64 itself,
    is available as [double]. @raise Invalid_argument outside the range. *)

val half : t
(** IEEE binary16: e5m10. *)

val bfloat16 : t
(** bfloat16: e8m7. *)

val tf32 : t
(** NVIDIA TF32-style: e8m10 (binary32 range, binary16 precision). *)

val single : t
(** IEEE binary32: e8m23. [round single] delegates to {!F32.round}, so it is
    bit-identical to the pre-lattice single-precision pipeline. *)

val double : t
(** IEEE binary64: e11m52. [round double] is the identity. *)

val round : t -> float -> float
(** Round a double to the nearest value of the format (see module doc). *)

val is_exact : t -> float -> bool
(** [is_exact t x] iff [x] survives [round t] bit-identically. *)

val width : t -> int
(** Storage width in bits: [1 + ebits + mbits]. *)

val bits_saved : t -> int
(** [64 - width t]: bits of a binary64 slot this format leaves unused. *)

val emax : t -> int
(** Largest unbiased exponent: [2^(ebits-1) - 1]. *)

val emin : t -> int
(** Smallest normal unbiased exponent: [1 - emax]. *)

val max_value : t -> float
(** Largest finite value: [(2 - 2^-mbits) * 2^emax]. *)

val min_normal : t -> float
(** Smallest positive normal: [2^emin] with [emin = 2 - 2^(ebits-1)]. *)

val min_subnormal : t -> float
(** Smallest positive subnormal: [2^(emin - mbits)]. *)

val equal : t -> t -> bool

val compare_cost : t -> t -> int
(** Ascending lattice order: by [width], then [mbits], then [ebits]. The
    lattice descends by trying cheaper formats (smaller [compare_cost])
    before more expensive ones. *)

val token : t -> string
(** Canonical machine token, ["e<E>m<M>"] (e.g. ["e5m10"]). Stable: used in
    config exchange texts, digests and checkpoints. *)

val name : t -> string
(** Friendly name when the format is a named instance (["f16"], ["bf16"],
    ["tf32"], ["single"], ["double"]), else the [token]. *)

val of_string : string -> t option
(** Accepts friendly names ([f16|half|bf16|bfloat16|tf32|single|f32|double|f64])
    and ["e<E>m<M>"] tokens, case-insensitively. [None] on anything else or
    out-of-range (e,m). *)

val menu_of_string : string -> (t list, string) result
(** Parse a comma-separated menu (e.g. ["bf16,f16,single,double"]) into a
    deduplicated, cost-ascending lattice. Errors name the offending token. *)

val menu_to_string : t list -> string
(** Canonical comma-joined friendly names, cost-ascending. *)
