(** The in-place replacement encoding (paper Fig. 5).

    A "replaced" double is a 64-bit pattern whose high 32 bits are the
    sentinel [0x7FF4DEAD] and whose low 32 bits are the binary32 bits of the
    value. [0x7FF4] makes the pattern a NaN, so a replaced value consumed by
    an un-instrumented operation propagates NaN instead of silently producing
    a mis-rounded result; [0xDEAD] is easy to spot in a hex dump.

    Replaced values travel through registers and memory as ordinary 64-bit
    payloads; only the instrumented snippets interpret them. *)

val flag : int64
(** [0x7FF4DEAD]. *)

val flag_shifted : int64
(** [0x7FF4DEAD00000000]. *)

val is_replaced : float -> bool
(** True iff the high 32 bits of the value's pattern equal {!flag}. *)

val encode : float -> float
(** [encode x32] packs a value already representable in binary32 into the
    replaced encoding. The argument is rounded to binary32 first, so
    [encode x = downcast x] for all [x]; the distinct name documents intent. *)

val downcast : float -> float
(** cvtsd2ss + flag insertion: round the double to binary32 and store it in
    the replaced encoding (Fig. 6 template's conversion path). *)

val upcast : float -> float
(** Extract the binary32 value of a replaced double and widen it (exact).
    Raises [Invalid_argument] if the value is not replaced. *)

val coerce : float -> float
(** [coerce v] is [upcast v] when [v] is replaced and [v] otherwise — the
    operand-check prologue of a double-precision snippet. *)

val coerce32 : float -> float
(** [coerce32 v] is the binary32 value of [v]: extracted when replaced,
    rounded (with downcast semantics) otherwise — the operand-check prologue
    of a single-precision snippet. *)

val pp : Format.formatter -> float -> unit
(** Hex-dump style printer: shows the 64-bit pattern and, for replaced
    values, the decoded single-precision value. *)
