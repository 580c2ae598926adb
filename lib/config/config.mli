(** Precision configurations (paper §2.1), generalized to a format lattice.

    A configuration maps each double-precision candidate instruction to
    [Single], [Double], [Ignore], or a reduced lattice format [Fmt f]
    (half, bfloat16, tf32-style customs — see {!Formats}). Decisions can
    also be attached to aggregate structures — modules, functions, basic
    blocks — and an aggregate's flag {e overrides} any flags of its
    children (the paper's semantics: "If an aggregate entry has a flag in
    the first column, it overrides any flags specified for its children").

    [Single] and [Double] stay distinct constructors rather than becoming
    [Fmt Formats.single] / [Fmt Formats.double]: their exchange-text
    encoding ([s]/[d]), digests and execution fast path are byte- and
    bit-identical to the pre-lattice system. {!of_format} normalizes.

    Configurations are immutable; the search manipulates thousands of them,
    and immutability makes the domain-parallel evaluator safe by
    construction. *)

type flag = Single | Double | Ignore | Fmt of Formats.t

val of_format : Formats.t -> flag
(** Normalize: binary32 maps to [Single], binary64 to [Double], anything
    else to [Fmt]. *)

type t

val empty : t
(** Everything defaults to [Double]. *)

val set_module : t -> string -> flag -> t
val set_func : t -> string -> flag -> t
(** Functions are addressed by name (unique within a program). *)

val set_block : t -> int -> flag -> t
(** Blocks are addressed by label. *)

val set_insn : t -> int -> flag -> t
(** Instructions are addressed by address. *)

val set_node : t -> Static.node -> flag -> t
(** Attach a flag to a structure-tree node at the node's own level. *)

val union : t -> t -> t
(** Merge two configurations; on conflicting entries the left one wins.
    Used to compose the "final" configuration from individually-passing
    replacements. *)

val effective : t -> Static.insn_info -> flag
(** Resolve the flag of one candidate instruction: module flag if present,
    else function, else block, else the instruction's own flag, else
    [Double]. *)

val is_empty : t -> bool

val flag_char : flag -> char
(** ['s'], ['d'], ['i']; lattice formats collapse to ['e'] (display only —
    use {!flag_token} wherever the flag must round-trip). *)

val flag_token : flag -> string
(** Canonical exchange token: ["s"], ["d"], ["i"], or the format's
    ["e<E>m<M>"] token. *)

val flag_of_token : string -> flag option
(** Inverse of {!flag_token}; also accepts friendly format names
    ([bf16], [f16], [tf32], ...), normalized through {!of_format}. *)

(** {1 The exchange file format (paper Fig. 3)} *)

val print : Ir.program -> t -> string
(** Render in the plain-text exchange format: the program's structure
    listing with per-line flag characters in the first column. *)

val parse : Ir.program -> string -> (t, string) result
(** Parse the exchange format back. Structures are matched to the program
    by module name, function name, block label and instruction address;
    unknown structures are an error. [parse p (print p c)] observationally
    equals [c] (same effective flag on every candidate). *)

val digest : Ir.program -> t -> string
(** Stable 16-hex-digit fingerprint of the configuration's {e effective}
    per-candidate flags. Two configurations with the same observable
    behaviour under [effective] share a digest, which is the last
    component of every result-store key. *)

val summarize : t -> string
(** One-line rendering of the explicitly flagged structures in the Fig. 3
    token style, e.g. ["s MODULE: cg; s INSN: 0x00001f"]; ["(all-double)"]
    for the empty configuration. *)

val stats : Ir.program -> t -> int * int * int
(** [(replaced, doubles, ignores)] over the program's candidate
    instructions, using effective flags; lattice formats count under the
    first component. *)

val bits_saved : Ir.program -> t -> int
(** Total bits shaved off binary64 slots across all candidates: 32 per
    [Single], [64 - width] per [Fmt], 0 per [Double]/[Ignore]. The bench's
    primary lattice metric. *)

val format_census : Ir.program -> t -> (string * int) list
(** Candidates per effective format, by friendly name (plus ["ignore"]),
    sorted by name. *)
