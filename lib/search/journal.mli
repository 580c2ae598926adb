(** Append-only evaluation journal: crash-safe checkpoint/resume for the
    autosearch.

    Every classified verdict is appended as one record of a
    {!Durable_log}, flushed before the verdict is acted on, so an
    interrupted NAS-scale campaign (SIGKILL, OOM) loses at most the record
    being written. Re-opening with [resume:true] replays the journal into
    an in-memory memo table; evaluations whose configuration digest is
    already journaled are served from the memo without running the
    program, and the search continues where it stopped instead of
    restarting.

    Record format (consistent with the paper's Fig. 3 configuration tokens
    in the summary field):

    {v
    # craft-journal v1 <program-name-or-blank>
    <digest16> <verdict-token> <tests-so-far> | <Fig.3-style config summary>
    v}

    e.g. [a91f...c2 trap:0x00001f:injected%20fault 17 | s MODULE: cg].

    Keys are {!Config.digest}s of {e effective} flags, so structurally
    different configurations with identical per-instruction decisions share
    one journal entry. *)

type record = { digest : string; verdict : Harness.verdict; seq : int; summary : string }
(** One line: the summary is narration, never read back into the memo. *)

val codec : record Durable_log.codec

type t

val create : ?resume:bool -> path:string -> Ir.program -> t
(** Open [path] for appending ({!Durable_log.create}). With
    [resume = true] (default [false]) existing records are replayed into
    the memo first; without it the file is replaced by an empty journal
    and the campaign starts clean. Appends are flushed, never fsynced on their own: callers
    {!sync} at wave boundaries. *)

val sync : t -> unit
(** Flush and [fsync(2)] the journal now: the per-wave durability point. *)

val close : t -> unit
(** Flush, fsync and close. Idempotent. *)

val path : t -> string

val entries : t -> int
(** Records in the memo (replayed + freshly written). *)

val replayed : t -> int
(** Records loaded when the journal was opened with [resume]. *)

val hits : t -> int
(** Lookups served from the memo (evaluations skipped). *)

val fresh : t -> int
(** Verdicts actually evaluated and appended this session. *)

val lookup : t -> Config.t -> Harness.verdict option

val record : t -> Config.t -> Harness.verdict -> unit
(** Memoize and append-flush one verdict. A digest already present is not
    re-appended. *)

val wrap_target : t -> harness:Harness.t -> Bfs.Target.t -> Bfs.Target.t
(** The full resilient evaluation stack as a drop-in target: [eval]
    consults the journal, falls back to {!Harness.eval} (containment +
    retries), records the verdict, and folds to the search's boolean
    view. *)

val scan : path:string -> (string * Harness.verdict) list
(** The journal's [(digest, verdict)] pairs, oldest first, read-only: the
    records carry their digests, so inspection needs no program. *)

type verify_report = {
  records : int;  (** well-formed records *)
  distinct : int;  (** distinct configuration digests *)
  duplicates : (string * int) list;
      (** digests appearing more than once, with their occurrence counts —
          a healthy journal has none ({!record} refuses duplicates) *)
  verdicts : (string * int) list;  (** verdict label -> record count *)
  bad : int;  (** as in {!Durable_log.damage} *)
  trailing_bad : int;
  torn : bool;  (** {!Durable_log.torn}; [craft journal --verify] exits 1 on it *)
}

val verify : path:string -> (verify_report, string) result
(** Integrity scan for [craft journal FILE --verify]. [Error] only when
    the file cannot be read at all; structural damage is reported in the
    record, not raised. *)
