(** Crash-safe append-only record logs and atomic file replacement: the
    durability code under the journal, the result-store log, the job WAL
    and job results, written once.

    A log is a text file: a header line, then one record per line. Decoding
    is total, so a line that does not decode — the half-written tail of an
    interrupted append, or damage mid-file — is dropped and counted, never
    raised. Blank lines and lines starting with [#] are neither records nor
    damage. *)

type 'a codec = {
  header : string;  (** the first line of a new file, e.g. ["# craft-wal v1"] *)
  encode : 'a -> string;  (** one line, without its newline *)
  decode : string -> 'a option;  (** given the trimmed line; [None] if not a record *)
}

type damage = {
  records : int;  (** lines that decoded *)
  bad : int;  (** non-comment lines that did not *)
  trailing_bad : int;  (** bad lines after the last record: a crash's legitimate leftovers *)
}

val torn : damage -> bool
(** [bad > trailing_bad]: a bad line with records after it, which no crash
    leaves. *)

val replay : 'a codec -> path:string -> 'a list * damage
(** The file's records, oldest first, and its damage. A missing file is
    empty. Read-only. *)

type 'a t

val create : ?fsync_every:int -> 'a codec -> path:string -> 'a t * 'a list
(** Open [path] for appending, creating it and its parent directory, and
    return its records as {!replay} does. A last line without its newline
    (a crash mid-append) is cut when it does not decode and
    newline-terminated when it does, so the next record starts its own
    line; complete lines are never touched. A file that is empty after
    this gets the header.

    [fsync_every] (default 0) is the fsync policy: every [n]-th append is
    fsynced, or none for 0 (callers then {!sync} at their own durability
    points). The header and the repair follow the same policy. *)

val append : 'a t -> 'a -> unit
(** Write one record and flush it; fsync per the policy. Thread-safe. A
    closed log drops the record. *)

val sync : 'a t -> unit
(** Flush and fsync now. A no-op on a closed log. *)

val close : 'a t -> unit
(** {!sync}, then close. Idempotent. *)

val replace : path:string -> (out_channel -> unit) -> unit
(** Atomically replace [path] by what the writer emits: write
    [<path>.tmp], fsync it, rename it over [path], then fsync the
    directory (best effort). The file is always the old content or the
    new, never a prefix. Creates the parent directory; raises [Sys_error]
    when the file cannot be written. *)

val read : path:string -> string
(** The whole file, or [""] when it is missing. *)

val rewrite : 'a codec -> path:string -> 'a list -> unit
(** {!replace} [path] by the header and [records]: compaction. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)
