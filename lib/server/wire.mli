(** The campaign-server wire protocol.

    One protocol frame is a 4-byte big-endian payload length followed by
    the payload: one version byte ({!version}), one tag byte naming the
    frame constructor, and the constructor's fields (strings are 4-byte
    length-prefixed bytes, integers are 8-byte big-endian two's
    complement, floats travel as their IEEE-754 bit patterns — every
    value round-trips exactly).

    Decoding is {e total}: a hostile or truncated byte stream can never
    raise, only return a typed {!error}. [Need_more] is the streaming
    signal ("keep reading"); everything else is fatal for the connection.
    A length prefix above the 16 MiB frame bound is rejected {e before}
    any allocation, so a malicious 4-GiB length cannot balloon the server. *)

(** {1 Protocol data} *)

type job_spec = {
  bench : string;  (** benchmark name, e.g. ["cg"] *)
  cls : string;  (** problem class, e.g. ["W"] *)
  shadow : bool;
      (** run the shadow-value analysis first and let it seed, reorder and
          prune the campaign ({!Campaign.run}) *)
  priority : int;  (** scheduling priority; higher runs first *)
  eval_steps : int option;  (** per-evaluation VM step budget override *)
  formats : string;
      (** precision-format menu, comma-separated friendly names or
          [e<E>m<M>] tokens ({!Formats.menu_of_string} syntax); [""] runs
          the single-only pre-lattice search. Validated at submission. *)
  strategy : string;
      (** search-strategy token ({!Strategy.of_string} syntax: [bfs],
          [split], [delta], [anneal[:<seed>]]); [""] runs the default
          [bfs]. The codec carries the token verbatim — hostile bytes
          travel intact and are refused with a typed error at
          submission. *)
}

type context = {
  bench : string;  (** benchmark to load, e.g. ["cg"] *)
  cls : string;  (** problem class, e.g. ["W"] *)
  eval_steps : int option;  (** per-evaluation VM step budget override *)
  retries : int;  (** harness retry budget per evaluation *)
  inject : Faults.spec option;  (** inline [--inject] only: never on the wire *)
  deadline : float option;
      (** inline [--deadline] only: the pool's per-evaluation wall-clock
          deadline in seconds, which turns a slow evaluation into a
          timeout; never on the wire *)
}
(** What a verdict depends on besides the configuration: {!Campaign.target}
    builds the evaluator from it (and [craft search] its pool, from
    [deadline]), {!Store.context} the key, and a {!batch} carries it to a
    worker, so a new knob here reaches all three. *)

type job_state =
  | Queued
  | Running
  | Done
  | Cancelled  (** stopped at a wave boundary by a cancel request *)
  | Failed of string  (** the driver could not run the campaign *)
  | Quarantined of string
      (** the campaign's search loop died [quarantine_after] times and
          the job was isolated instead of requeued again *)

type job_status = {
  id : string;
  spec : job_spec;
  state : job_state;
  tested : int;  (** configurations evaluated so far *)
  store_hits : int;  (** evaluations served from the result store *)
  store_misses : int;  (** evaluations this job computed itself *)
  wall : float;  (** seconds spent running (so far, or total) *)
}

type store_stats = { hits : int; misses : int; entries : int }

type server_stats = {
  submitted : int;
  completed : int;
  failed : int;  (** failed + quarantined *)
  cancelled : int;
  running : int;
  queued : int;
  store : store_stats;  (** cross-campaign result store counters *)
  cache_hits : int;  (** shared compiled-code cache counters *)
  cache_misses : int;
  uptime : float;
}

type batch = {
  lease : string;  (** lease id; every result push must echo it *)
  context : context;
      (** encoded as [bench], [cls], [eval_steps], [retries]; decoded with
          no [inject] and no [deadline] *)
  items : (string * string) list;
      (** (store key, config exchange text) per candidate; the key
          doubles as the item key in {!frame.Result_push} *)
}
(** One leased unit of evaluation work: candidates of one context, so a
    worker builds one target and harness per context. *)

type frame =
  (* client -> server *)
  | Submit of job_spec
  | Status of string option  (** one job, or [None] for all *)
  | Events of { job : string; from : int }
      (** fetch the job's event lines starting at cursor [from] *)
  | Result of string
  | Cancel of string
  | Stats
  (* worker -> server (protocol v2) *)
  | Worker_hello of {
      name : string;  (** stable worker name (host/pid); quarantine key *)
      wire_version : int;  (** highest protocol version the worker speaks *)
      reconnect : string option;
          (** previously assigned worker id — a rejoin after a dropped
              connection, asking for result-store delta sync *)
      capacity : int;  (** max batch items the worker wants per lease *)
    }
  | Lease_request of { worker : string; capacity : int }
  | Result_push of { worker : string; lease : string; results : (string * string) list }
      (** streamed verdicts for leased items: (item key,
          {!Verdict.verdict_to_string} serialization). Safe to resend —
          the daemon acknowledges duplicates instead of double-counting. *)
  | Heartbeat of { worker : string; lease : string option; completed : int }
  | Goodbye of string  (** clean departure; payload is the worker id *)
  (* server -> client *)
  | Accepted of string  (** submit acknowledged; payload is the job id *)
  | Status_reply of job_status list
  | Events_reply of { next : int; events : string list; final : bool }
      (** [final] means the job is terminal {e and} [events] drains the
          log: the cursor [next] will never grow again *)
  | Result_reply of { status : job_status; config_text : string; summary : string }
  | Cancel_reply of bool  (** whether the job was actually cancelled *)
  | Stats_reply of server_stats
  | Error_reply of string
  (* server -> worker (protocol v2) *)
  | Worker_welcome of {
      worker : string;  (** assigned (or re-recognised) worker id *)
      wire_version : int;  (** negotiated protocol version *)
      heartbeat_every : float;  (** seconds between expected heartbeats *)
      lease_ttl : float;  (** seconds before an unfinished lease is requeued *)
      already_done : string list;
          (** delta sync on rejoin: item keys from the worker's
              outstanding lease that resolved while it was away — the
              worker must drop them instead of re-evaluating *)
    }
  | Lease_reply of batch option  (** [None]: no work right now, poll again *)
  | Result_ack of { accepted : int; ignored : int }
      (** [ignored] counts duplicates, stale-lease deliveries and
          unparseable verdicts — never an error, never double-recorded *)
  | Heartbeat_ack of { abandon : bool }
      (** [abandon] orders the worker to drop its current lease (it was
          requeued, or the worker is quarantined) *)
  | Goodbye_ack of { requeued : int }  (** unfinished items requeued *)

(** {1 Codec} *)

val version : int
(** Current protocol version byte (2). Campaign frames still travel as
    version 1, the oldest version {!decode} accepts; only the fleet frames
    require 2, so v1 peers interoperate on everything they understand. *)

type error =
  | Need_more of int
      (** the buffer holds only a frame prefix; at least this many more
          bytes are needed (a lower bound, not a promise) *)
  | Bad_version of int  (** version byte of a complete, rejected frame *)
  | Bad_tag of int
  | Oversized of int  (** announced payload length above 16 MiB *)
  | Malformed of string  (** structurally invalid payload *)

val error_to_string : error -> string

val encode : frame -> Bytes.t
(** Complete frame, length prefix included. *)

val decode : Bytes.t -> pos:int -> len:int -> (frame * int, error) result
(** [decode buf ~pos ~len] parses one frame from [buf.[pos .. pos+len-1]],
    returning the frame and the number of bytes consumed. Total: any
    hostile payload is a typed [Error], never an exception. Trailing
    garbage inside a frame's announced length is [Malformed]. *)

val write_frame : Unix.file_descr -> frame -> unit
(** Blocking full write of [encode frame]. Raises [Unix.Unix_error] on a
    dead peer (callers treat the connection as closed). *)

val read_frame : Unix.file_descr -> (frame, error) result
(** Blocking read of exactly one frame. A clean EOF before any byte is
    [Error (Need_more 4)]; EOF mid-frame is [Malformed]. *)
