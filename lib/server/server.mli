(** The campaign daemon's listener: accepts connections on a Unix-domain
    socket (default) or a TCP endpoint, and answers {!Wire} frames by
    dispatching them to one {!Scheduler}.

    Each accepted connection gets its own handler thread running a strict
    request/reply loop — clients poll ([Events] cursors) rather than being
    pushed to, which keeps a handler a pure function of one frame. A
    malformed or wrong-version frame earns the client a final
    [Error_reply] and a closed connection; a clean client EOF just ends
    the handler. Handler crashes are contained per-connection: the daemon
    never dies because one client misbehaved.

    {!stop} is graceful by construction: the listener closes first (no
    new clients), live connections are shut down, handler threads are
    joined — then the caller decides what to do with the scheduler
    (usually {!Scheduler.shutdown}, finishing queued work; that ordering
    is what [craft serve]'s SIGTERM handler implements). *)

type addr =
  | Unix_path of string  (** socket file; created on start, unlinked on stop *)
  | Tcp of string * int  (** host, port *)

val addr_to_string : addr -> string

val addr_of_string : string -> (addr, string) result
(** ["host:port"] becomes [Tcp]; anything else is a socket path. *)

type t

val start :
  ?log:(string -> unit) ->
  ?fleet:Fleet.t ->
  ?max_conns:int ->
  scheduler:Scheduler.t ->
  addr ->
  t
(** Bind, listen (backlog 16) and staff the accept thread. An existing
    socket file at a [Unix_path] is replaced (stale files from a killed
    daemon would otherwise wedge restarts). Raises [Unix.Unix_error] when
    the address cannot be bound.

    With [fleet], worker frames (hello / lease / result / heartbeat /
    goodbye) are routed to the {!Fleet} dispatcher, whose liveness clock
    alone decides when a worker is gone; without, workers are refused
    with a typed [Error_reply]. [max_conns] (default 64) is a soft descriptor
    limit: connections beyond it are shed with a typed [Error_reply]
    before accept(2) can run the process into [EMFILE]; the accept loop
    additionally survives [EINTR] and backs off on a genuine
    [EMFILE]/[ENFILE] instead of crashing the listener thread. *)

val sockaddr_of : addr -> Unix.sockaddr
(** Resolve to a connectable socket address (clients and workers dial
    this). Raises [Unix.Unix_error] when a TCP host cannot be resolved. *)

val addr : t -> addr
(** The bound address — with [Tcp (host, 0)] the kernel-chosen port is
    filled in. *)

val stop : t -> unit
(** Close the listener, disconnect clients, join every handler thread,
    unlink a [Unix_path] socket file. Idempotent. Does {e not} touch the
    scheduler. *)
