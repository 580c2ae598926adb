type job_spec = {
  bench : string;
  cls : string;
  shadow : bool;
  priority : int;
  eval_steps : int option;
  formats : string;
      (* precision-format menu as a comma-separated token string
         (Formats.menu_of_string syntax); "" means the single-only default *)
  strategy : string;
      (* search-strategy token (Strategy.of_string syntax); "" means the
         default bfs. Like formats, the codec carries it verbatim —
         validation happens at Scheduler.submit *)
}

type context = {
  bench : string;
  cls : string;
  eval_steps : int option;
  retries : int;
  inject : Faults.spec option;
  deadline : float option;
}

type job_state =
  | Queued
  | Running
  | Done
  | Cancelled
  | Failed of string
  | Quarantined of string

type job_status = {
  id : string;
  spec : job_spec;
  state : job_state;
  tested : int;
  store_hits : int;
  store_misses : int;
  wall : float;
}

type store_stats = { hits : int; misses : int; entries : int }

type server_stats = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  running : int;
  queued : int;
  store : store_stats;
  cache_hits : int;
  cache_misses : int;
  uptime : float;
}

type batch = { lease : string; context : context; items : (string * string) list }

type frame =
  | Submit of job_spec
  | Status of string option
  | Events of { job : string; from : int }
  | Result of string
  | Cancel of string
  | Stats
  | Worker_hello of {
      name : string;
      wire_version : int;
      reconnect : string option;
      capacity : int;
    }
  | Lease_request of { worker : string; capacity : int }
  | Result_push of { worker : string; lease : string; results : (string * string) list }
  | Heartbeat of { worker : string; lease : string option; completed : int }
  | Goodbye of string
  | Accepted of string
  | Status_reply of job_status list
  | Events_reply of { next : int; events : string list; final : bool }
  | Result_reply of { status : job_status; config_text : string; summary : string }
  | Cancel_reply of bool
  | Stats_reply of server_stats
  | Error_reply of string
  | Worker_welcome of {
      worker : string;
      wire_version : int;
      heartbeat_every : float;
      lease_ttl : float;
      already_done : string list;
    }
  | Lease_reply of batch option
  | Result_ack of { accepted : int; ignored : int }
  | Heartbeat_ack of { abandon : bool }
  | Goodbye_ack of { requeued : int }

let version = 2
let min_version = 1
let max_frame = 16 * 1024 * 1024

type error =
  | Need_more of int
  | Bad_version of int
  | Bad_tag of int
  | Oversized of int
  | Malformed of string

let error_to_string = function
  | Need_more n -> Printf.sprintf "incomplete frame (need >= %d more byte(s))" n
  | Bad_version v ->
      Printf.sprintf "unsupported protocol version %d (expected %d-%d)" v min_version version
  | Bad_tag t -> Printf.sprintf "unknown frame tag %d" t
  | Oversized n -> Printf.sprintf "frame payload %d exceeds the %d-byte limit" n max_frame
  | Malformed why -> "malformed frame: " ^ why

(* ------------------------------------------------------------- encoding *)

let tag_of = function
  | Submit _ -> 1
  | Status _ -> 2
  | Events _ -> 3
  | Result _ -> 4
  | Cancel _ -> 5
  | Stats -> 6
  | Worker_hello _ -> 7
  | Lease_request _ -> 8
  | Result_push _ -> 9
  | Heartbeat _ -> 10
  | Goodbye _ -> 11
  | Accepted _ -> 16
  | Status_reply _ -> 17
  | Events_reply _ -> 18
  | Result_reply _ -> 19
  | Cancel_reply _ -> 20
  | Stats_reply _ -> 21
  | Error_reply _ -> 22
  | Worker_welcome _ -> 23
  | Lease_reply _ -> 24
  | Result_ack _ -> 25
  | Heartbeat_ack _ -> 26
  | Goodbye_ack _ -> 27

(* Fleet frames are a protocol-2 extension; everything else still goes out
   as version 1, so a v1 peer keeps understanding the campaign frames and
   rejects only the worker traffic it could never serve anyway. *)
let version_of_tag t = if (t >= 7 && t <= 11) || t >= 23 then 2 else 1

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_i64 b v =
  let v = Int64.of_int v in
  for shift = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * shift)) 0xFFL)))
  done

let put_f64 b v =
  let bits = Int64.bits_of_float v in
  for shift = 7 downto 0 do
    Buffer.add_char b
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * shift)) 0xFFL)))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_opt_int b = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put_i64 b v

let put_opt_str b = function
  | None -> put_u8 b 0
  | Some s ->
      put_u8 b 1;
      put_str b s

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let put_spec b (s : job_spec) =
  put_str b s.bench;
  put_str b s.cls;
  put_bool b s.shadow;
  put_i64 b s.priority;
  put_opt_int b s.eval_steps;
  put_str b s.formats;
  put_str b s.strategy

let put_state b = function
  | Queued -> put_u8 b 0
  | Running -> put_u8 b 1
  | Done -> put_u8 b 2
  | Cancelled -> put_u8 b 3
  | Failed why ->
      put_u8 b 4;
      put_str b why
  | Quarantined why ->
      put_u8 b 5;
      put_str b why

let put_status b (st : job_status) =
  put_str b st.id;
  put_spec b st.spec;
  put_state b st.state;
  put_i64 b st.tested;
  put_i64 b st.store_hits;
  put_i64 b st.store_misses;
  put_f64 b st.wall

let put_server_stats b (s : server_stats) =
  put_i64 b s.submitted;
  put_i64 b s.completed;
  put_i64 b s.failed;
  put_i64 b s.cancelled;
  put_i64 b s.running;
  put_i64 b s.queued;
  put_i64 b s.store.hits;
  put_i64 b s.store.misses;
  put_i64 b s.store.entries;
  put_i64 b s.cache_hits;
  put_i64 b s.cache_misses;
  put_f64 b s.uptime

let put_pair b (k, v) =
  put_str b k;
  put_str b v

let put_batch b (bt : batch) =
  put_str b bt.lease;
  put_str b bt.context.bench;
  put_str b bt.context.cls;
  put_opt_int b bt.context.eval_steps;
  put_i64 b bt.context.retries;
  put_list b put_pair bt.items

let encode frame =
  let body = Buffer.create 64 in
  let tag = tag_of frame in
  put_u8 body (version_of_tag tag);
  put_u8 body tag;
  (match frame with
  | Submit spec -> put_spec body spec
  | Status job -> put_opt_str body job
  | Events { job; from } ->
      put_str body job;
      put_i64 body from
  | Result job | Cancel job | Accepted job | Goodbye job -> put_str body job
  | Stats -> ()
  | Worker_hello { name; wire_version; reconnect; capacity } ->
      put_str body name;
      put_i64 body wire_version;
      put_opt_str body reconnect;
      put_i64 body capacity
  | Lease_request { worker; capacity } ->
      put_str body worker;
      put_i64 body capacity
  | Result_push { worker; lease; results } ->
      put_str body worker;
      put_str body lease;
      put_list body put_pair results
  | Heartbeat { worker; lease; completed } ->
      put_str body worker;
      put_opt_str body lease;
      put_i64 body completed
  | Worker_welcome { worker; wire_version; heartbeat_every; lease_ttl; already_done } ->
      put_str body worker;
      put_i64 body wire_version;
      put_f64 body heartbeat_every;
      put_f64 body lease_ttl;
      put_list body put_str already_done
  | Lease_reply b -> (
      match b with
      | None -> put_u8 body 0
      | Some bt ->
          put_u8 body 1;
          put_batch body bt)
  | Result_ack { accepted; ignored } ->
      put_i64 body accepted;
      put_i64 body ignored
  | Heartbeat_ack { abandon } -> put_bool body abandon
  | Goodbye_ack { requeued } -> put_i64 body requeued
  | Status_reply sts -> put_list body put_status sts
  | Events_reply { next; events; final } ->
      put_i64 body next;
      put_list body put_str events;
      put_bool body final
  | Result_reply { status; config_text; summary } ->
      put_status body status;
      put_str body config_text;
      put_str body summary
  | Cancel_reply ok -> put_bool body ok
  | Stats_reply s -> put_server_stats body s
  | Error_reply msg -> put_str body msg);
  let n = Buffer.length body in
  let out = Buffer.create (n + 4) in
  put_u32 out n;
  Buffer.add_buffer out body;
  Buffer.to_bytes out

(* ------------------------------------------------------------- decoding *)

(* Internal parse failures use this exception; [decode] catches it (and
   anything else) at the boundary, so the public API is total. *)
exception Parse of string

type cursor = { buf : Bytes.t; stop : int; mutable at : int }

let need c n =
  if c.at + n > c.stop then
    raise (Parse (Printf.sprintf "payload truncated at byte %d (want %d more)" c.at n))

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.at) in
  c.at <- c.at + 1;
  v

let get_u32 c =
  need c 4;
  let b i = Char.code (Bytes.get c.buf (c.at + i)) in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.at <- c.at + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get c.buf (c.at + i))))
  done;
  c.at <- c.at + 8;
  Int64.to_int !v

let get_f64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get c.buf (c.at + i))))
  done;
  c.at <- c.at + 8;
  Int64.float_of_bits !v

let get_str c =
  let n = get_u32 c in
  if n > max_frame then raise (Parse (Printf.sprintf "string length %d too large" n));
  need c n;
  let s = Bytes.sub_string c.buf c.at n in
  c.at <- c.at + n;
  s

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> raise (Parse (Printf.sprintf "bad boolean byte %d" v))

let get_opt c get =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get c)
  | v -> raise (Parse (Printf.sprintf "bad option byte %d" v))

let get_list c get =
  let n = get_u32 c in
  (* every element takes at least one byte; reject absurd counts before
     allocating on their behalf *)
  if n > c.stop - c.at then raise (Parse (Printf.sprintf "list length %d too large" n));
  List.init n (fun _ -> get c)

let get_spec c =
  let bench = get_str c in
  let cls = get_str c in
  let shadow = get_bool c in
  let priority = get_i64 c in
  let eval_steps = get_opt c get_i64 in
  let formats = get_str c in
  let strategy = get_str c in
  { bench; cls; shadow; priority; eval_steps; formats; strategy }

let get_state c =
  match get_u8 c with
  | 0 -> Queued
  | 1 -> Running
  | 2 -> Done
  | 3 -> Cancelled
  | 4 -> Failed (get_str c)
  | 5 -> Quarantined (get_str c)
  | v -> raise (Parse (Printf.sprintf "bad job-state byte %d" v))

let get_status c =
  let id = get_str c in
  let spec = get_spec c in
  let state = get_state c in
  let tested = get_i64 c in
  let store_hits = get_i64 c in
  let store_misses = get_i64 c in
  let wall = get_f64 c in
  { id; spec; state; tested; store_hits; store_misses; wall }

let get_server_stats c =
  let submitted = get_i64 c in
  let completed = get_i64 c in
  let failed = get_i64 c in
  let cancelled = get_i64 c in
  let running = get_i64 c in
  let queued = get_i64 c in
  let hits = get_i64 c in
  let misses = get_i64 c in
  let entries = get_i64 c in
  let cache_hits = get_i64 c in
  let cache_misses = get_i64 c in
  let uptime = get_f64 c in
  {
    submitted;
    completed;
    failed;
    cancelled;
    running;
    queued;
    store = { hits; misses; entries };
    cache_hits;
    cache_misses;
    uptime;
  }

let get_pair c =
  let k = get_str c in
  let v = get_str c in
  (k, v)

let get_batch c =
  let lease = get_str c in
  let bench = get_str c in
  let cls = get_str c in
  let eval_steps = get_opt c get_i64 in
  let retries = get_i64 c in
  let items = get_list c get_pair in
  let context = { bench; cls; eval_steps; retries; inject = None; deadline = None } in
  { lease; context; items }

let parse_body c tag =
  match tag with
  | 1 -> Submit (get_spec c)
  | 2 -> Status (get_opt c get_str)
  | 3 ->
      let job = get_str c in
      let from = get_i64 c in
      Events { job; from }
  | 4 -> Result (get_str c)
  | 5 -> Cancel (get_str c)
  | 6 -> Stats
  | 7 ->
      let name = get_str c in
      let wire_version = get_i64 c in
      let reconnect = get_opt c get_str in
      let capacity = get_i64 c in
      Worker_hello { name; wire_version; reconnect; capacity }
  | 8 ->
      let worker = get_str c in
      let capacity = get_i64 c in
      Lease_request { worker; capacity }
  | 9 ->
      let worker = get_str c in
      let lease = get_str c in
      let results = get_list c get_pair in
      Result_push { worker; lease; results }
  | 10 ->
      let worker = get_str c in
      let lease = get_opt c get_str in
      let completed = get_i64 c in
      Heartbeat { worker; lease; completed }
  | 11 -> Goodbye (get_str c)
  | 16 -> Accepted (get_str c)
  | 17 -> Status_reply (get_list c get_status)
  | 18 ->
      let next = get_i64 c in
      let events = get_list c get_str in
      let final = get_bool c in
      Events_reply { next; events; final }
  | 19 ->
      let status = get_status c in
      let config_text = get_str c in
      let summary = get_str c in
      Result_reply { status; config_text; summary }
  | 20 -> Cancel_reply (get_bool c)
  | 21 -> Stats_reply (get_server_stats c)
  | 22 -> Error_reply (get_str c)
  | 23 ->
      let worker = get_str c in
      let wire_version = get_i64 c in
      let heartbeat_every = get_f64 c in
      let lease_ttl = get_f64 c in
      let already_done = get_list c get_str in
      Worker_welcome { worker; wire_version; heartbeat_every; lease_ttl; already_done }
  | 24 -> Lease_reply (get_opt c get_batch)
  | 25 ->
      let accepted = get_i64 c in
      let ignored = get_i64 c in
      Result_ack { accepted; ignored }
  | 26 -> Heartbeat_ack { abandon = get_bool c }
  | 27 -> Goodbye_ack { requeued = get_i64 c }
  | _ -> assert false (* tag already validated *)

(* A tag is only known at the protocol version that introduced it: a v1
   frame carrying a fleet tag is hostile (or corrupt), not future-proof. *)
let known_tag ~version:v t =
  (t >= 1 && t <= 6) || (t >= 16 && t <= 22)
  || (v >= 2 && ((t >= 7 && t <= 11) || (t >= 23 && t <= 27)))

let decode buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Error (Malformed "window outside the buffer")
  else if len < 4 then Error (Need_more (4 - len))
  else begin
    let b i = Char.code (Bytes.get buf (pos + i)) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then Error (Oversized n)
    else if n < 2 then Error (Malformed "payload too short for version and tag")
    else if len < 4 + n then Error (Need_more (4 + n - len))
    else begin
      let c = { buf; stop = pos + 4 + n; at = pos + 4 } in
      match
        let v = get_u8 c in
        if v < min_version || v > version then Error (Bad_version v)
        else begin
          let tag = get_u8 c in
          if not (known_tag ~version:v tag) then Error (Bad_tag tag)
          else begin
            let frame = parse_body c tag in
            if c.at <> c.stop then
              Error (Malformed (Printf.sprintf "%d trailing byte(s) in frame" (c.stop - c.at)))
            else Ok (frame, 4 + n)
          end
        end
      with
      | res -> res
      | exception Parse why -> Error (Malformed why)
      | exception _ -> Error (Malformed "unparseable payload")
    end
  end

(* --------------------------------------------------------------- fd I/O *)

let write_all fd buf =
  let n = Bytes.length buf in
  let sent = ref 0 in
  while !sent < n do
    let k = Unix.write fd buf !sent (n - !sent) in
    if k = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    sent := !sent + k
  done

let write_frame fd frame = write_all fd (encode frame)

let read_exact fd buf off n =
  let got = ref 0 in
  (try
     while !got < n do
       let k = Unix.read fd buf (off + !got) (n - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  !got

let read_frame fd =
  let head = Bytes.create 4 in
  match read_exact fd head 0 4 with
  | 0 -> Error (Need_more 4)
  | k when k < 4 -> Error (Malformed "EOF inside the length prefix")
  | _ -> (
      let b i = Char.code (Bytes.get head i) in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n > max_frame then Error (Oversized n)
      else begin
        let buf = Bytes.create (4 + n) in
        Bytes.blit head 0 buf 0 4;
        let got = read_exact fd buf 4 n in
        if got < n then Error (Malformed "EOF inside the payload")
        else
          match decode buf ~pos:0 ~len:(4 + n) with
          | Ok (frame, _) -> Ok frame
          | Error _ as e -> e
      end)
