type 'a codec = { header : string; encode : 'a -> string; decode : string -> 'a option }
type damage = { records : int; bad : int; trailing_bad : int }

let torn d = d.bad > d.trailing_bad

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync oc = try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- replay *)

type 'a line = Comment | Record of 'a | Bad

let classify codec line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Comment
  else match codec.decode line with Some r -> Record r | None -> Bad

(* Line by line rather than through a list of all lines: a long log's
   lines then die young instead of being promoted together. *)
let decode_all codec text =
  let records = ref [] and n = ref 0 and bad = ref 0 and trailing = ref 0 in
  let len = String.length text in
  let rec go start =
    if start <= len then begin
      let stop = Option.value ~default:len (String.index_from_opt text start '\n') in
      (match classify codec (String.sub text start (stop - start)) with
      | Comment -> ()
      | Record r ->
          records := r :: !records;
          incr n;
          trailing := 0
      | Bad ->
          incr bad;
          incr trailing);
      go (stop + 1)
    end
  in
  go 0;
  (List.rev !records, { records = !n; bad = !bad; trailing_bad = !trailing })

let read ~path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""

let replay codec ~path = decode_all codec (read ~path)

(* ---------------------------------------------------------------- append *)

type 'a t = {
  codec : 'a codec;
  oc : out_channel;
  fsync_every : int;
  lock : Mutex.t;
  mutable unsynced : int;
  mutable closed : bool;
}

(* Lock held. *)
let sync_now t =
  flush t.oc;
  fsync t.oc;
  t.unsynced <- 0

let create ?(fsync_every = 0) codec ~path =
  mkdir_p (Filename.dirname path);
  let text = read ~path in
  (* everything after the last newline is an interrupted append: replay
     keeps it if it decodes, and so does the file, newline-terminated *)
  let complete = match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0 in
  let tail = String.sub text complete (String.length text - complete) in
  let whole = match classify codec tail with Record _ -> true | _ -> false in
  if tail <> "" && not whole then Unix.truncate path complete;
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  let t =
    {
      codec;
      oc;
      fsync_every = max 0 fsync_every;
      lock = Mutex.create ();
      unsynced = 0;
      closed = false;
    }
  in
  if whole then output_char oc '\n'
  else if complete = 0 then
    (* a new file, or one cut to nothing *)
    output_string oc (codec.header ^ "\n");
  let wrote = tail <> "" || complete = 0 in
  if wrote && t.fsync_every > 0 then sync_now t else flush oc;
  (t, fst (decode_all codec text))

let append t r =
  let line = t.codec.encode r in
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc;
        t.unsynced <- t.unsynced + 1;
        if t.fsync_every > 0 && t.unsynced >= t.fsync_every then sync_now t
      end)

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        sync_now t;
        close_out t.oc;
        t.closed <- true
      end)

(* --------------------------------------------------------------- replace *)

let replace ~path write =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     write oc;
     flush oc;
     fsync oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  (* best effort: not every filesystem lets a directory be opened *)
  try
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync fd)
  with Unix.Unix_error _ -> ()

let rewrite codec ~path records =
  replace ~path (fun oc ->
      output_string oc (codec.header ^ "\n");
      List.iter
        (fun r ->
          output_string oc (codec.encode r);
          output_char oc '\n')
        records)
