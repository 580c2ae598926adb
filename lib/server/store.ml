type stats = {
  hits : int;
  misses : int;
  entries : int;
  waits : int;
  replayed : int;
}

type cell =
  | Done of Verdict.verdict
  | Pending  (** someone is computing it; wait on [changed] *)

type record = { key : string; verdict : Verdict.verdict; seq : int }

(* Keys are compound ([program_key/opts_digest/Config.digest]) so unlike
   journal digests they are escaped. *)
let codec =
  {
    Durable_log.header = "# craft-store v1";
    encode =
      (fun r ->
        Printf.sprintf "%s %s %d" (Verdict.escape r.key) (Verdict.verdict_to_string r.verdict)
          r.seq);
    decode =
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ key; verdict; seq ] -> (
            match
              (Verdict.unescape key, Verdict.verdict_of_string verdict, int_of_string_opt seq)
            with
            | Some key, Some verdict, Some seq -> Some { key; verdict; seq }
            | _ -> None)
        | _ -> None);
  }

type t = {
  lock : Mutex.t;
  changed : Condition.t;  (* a Pending resolved (or was withdrawn) *)
  table : (string, cell) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable waits : int;
  replayed : int;
  log : record Durable_log.t option;  (* [None] keeps the store memory-only *)
  mutable seq : int;
}

let scan ~path =
  List.map (fun r -> (r.key, r.verdict)) (fst (Durable_log.replay codec ~path))

(* ------------------------------------------------------------- lifecycle *)

let create ?path ?(fsync_every = 32) () =
  let table = Hashtbl.create 1024 in
  let log, seq =
    match path with
    | None -> (None, 0)
    | Some path ->
        let log, records = Durable_log.create ~fsync_every codec ~path in
        List.iter (fun r -> Hashtbl.replace table r.key (Done r.verdict)) records;
        (Some log, List.length records)
  in
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    table;
    hits = 0;
    misses = 0;
    waits = 0;
    replayed = Hashtbl.length table;
    log;
    seq;
  }

let key ~program_key ~opts_digest ~config_digest =
  String.concat "/" [ program_key; opts_digest; config_digest ]

(* Lock held. *)
let persist t key verdict =
  match t.log with
  | None -> ()
  | Some log ->
      t.seq <- t.seq + 1;
      Durable_log.append log { key; verdict; seq = t.seq }

let close t = Option.iter Durable_log.close t.log

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  let rec claim waited =
    match Hashtbl.find_opt t.table key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        if waited then t.waits <- t.waits + 1;
        Mutex.unlock t.lock;
        (v, true)
    | Some Pending ->
        (* computed concurrently by another campaign right now: block until
           it resolves rather than burn a duplicate evaluation *)
        Condition.wait t.changed t.lock;
        claim true
    | None ->
        t.misses <- t.misses + 1;
        Hashtbl.replace t.table key Pending;
        Mutex.unlock t.lock;
        let v =
          try f ()
          with e ->
            (* withdraw the claim so waiters recompute instead of hanging *)
            Mutex.lock t.lock;
            Hashtbl.remove t.table key;
            Condition.broadcast t.changed;
            Mutex.unlock t.lock;
            raise e
        in
        Mutex.lock t.lock;
        Hashtbl.replace t.table key (Done v);
        persist t key v;
        Condition.broadcast t.changed;
        Mutex.unlock t.lock;
        (v, false)
  in
  claim false

(* ------------------------------------------------------------ compaction *)

let compact ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such store log")
  else begin
    let records = fst (Durable_log.replay codec ~path) in
    let table = Hashtbl.create 1024 in
    let order = ref [] in
    List.iter
      (fun r ->
        if not (Hashtbl.mem table r.key) then order := r.key :: !order;
        (* last record wins, matching replay *)
        Hashtbl.replace table r.key r.verdict)
      records;
    let kept =
      List.rev !order
      |> List.mapi (fun i key -> { key; verdict = Hashtbl.find table key; seq = i + 1 })
    in
    match Durable_log.rewrite codec ~path kept with
    | () -> Ok (List.length kept, List.length records - List.length kept)
    | exception Sys_error why -> Error why
  end

(* ----------------------------------------------------------------- stats *)

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries =
        Hashtbl.fold (fun _ c acc -> match c with Done _ -> acc + 1 | Pending -> acc) t.table 0
      in
      { hits = t.hits; misses = t.misses; entries; waits = t.waits; replayed = t.replayed })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let report t =
  let s = stats t in
  Printf.sprintf
    "result store: %d hit(s) / %d miss(es) (%.1f%% hit rate, %d in-flight wait(s)), %d \
     entr%s%s"
    s.hits s.misses
    (100.0 *. hit_rate s)
    s.waits s.entries
    (if s.entries = 1 then "y" else "ies")
    (if s.replayed > 0 then Printf.sprintf " (%d replayed from disk)" s.replayed else "")
