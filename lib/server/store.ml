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

(* Keys are compound ([program_key/context/Config.digest]), so they are
   escaped. *)
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

let open_journal ~resume ~path =
  let foreign () =
    match In_channel.with_open_bin path In_channel.input_line with
    | Some line -> String.trim line <> codec.Durable_log.header
    | None -> false (* empty: a crash before the header was written *)
  in
  try
    match (resume, Sys.file_exists path) with
    | false, exists ->
        if exists then Sys.remove path;
        Ok (create ~path ~fsync_every:0 ())
    | true, true when foreign () ->
        Error
          (Printf.sprintf
             "%s does not start with %S: it was not written by this version's \
              --journal; rerun without --resume to start a fresh log"
             path codec.Durable_log.header)
    | true, _ -> Ok (create ~path ~fsync_every:0 ())
  with Sys_error why -> Error why

let key ~program_key ~context ~config_digest =
  String.concat "/" [ program_key; context; config_digest ]

(* 16-hex-digit FNV-1a over the strings [feed] hands to its argument. *)
let fnv1a feed =
  let h = ref 0xcbf29ce484222325L in
  feed
    (String.iter (fun c ->
         h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L));
  Printf.sprintf "%016Lx" !h

(* The program key: FNV-1a over the id of every node of the structure
   tree, preorder. Every key of every store log on disk starts with it, so
   its bytes must never change. *)
let node_id = function
  | Static.Module (name, _) -> "M:" ^ Verdict.escape name
  | Static.Func (fid, _, _) -> Printf.sprintf "F:%d" fid
  | Static.Block (label, _) -> Printf.sprintf "B:%d" label
  | Static.Insn info -> Printf.sprintf "I:%d" info.Static.addr

let children = function
  | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
  | Static.Insn _ -> []

let program_key program =
  fnv1a (fun mix ->
      let rec walk node =
        mix (node_id node);
        List.iter walk (children node)
      in
      List.iter walk (Static.tree program))

(* A NAS kernel's program is the same at every class; only its input
   differs. The name carries the class and the reference digest pins the
   data the verification routine compares against. Every evaluation runs
   on the compiled backend, so [backend=compiled] is a constant; it stays
   in the key so store logs written when the engine was a choice keep
   hitting. The record's bench and class reach the key through the
   kernel. The retry budget decides a verdict only when an injector makes
   a rerun differ, so it follows the inject spec; a context with neither
   an inject spec nor a deadline keeps its pre-record bytes. *)
let context (ctx : Wire.context) (k : Kernel.t) =
  let reference =
    fnv1a (fun mix ->
        Array.iter (fun x -> mix (Printf.sprintf "%016Lx" (Int64.bits_of_float x))) k.reference)
  in
  let inject spec =
    Printf.sprintf "inject=%s;retries=%d" (Faults.to_string spec) ctx.retries
  in
  String.concat ";"
    (Printf.sprintf "steps=%s;backend=compiled;input=%s;reference=%s"
       (match ctx.eval_steps with None -> "default" | Some n -> string_of_int n)
       k.name reference
    :: List.filter_map Fun.id
         [
           Option.map inject ctx.inject;
           Option.map (Printf.sprintf "deadline=%g") ctx.deadline;
         ])

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

let wrap_target t ~context (target : Bfs.Target.t) =
  let program = target.Bfs.Target.program in
  let program_key = program_key program in
  let eval cfg =
    let key = key ~program_key ~context ~config_digest:(Config.digest program cfg) in
    fst (find_or_compute t ~key (fun () -> target.Bfs.Target.eval cfg))
  in
  { target with Bfs.Target.eval }

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
