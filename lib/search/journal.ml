type record = { digest : string; verdict : Harness.verdict; seq : int; summary : string }

let decode line =
  let left, summary =
    match String.index_opt line '|' with
    | Some i ->
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        (String.sub line 0 i, String.trim rest)
    | None -> (line, "")
  in
  match String.split_on_char ' ' left |> List.filter (fun s -> s <> "") with
  | [ digest; verdict; seq ] when String.length digest = 16 -> (
      match (Harness.verdict_of_string verdict, int_of_string_opt seq) with
      | Some verdict, Some seq -> Some { digest; verdict; seq; summary }
      | _ -> None)
  | _ -> None

let codec =
  {
    Durable_log.header = "# craft-journal v1";
    encode =
      (fun r ->
        Printf.sprintf "%s %s %d | %s" r.digest (Harness.verdict_to_string r.verdict) r.seq
          r.summary);
    decode;
  }

type t = {
  path : string;
  log : record Durable_log.t;
  program : Ir.program;
  memo : (string, Harness.verdict) Hashtbl.t;
  mutable seq : int;  (* tests-so-far column of the next record *)
  replayed : int;
  mutable hits : int;
  mutable fresh : int;
  lock : Mutex.t;
}

let scan ~path =
  List.map (fun r -> (r.digest, r.verdict)) (fst (Durable_log.replay codec ~path))

(* ----------------------------------------------------------- verification *)

type verify_report = {
  records : int;
  distinct : int;
  duplicates : (string * int) list;
  verdicts : (string * int) list;
  bad : int;
  trailing_bad : int;
  torn : bool;
}

let verify ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such journal")
  else begin
    let records, damage = Durable_log.replay codec ~path in
    let tally key =
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun r ->
          let k = key r in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        records;
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare
    in
    let by_digest = tally (fun r -> r.digest) in
    Ok
      {
        records = damage.records;
        distinct = List.length by_digest;
        duplicates = List.filter (fun (_, n) -> n > 1) by_digest;
        verdicts = tally (fun r -> Harness.verdict_label r.verdict);
        bad = damage.bad;
        trailing_bad = damage.trailing_bad;
        torn = Durable_log.torn damage;
      }
  end

let create ?(resume = false) ~path program =
  if not resume && Sys.file_exists path then Sys.remove path;
  let log, records = Durable_log.create codec ~path in
  let memo = Hashtbl.create 256 in
  List.iter
    (fun r -> if not (Hashtbl.mem memo r.digest) then Hashtbl.add memo r.digest r.verdict)
    records;
  {
    path;
    log;
    program;
    memo;
    seq = Hashtbl.length memo;
    replayed = Hashtbl.length memo;
    hits = 0;
    fresh = 0;
    lock = Mutex.create ();
  }

let sync t = Durable_log.sync t.log
let close t = Durable_log.close t.log
let path t = t.path
let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.memo)
let replayed t = t.replayed
let hits t = Mutex.protect t.lock (fun () -> t.hits)
let fresh t = Mutex.protect t.lock (fun () -> t.fresh)

let lookup_key t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.memo key with
      | Some v ->
          t.hits <- t.hits + 1;
          Some v
      | None -> None)

let record_key t key ~summary verdict =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.memo key) then begin
        Hashtbl.add t.memo key verdict;
        t.seq <- t.seq + 1;
        t.fresh <- t.fresh + 1;
        Durable_log.append t.log { digest = key; verdict; seq = t.seq; summary }
      end)

let summary_of cfg =
  let s = Config.summarize cfg in
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

let lookup t cfg = lookup_key t (Config.digest t.program cfg)

let record t cfg verdict =
  record_key t (Config.digest t.program cfg) ~summary:(summary_of cfg) verdict

let wrap_target t ~harness (target : Bfs.Target.t) =
  let eval cfg =
    let key = Config.digest t.program cfg in
    match lookup_key t key with
    | Some v -> v = Harness.Pass
    | None ->
        let v = Harness.eval harness cfg in
        record_key t key ~summary:(summary_of cfg) v;
        v = Harness.Pass
  in
  { target with Bfs.Target.eval }
