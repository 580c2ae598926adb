type record =
  | Submitted of { id : string; spec : Wire.job_spec }
  | Outcome of { id : string; state : Wire.job_state; summary : string }

(* ---------------------------------------------------------------- format *)

let state_token = function
  | Wire.Queued -> "queued"
  | Wire.Running -> "running"
  | Wire.Done -> "done"
  | Wire.Cancelled -> "cancelled"
  | Wire.Failed why -> "failed:" ^ Verdict.escape why
  | Wire.Quarantined why -> "quarantined:" ^ Verdict.escape why

let state_of_token s =
  match s with
  | "queued" -> Some Wire.Queued
  | "running" -> Some Wire.Running
  | "done" -> Some Wire.Done
  | "cancelled" -> Some Wire.Cancelled
  | _ -> (
      match String.index_opt s ':' with
      | None -> None
      | Some i -> (
          let tag = String.sub s 0 i in
          let why = Verdict.unescape (String.sub s (i + 1) (String.length s - i - 1)) in
          match (tag, why) with
          | "failed", Some why -> Some (Wire.Failed why)
          | "quarantined", Some why -> Some (Wire.Quarantined why)
          | _ -> None))

let encode = function
  | Submitted { id; spec } ->
      Printf.sprintf "submit %s %s %s %d %d %s %s %s" id
        (Verdict.escape spec.Wire.bench)
        (Verdict.escape spec.Wire.cls)
        (if spec.Wire.shadow then 1 else 0)
        spec.Wire.priority
        (match spec.Wire.eval_steps with None -> "-" | Some n -> string_of_int n)
        (match spec.Wire.formats with "" -> "-" | m -> Verdict.escape m)
        (match spec.Wire.strategy with "" -> "-" | s -> Verdict.escape s)
  | Outcome { id; state; summary } ->
      Printf.sprintf "outcome %s %s %s" id (state_token state) (Verdict.escape summary)

let decode line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  (* submit records grew an 8th (formats) token with the lattice and a
     9th (strategy) token with pluggable strategies; the 7-token form is
     what pre-lattice daemons wrote, the 8-token form what pre-strategy
     daemons wrote — both still load, resuming those jobs with the
     single-only default menu and the default bfs strategy *)
  | [ "submit"; id; bench; cls; shadow; priority; steps ]
  | [ "submit"; id; bench; cls; shadow; priority; steps; _ ]
  | [ "submit"; id; bench; cls; shadow; priority; steps; _; _ ] as toks -> (
      let formats_tok, strategy_tok =
        match toks with
        | [ _; _; _; _; _; _; _; m ] -> (m, "-")
        | [ _; _; _; _; _; _; _; m; s ] -> (m, s)
        | _ -> ("-", "-")
      in
      match
        ( Verdict.unescape bench,
          Verdict.unescape cls,
          (match shadow with "0" -> Some false | "1" -> Some true | _ -> None),
          int_of_string_opt priority,
          (match steps with
          | "-" -> Some None
          | s -> Option.map Option.some (int_of_string_opt s)),
          (match formats_tok with "-" -> Some "" | m -> Verdict.unescape m),
          match strategy_tok with "-" -> Some "" | s -> Verdict.unescape s )
      with
      | ( Some bench, Some cls, Some shadow, Some priority,
          Some eval_steps, Some formats, Some strategy ) ->
          let spec = { Wire.bench; cls; shadow; priority; eval_steps; formats; strategy } in
          Some (Submitted { id; spec })
      | _ -> None)
  | "outcome" :: id :: state :: rest -> (
      let summary =
        match rest with
        | [] -> Some ""
        | [ s ] -> Verdict.unescape s
        | _ -> None
      in
      match (state_of_token state, summary) with
      | Some state, Some summary -> Some (Outcome { id; state; summary })
      | _ -> None)
  | _ -> None

let codec = { Durable_log.header = "# craft-wal v1"; encode; decode }

(* ------------------------------------------------------------- lifecycle *)

type t = record Durable_log.t

(* Job lifecycle transitions are rare next to evaluations, so every append
   is fsynced: the job table is never behind the crash. *)
let create ~path = fst (Durable_log.create ~fsync_every:1 codec ~path)
let append = Durable_log.append
let close = Durable_log.close
let load ~path = fst (Durable_log.replay codec ~path)

(* ---------------------------------------------------------------- replay *)

type entry = { spec : Wire.job_spec; outcome : (Wire.job_state * string) option }

let is_terminal = function
  | Wire.Done | Wire.Cancelled | Wire.Failed _ | Wire.Quarantined _ -> true
  | Wire.Queued | Wire.Running -> false

let replay records =
  let table = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun r ->
      match r with
      | Submitted { id; spec } ->
          if not (Hashtbl.mem table id) then begin
            Hashtbl.replace table id { spec; outcome = None };
            order := id :: !order
          end
      | Outcome { id; state; summary } -> (
          (* an outcome for a job we never saw submitted, or a non-terminal
             state, is a record we cannot act on: drop it *)
          match Hashtbl.find_opt table id with
          | Some entry when is_terminal state ->
              Hashtbl.replace table id { entry with outcome = Some (state, summary) }
          | _ -> ()))
    records;
  List.rev_map (fun id -> (id, Hashtbl.find table id)) !order
