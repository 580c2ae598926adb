exception Killed

type action = Kill | Stall | Garbage | Dup

let action_name = function
  | Kill -> "kill"
  | Stall -> "stall"
  | Garbage -> "garbage"
  | Dup -> "dup"

type spec = {
  seed : int;
  rate : float;
  actions : action list;
  limit : int;
  stall_for : float;
}

let default =
  { seed = 1; rate = 0.25; actions = [ Kill; Stall; Garbage; Dup ]; limit = 4; stall_for = 1.0 }

let action_of_string = function
  | "kill" -> Ok Kill
  | "stall" -> Ok Stall
  | "garbage" -> Ok Garbage
  | "dup" -> Ok Dup
  | s -> Error (Printf.sprintf "unknown chaos action %S (want kill|stall|garbage|dup)" s)

let parse text =
  let fields = String.split_on_char ',' (String.trim text) in
  List.fold_left
    (fun acc field ->
      Result.bind acc (fun spec ->
          let field = String.trim field in
          if field = "" then Ok spec
          else
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "bad chaos field %S (want key=value)" field)
            | Some i -> (
                let k = String.sub field 0 i in
                let v = String.sub field (i + 1) (String.length field - i - 1) in
                match k with
                | "seed" -> (
                    match int_of_string_opt v with
                    | Some seed -> Ok { spec with seed }
                    | None -> Error (Printf.sprintf "bad chaos seed %S" v))
                | "rate" -> (
                    match float_of_string_opt v with
                    | Some rate when rate >= 0.0 && rate <= 1.0 -> Ok { spec with rate }
                    | _ -> Error (Printf.sprintf "bad chaos rate %S (want 0..1)" v))
                | "limit" -> (
                    match int_of_string_opt v with
                    | Some limit when limit >= 0 -> Ok { spec with limit }
                    | _ -> Error (Printf.sprintf "bad chaos limit %S" v))
                | "stall" -> (
                    match float_of_string_opt v with
                    | Some stall_for when stall_for >= 0.0 -> Ok { spec with stall_for }
                    | _ -> Error (Printf.sprintf "bad chaos stall %S" v))
                | "actions" ->
                    let names = String.split_on_char '+' v in
                    Result.bind
                      (List.fold_left
                         (fun acc n ->
                           Result.bind acc (fun l ->
                               Result.map (fun a -> a :: l) (action_of_string (String.trim n))))
                         (Ok []) names)
                      (fun rev ->
                        match List.rev rev with
                        | [] -> Error "empty chaos action list"
                        | actions -> Ok { spec with actions })
                | _ -> Error (Printf.sprintf "unknown chaos field %S" k))))
    (Ok default) fields

type t = { spec : spec; lock : Mutex.t; mutable fired : int }

let create spec = { spec; lock = Mutex.create (); fired = 0 }
let stall_for t = t.spec.stall_for

(* Same discipline as Vm.Faults: the decision for a given key is a pure
   function of (spec seed, key), so a campaign replays bit-for-bit. Only
   the [limit] budget is stateful — once spent, the fleet runs clean and
   the campaign is guaranteed to drain. *)
let draw t ~key =
  if t.spec.actions = [] || t.spec.rate <= 0.0 then None
  else
    let rng = Rng.create (Hashtbl.hash (t.spec.seed, "chaos", key)) in
    if Rng.uniform rng >= t.spec.rate then None
    else
      let a = List.nth t.spec.actions (Rng.int rng (List.length t.spec.actions)) in
      Mutex.protect t.lock (fun () ->
          if t.fired >= t.spec.limit then None
          else begin
            t.fired <- t.fired + 1;
            Some a
          end)
