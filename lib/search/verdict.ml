type verdict =
  | Pass
  | Fail_verify
  | Trapped of int * string
  | Step_timeout
  | Crashed of string
  | Pruned of string

let verdict_label = function
  | Pass -> "pass"
  | Fail_verify -> "fail"
  | Trapped _ -> "trap"
  | Step_timeout -> "timeout"
  | Crashed _ -> "crash"
  | Pruned _ -> "pruned"

(* percent-escape the characters the store and WAL line formats reserve *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '%' | '|' | ':' | '\t' | '\n' | '\r' ->
          Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then None
      else
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some h, Some l ->
            Buffer.add_char buf (Char.chr ((h * 16) + l));
            go (i + 3)
        | _ -> None
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let verdict_to_string = function
  | Pass -> "pass"
  | Fail_verify -> "fail"
  | Trapped (addr, reason) -> Printf.sprintf "trap:0x%06x:%s" addr (escape reason)
  | Step_timeout -> "timeout"
  | Crashed msg -> "crash:" ^ escape msg
  | Pruned reason -> "pruned:" ^ escape reason

let verdict_of_string s =
  let payload_after prefix =
    let p = String.length prefix in
    if String.length s >= p && String.sub s 0 p = prefix then
      Some (String.sub s p (String.length s - p))
    else None
  in
  match s with
  | "pass" -> Some Pass
  | "fail" -> Some Fail_verify
  | "timeout" -> Some Step_timeout
  | _ -> (
      match payload_after "trap:" with
      | Some rest -> (
          match String.index_opt rest ':' with
          | None -> None
          | Some i -> (
              let addr = String.sub rest 0 i in
              let reason = String.sub rest (i + 1) (String.length rest - i - 1) in
              match (int_of_string_opt addr, unescape reason) with
              | Some a, Some r -> Some (Trapped (a, r))
              | _ -> None))
      | None -> (
          match payload_after "crash:" with
          | Some msg -> Option.map (fun m -> Crashed m) (unescape msg)
          | None -> (
              match payload_after "pruned:" with
              | Some reason -> Option.map (fun r -> Pruned r) (unescape reason)
              | None -> None)))

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "pass"
  | Fail_verify -> Format.pp_print_string ppf "fail-verify"
  | Trapped (addr, reason) -> Format.fprintf ppf "trapped@0x%06x (%s)" addr reason
  | Step_timeout -> Format.pp_print_string ppf "step-timeout"
  | Crashed msg -> Format.fprintf ppf "crashed (%s)" msg
  | Pruned reason -> Format.fprintf ppf "pruned (%s)" reason

let is_flaky = function
  | Step_timeout | Crashed _ -> true
  | Pass | Fail_verify | Trapped _ | Pruned _ -> false

let classify_exn = function
  | Vm.Trap (addr, reason) -> Trapped (addr, reason)
  | Vm.Limit _ -> Step_timeout
  | Vm.Deadline _ -> Step_timeout
  | Stack_overflow -> Crashed "stack overflow"
  | Out_of_memory -> Crashed "out of memory"
  | e -> Crashed (Printexc.to_string e)

let classify f =
  match f () with
  | true -> Pass
  | false -> Fail_verify
  | exception e -> classify_exn e
