type mode = Trap | Hang | Bitflip | Corrupt | Crash

type spec = { seed : int; rate : float; modes : mode list; transient : bool }

let default = { seed = 1; rate = 0.2; modes = [ Trap; Hang ]; transient = true }

let mode_name = function
  | Trap -> "trap"
  | Hang -> "hang"
  | Bitflip -> "bitflip"
  | Corrupt -> "corrupt"
  | Crash -> "crash"

let mode_of_name = function
  | "trap" -> Ok Trap
  | "hang" -> Ok Hang
  | "bitflip" -> Ok Bitflip
  | "corrupt" -> Ok Corrupt
  | "crash" -> Ok Crash
  | s -> Error (Printf.sprintf "unknown fault mode %S (trap, hang, bitflip, corrupt, crash)" s)

let to_string s =
  Printf.sprintf "seed=%d,rate=%g,modes=%s,%s" s.seed s.rate
    (String.concat "+" (List.map mode_name s.modes))
    (if s.transient then "transient" else "persistent")

let parse text =
  let fields = String.split_on_char ',' text |> List.map String.trim in
  List.fold_left
    (fun acc field ->
      Result.bind acc (fun s ->
          match String.index_opt field '=' with
          | None -> (
              match field with
              | "" -> Ok s
              | "transient" -> Ok { s with transient = true }
              | "persistent" -> Ok { s with transient = false }
              | f -> Error (Printf.sprintf "unknown fault-spec field %S" f))
          | Some i -> (
              let k = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              match k with
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some n -> Ok { s with seed = n }
                  | None -> Error (Printf.sprintf "bad seed %S" v))
              | "rate" -> (
                  match float_of_string_opt v with
                  | Some r when r >= 0.0 && r <= 1.0 -> Ok { s with rate = r }
                  | _ -> Error (Printf.sprintf "bad rate %S (want a float in [0,1])" v))
              | "modes" ->
                  String.split_on_char '+' v
                  |> List.fold_left
                       (fun acc m -> Result.bind acc (fun ms -> Result.map (fun m -> m :: ms) (mode_of_name m)))
                       (Ok [])
                  |> Result.map (fun ms -> { s with modes = List.rev ms })
              | k -> Error (Printf.sprintf "unknown fault-spec field %S" k))))
    (Ok default) fields

exception Corrupted
exception Injected of string

type t = {
  spec : spec;
  attempts : (string, int) Hashtbl.t;
  armed : (string, mode) Hashtbl.t;  (* silent fault of the current run, for [finish] *)
  mutable fired : int;
  lock : Mutex.t;
}

let create spec = { spec; attempts = Hashtbl.create 64; armed = Hashtbl.create 16; fired = 0; lock = Mutex.create () }

let injected t = Mutex.protect t.lock (fun () -> t.fired)

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  (* keep it a nonnegative OCaml int for Rng seeding *)
  Int64.to_int !h land max_int

let record_fire t = Mutex.protect t.lock (fun () -> t.fired <- t.fired + 1)

(* Flip one payload bit of the first replaced encoding currently in the float
   heap. The flag half survives, so the value stays "replaced" and the
   corruption is silent — the classic bit-flip that only verification can
   catch. No replaced value in the heap yet: the fault fizzles. *)
let flip_replaced vm bit =
  let fheap = vm.Vm.fheap in
  let n = Array.length fheap in
  let rec find i =
    if i >= n then None else if Replaced.is_replaced fheap.(i) then Some i else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
      let bits = Int64.bits_of_float fheap.(i) in
      fheap.(i) <- Int64.float_of_bits (Int64.logxor bits (Int64.shift_left 1L (bit land 31)));
      true

let arm t ~key vm =
  let attempt, rng =
    Mutex.protect t.lock (fun () ->
        Hashtbl.remove t.armed key;
        let a = Option.value ~default:0 (Hashtbl.find_opt t.attempts key) in
        Hashtbl.replace t.attempts key (a + 1);
        (a, Rng.create (t.spec.seed lxor fnv64 key)))
  in
  if t.spec.modes <> [] && t.spec.rate > 0.0 then begin
    let faulty = Rng.uniform rng < t.spec.rate in
    if faulty && ((not t.spec.transient) || attempt = 0) then begin
      let mode = List.nth t.spec.modes (Rng.int rng (List.length t.spec.modes)) in
      (* fire early in the run: real evaluation crashes cluster near startup,
         and an early trigger still fires inside very short programs *)
      let trigger = 1 + Rng.int rng 16 in
      let bit = Rng.int rng 32 in
      match mode with
      | Corrupt -> Mutex.protect t.lock (fun () -> Hashtbl.replace t.armed key mode)
      | _ ->
          let countdown = ref trigger in
          let hook_id = ref (-1) in
          hook_id :=
            Vm.add_hook vm
              (fun vm addr ->
                decr countdown;
                if !countdown = 0 then begin
                  Vm.remove_hook vm !hook_id;
                  match mode with
                  | Trap ->
                      record_fire t;
                      raise (Injected (Printf.sprintf "forced trap at 0x%06x" addr))
                  | Crash ->
                      record_fire t;
                      failwith "injected fault: evaluator crash"
                  | Hang ->
                      (* the injector's hang, not the program's: a crash, so a
                         retrying harness reruns it (a step-budget overrun of
                         the program's own is final) *)
                      record_fire t;
                      raise (Injected (Printf.sprintf "forced hang at 0x%06x" addr))
                  | Bitflip ->
                      if flip_replaced vm bit then begin
                        record_fire t;
                        Mutex.protect t.lock (fun () -> Hashtbl.replace t.armed key Bitflip)
                      end
                  | Corrupt -> ()
                end)
    end
  end

let finish t ~key vm =
  let armed = Mutex.protect t.lock (fun () ->
      let m = Hashtbl.find_opt t.armed key in
      Hashtbl.remove t.armed key;
      m)
  in
  match armed with
  | Some Corrupt when Array.length vm.Vm.fheap > 0 ->
      let rng = Rng.create (t.spec.seed lxor fnv64 key lxor 0x5bd1e995) in
      let i = Rng.int rng (Array.length vm.Vm.fheap) in
      vm.Vm.fheap.(i) <- (vm.Vm.fheap.(i) *. -3.0) +. 1.0e9;
      record_fire t;
      true
  | Some Bitflip -> true
  | _ -> false
