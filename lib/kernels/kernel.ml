type class_ = W | A | C

let class_name = function W -> "W" | A -> "A" | C -> "C"

type t = {
  name : string;
  program : Ir.program;
  setup : Vm.t -> unit;
  output : Vm.t -> float array;
  verify : float array -> bool;
  reference : float array;
  hints : Config.t;
  comm_bytes : ranks:int -> Mpi_model.net -> float;
}

let run_native k =
  let vm = Vm.create k.program in
  k.setup vm;
  Vm.run vm;
  (k.output vm, vm)

let run_patched ?config k =
  let cfg = match config with Some c -> c | None -> k.hints in
  let patched = Patcher.patch k.program cfg in
  let vm = Vm.create ~checked:true patched in
  k.setup vm;
  Vm.run vm;
  (k.output vm, vm)

let run_converted k =
  let conv = To_single.convert k.program in
  let vm = Vm.create ~checked:true ~smode:Vm.Plain conv in
  k.setup vm;
  Vm.run vm;
  (k.output vm, vm)

let target ?eval_steps ?faults ?cache k =
  Bfs.Target.make ?eval_steps ?faults ?cache k.program ~setup:k.setup
    ~output:k.output ~verify:k.verify

let check_reference k =
  let out, _ = run_native k in
  Array.length out = Array.length k.reference
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       out k.reference
