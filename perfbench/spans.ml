(* Outside-in spans for the traced benchmark run.

   Nothing here reaches inside the library: spans are recorded around the
   public closures the unchanged code calls — the Bfs.Target.t fields
   [raw_eval] and [profile], and the Kernel.t fields [setup], [output] and
   [verify]. The VM run of an evaluation is the interval between the end of
   [setup] and the start of [output] (exactly Compile.run), or the trap
   that ends it, recorded as a synthetic [vm.run] span carrying the VM's
   step count.

   Evaluations run on pool domains and on scheduler threads, so spans are
   buffered per domain (each buffer behind its own, almost always
   uncontended, mutex: systhreads share their domain's buffer) and the
   innermost open span is tracked per thread. Buffers are written out as
   JSON Lines only when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 for a root span *)
  campaign : int;
  count : int;  (** VM steps for [vm.run]; 0 otherwise *)
}

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

type buffer = { lock : Mutex.t; mutable spans : span list }

let buffers = ref []
let buffers_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { lock = Mutex.create (); spans = [] } in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let record s =
  let b = Domain.DLS.get buffer_key in
  Mutex.protect b.lock (fun () -> b.spans <- s :: b.spans)

(* Every span recorded so far, oldest first. *)
let collect () =
  Mutex.protect buffers_lock (fun () -> !buffers)
  |> List.concat_map (fun b -> Mutex.protect b.lock (fun () -> b.spans))
  |> List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id))

(* Per-thread state: the stack of open spans, and the VM whose run is in
   progress with the time its [setup] ended. *)
type thread_state = { mutable open_ : int list; mutable running : (Vm.t * float) option }

let threads : (int, thread_state) Hashtbl.t = Hashtbl.create 16
let threads_lock = Mutex.create ()

let thread_state () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect threads_lock (fun () ->
      match Hashtbl.find_opt threads tid with
      | Some s -> s
      | None ->
          let s = { open_ = []; running = None } in
          Hashtbl.replace threads tid s;
          s)

(* Run [f] inside a span named [name]; its parent is the innermost span
   open on this thread, else [parent]. Exceptions (VM traps, step limits)
   close the span and propagate unchanged. *)
let within ~campaign ~parent name f =
  let st = thread_state () in
  let parent = match st.open_ with p :: _ -> p | [] -> parent in
  let id = fresh_id () in
  st.open_ <- id :: st.open_;
  let start = now () in
  let close () =
    st.open_ <- List.tl st.open_;
    record { id; name; start; stop = now (); parent; campaign; count = 0 }
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Close the VM run in progress on this thread, if any, as a [vm.run]
   span: at [output], or when the evaluation raises (a trap or a step
   limit ends the run without an output). *)
let end_run ~campaign ~parent =
  let st = thread_state () in
  match st.running with
  | None -> ()
  | Some (vm, start) ->
      st.running <- None;
      record
        {
          id = fresh_id ();
          name = "vm.run";
          start;
          stop = now ();
          parent = (match st.open_ with p :: _ -> p | [] -> parent);
          campaign;
          count = vm.Vm.steps;
        }

(* The kernel with its [setup], [output] and [verify] closures traced. *)
let kernel ~campaign ~parent (k : Kernel.t) =
  {
    k with
    Kernel.setup =
      (fun vm ->
        within ~campaign ~parent "kernel.setup" (fun () -> k.Kernel.setup vm);
        (thread_state ()).running <- Some (vm, now ()));
    output =
      (fun vm ->
        end_run ~campaign ~parent;
        within ~campaign ~parent "kernel.output" (fun () -> k.Kernel.output vm));
    verify = (fun out -> within ~campaign ~parent "kernel.verify" (fun () -> k.Kernel.verify out));
  }

(* The search target with [raw_eval] and [profile] traced. The profile's
   own VM run (interpreted, no [output]) stays inside the [profile] span. *)
let target ~campaign ~parent (t : Bfs.Target.t) =
  {
    t with
    Bfs.Target.raw_eval =
      (fun cfg ->
        within ~campaign ~parent "eval" (fun () ->
            (thread_state ()).running <- None;
            match t.Bfs.Target.raw_eval cfg with
            | ok -> ok
            | exception e ->
                end_run ~campaign ~parent;
                raise e));
    profile = (fun () -> within ~campaign ~parent "profile" t.Bfs.Target.profile);
  }

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   children cover. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start, s.stop)) spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)))
    spans

let write_jsonl path ~t0 spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \
             \"campaign\": %d, \"count\": %d}\n"
            s.id s.name (s.start -. t0) (s.stop -. t0) s.parent s.campaign s.count)
        spans)
