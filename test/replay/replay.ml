(* The search-driver replay oracle.

   Every case runs one campaign — bfs, split, delta or anneal — and
   renders everything observable about it as one line of [key=value]
   fields: the final configuration (digest and exchange-text MD5), every
   Bfs.result field, and MD5s of the evaluation sequence (each
   evaluation's configuration digest and outcome) and the search log.
   The committed fixture was recorded with gen_replay.exe; the replay
   suite recomputes each line and compares it field by field.

   A parallel wave evaluates in whatever order the pool's workers pick
   its items, so with more than one worker the sequence is cut at every
   [stop] poll (the drivers poll exactly at wave boundaries) and each
   piece is recorded as a sorted set. *)

let md5 s = Digest.to_hex (Digest.string s)

(* structure-node ids, as the [nodes] and [flags] fields hash them: a
   flag other than [Single] follows the id after '@' *)
let node_id = function
  | Static.Module (name, _) -> "M:" ^ Verdict.escape name
  | Static.Func (fid, _, _) -> Printf.sprintf "F:%d" fid
  | Static.Block (label, _) -> Printf.sprintf "B:%d" label
  | Static.Insn info -> Printf.sprintf "I:%d" info.Static.addr

let flagged_id = function
  | node, Config.Single -> node_id node
  | node, flag -> node_id node ^ "@" ^ Config.flag_token flag

(* ----------------------------------------------------------- subjects *)

(* The known-answer synthetic of the search tests: [n_ops] const+add
   chains; a poisoned chain computes 0.1 + 0.1, which no reduced format
   holds exactly, so replacing it fails verification. *)
let synthetic (n_ops, poison) =
  let t = Builder.create () in
  let out = Builder.alloc_f t n_ops in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        for k = 0 to n_ops - 1 do
          let c = Builder.fconst b (if List.mem k poison then 0.1 else 0.5) in
          let v = Builder.fadd b c c in
          Builder.storef b (Builder.at (out + k)) v
        done)
  in
  let program = Builder.program t ~main in
  let reference = Array.init n_ops (fun k -> if List.mem k poison then 0.2 else 1.0) in
  Bfs.Target.make program
    ~setup:(fun _ -> ())
    ~output:(fun vm -> Vm.read_f vm out n_ops)
    ~verify:(fun res -> res = reference)

(* Synthetic shapes drawn like the old delegation property's generator
   (1-6 chains, up to 4 poison indices in 0-5), from a fixed LCG so that
   every toolchain draws the same ones, plus the all-benign and
   all-poisoned extremes. *)
let shapes =
  let st = ref 20121112 in
  let next bound =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    (!st lsr 12) mod bound
  in
  let drawn =
    List.init 6 (fun _ ->
        let n_ops = 1 + next 6 in
        let poison = List.init (next 5) (fun _ -> next 6) in
        (n_ops, poison))
  in
  ((6, []) :: (4, [ 0; 1; 2; 3 ]) :: drawn)

let shape_name (n, poison) =
  Printf.sprintf "syn%d[%s]" n (String.concat "," (List.map string_of_int poison))

let report ~base program ~setup =
  let tracer =
    Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base program) program
  in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup in
  Shadow_report.make ~base program tracer

let full_menu =
  match Formats.menu_of_string "bf16,f16,single,double" with
  | Ok m -> m
  | Error e -> failwith e

(* --------------------------------------------------------- recording *)

type probe = {
  lock : Mutex.t;
  mutable seq : string list;  (** newest first; "|" marks a stop poll *)
}

let note p s = Mutex.protect p.lock (fun () -> p.seq <- s :: p.seq)

let recording p (t : Bfs.Target.t) =
  let wrap passed f cfg =
    let d = Config.digest t.Bfs.Target.program cfg in
    match f cfg with
    | r ->
        note p (d ^ if passed r then "+" else "-");
        r
    | exception e ->
        note p (d ^ "!" ^ Printexc.to_string e);
        raise e
  in
  {
    t with
    Bfs.Target.eval = wrap (( = ) Verdict.Pass) t.Bfs.Target.eval;
    raw_eval = wrap Fun.id t.Bfs.Target.raw_eval;
  }

(* the recorded evaluation sequence; with [parallel] each wave is a set *)
let sequence ~parallel p =
  let all = List.rev p.seq in
  if not parallel then String.concat "," (List.filter (( <> ) "|") all)
  else
    let rec waves cur acc = function
      | [] -> List.rev (if cur = [] then acc else cur :: acc)
      | "|" :: rest -> waves [] (if cur = [] then acc else cur :: acc) rest
      | e :: rest -> waves (e :: cur) acc rest
    in
    waves [] [] all
    |> List.map (fun w -> String.concat "," (List.sort compare w))
    |> String.concat "|"

(* --------------------------------------------------------- campaigns *)

type setup = {
  opts : Bfs.options;
  stop_after : int option;  (** [stop] answers true from poll [k + 1] on *)
}

let plain = { opts = Bfs.default_options; stop_after = None }

let campaign ~program target tok s =
  let p = { lock = Mutex.create (); seq = [] } in
  let target = recording p target in
  let polls = ref 0 in
  let stop () =
    note p "|";
    incr polls;
    match s.stop_after with Some k -> !polls > k | None -> false
  in
  let r = Strategy.run ~options:{ s.opts with Bfs.stop } tok target in
  let ids f xs = md5 (String.concat " " (List.map f xs)) in
  let log = String.concat "\n" r.Bfs.log in
  [
    ("evals", Printf.sprintf "%d:%s" (List.length (List.filter (( <> ) "|") p.seq))
        (md5 (sequence ~parallel:(s.opts.Bfs.workers > 1) p)));
    ("final", Config.digest program r.Bfs.final);
    ("text", md5 (Config.print program r.Bfs.final));
    ("pass", string_of_bool r.Bfs.final_pass);
    ("candidates", string_of_int r.Bfs.candidates);
    ("tested", string_of_int r.Bfs.tested);
    ("static", string_of_int r.Bfs.static_replaced);
    ("static_pct", Printf.sprintf "%h" r.Bfs.static_pct);
    ("dynamic_pct", Printf.sprintf "%h" r.Bfs.dynamic_pct);
    ("nodes", ids node_id r.Bfs.passing_nodes);
    ("flags", ids flagged_id r.Bfs.passing_flags);
    ("bits", string_of_int r.Bfs.bits_saved);
    ("pruned", string_of_int r.Bfs.pruned);
    ("interrupted", string_of_bool r.Bfs.interrupted);
    ("log", Printf.sprintf "%d:%s" (List.length r.Bfs.log) (md5 log));
  ]

(* Fields where split/delta/anneal may differ from the recording: the
   log wording. bfs keeps all. *)
let narration = [ "log" ]

let strategies =
  Strategy.[ Bfs; Split; Delta; Anneal default_seed ]

(* ------------------------------------------------------------- cases *)

(* One group of campaigns sharing a subject; [runs] are executed in order. *)
type group = {
  subject : string;
  make : unit -> Bfs.Target.t * Shadow_report.t Lazy.t * Config.t;
  runs : (string * (Bfs.options -> Shadow_report.t Lazy.t -> setup)) list;
}

let with_opts f = fun o _ -> { plain with opts = f o }

let shadow_setup ?(w = 1) ~seed ~reorder ?prune () o r =
  {
    plain with
    opts =
      {
        o with
        Bfs.workers = w;
        shadow = Some (Bfs.shadow ~seed_predicted:seed ~reorder ?prune_above:prune (Lazy.force r));
      };
  }

let synthetic_runs =
  [
    ("plain", with_opts Fun.id);
    ("w3", with_opts (fun o -> { o with Bfs.workers = 3 }));
    ("phase2", with_opts (fun o -> { o with Bfs.second_phase = true }));
    ("menu", with_opts (fun o -> { o with Bfs.formats = full_menu }));
    ( "menu-phase2-w3",
      with_opts (fun o -> { o with Bfs.formats = full_menu; second_phase = true; workers = 3 }) );
    ("shadow-seed", shadow_setup ~seed:true ~reorder:false ());
    ("shadow-reorder", shadow_setup ~seed:false ~reorder:true ());
    ("shadow-prune", shadow_setup ~seed:false ~reorder:false ~prune:1e-12 ());
    ("shadow-all-w3", shadow_setup ~w:3 ~seed:true ~reorder:true ~prune:1e-12 ());
    ("stop1", fun o _ -> { opts = o; stop_after = Some 1 });
    ("stop3-menu", fun o _ -> { opts = { o with Bfs.formats = full_menu }; stop_after = Some 3 });
    ("stop2", fun o _ -> { opts = o; stop_after = Some 2 });
    ( "stop3-menu-phase2-w3",
      fun o _ ->
        {
          opts = { o with Bfs.workers = 3; formats = full_menu; second_phase = true };
          stop_after = Some 3;
        } );
    ("shadow-all", shadow_setup ~seed:true ~reorder:true ~prune:1e-12 ());
  ]

let synthetic_groups =
  List.map
    (fun shape ->
      {
        subject = shape_name shape;
        make =
          (fun () ->
            let t = synthetic shape in
            ( t,
              lazy (report ~base:Config.empty t.Bfs.Target.program ~setup:(fun _ -> ())),
              Config.empty ));
        runs = synthetic_runs;
      })
    shapes

let kernel_groups =
  let kernel name make ~prune =
    {
      subject = name ^ ".W";
      make =
        (fun () ->
          let k = make Kernel.W in
          ( Kernel.target k,
            lazy (report ~base:k.Kernel.hints k.Kernel.program ~setup:k.Kernel.setup),
            k.Kernel.hints ));
      runs =
        [
          ("plain", with_opts Fun.id);
          ("menu", with_opts (fun o -> { o with Bfs.formats = full_menu }));
        ]
        @
        if prune then
          (* every wave of 1 is one item, and all but 4 are pruned: BFS
             still counts each all-pruned wave and polls [stop] after it *)
          [
            ( "prune1e-6",
              fun o r ->
                {
                  plain with
                  opts = { o with Bfs.shadow = Some (Bfs.shadow ~prune_above:1e-6 (Lazy.force r)) };
                } );
          ]
        else [];
    }
  in
  [
    kernel "cg" Nas_cg.make ~prune:false;
    kernel "mg" Nas_mg.make ~prune:true;
    kernel "ep" Nas_ep.make ~prune:false;
  ]

(* Run every campaign of [groups]; [emit key fields] receives each line's
   key ("<subject>/<run> <strategy>") and its fields, in fixture order. *)
let run_groups groups emit =
  List.iter
    (fun g ->
      let target, shadow, base = g.make () in
      let program = target.Bfs.Target.program in
      List.iter
        (fun tok ->
          List.iter
            (fun (run, mk) ->
              let s = mk { Bfs.default_options with Bfs.base } shadow in
              emit
                (Printf.sprintf "%s/%s %s" g.subject run (Strategy.to_string tok))
                (campaign ~program target tok s))
            g.runs)
        strategies)
    groups

let render fields = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let parse line =
  match String.split_on_char ' ' line with
  | subject :: strategy :: fields ->
      let kv f =
        match String.index_opt f '=' with
        | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
        | None -> (f, "")
      in
      Some (subject ^ " " ^ strategy, List.map kv fields)
  | _ -> None
