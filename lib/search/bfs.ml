exception Aborted

module Target = struct
  type t = {
    program : Ir.program;
    eval : Config.t -> Verdict.verdict;
    raw_eval : Config.t -> bool;
    profile : unit -> int array;
    code_cache : Compile.cache option;
  }

  let make ?eval_steps ?faults ?cache program ~setup ~output ~verify =
    (* a caller-supplied cache is shared beyond this target — the campaign
       server hands every job on the same program one cache *)
    let cache = match cache with Some c -> c | None -> Compile.create_cache () in
    let raw_eval cfg =
      let patched = Patcher.patch program cfg in
      let vm = Vm.create ~checked:true ?max_steps:eval_steps patched in
      setup vm;
      let armed = Option.map (fun inj -> (inj, Config.digest program cfg)) faults in
      Option.iter (fun (inj, key) -> Faults.arm inj ~key vm) armed;
      (* a hook installed by the fault injector or by [setup] (shadow
         tracer, test probe) makes Compile.run interpret *)
      Compile.run ~cache vm;
      let corrupted =
        match armed with Some (inj, key) -> Faults.finish inj ~key vm | None -> false
      in
      let ok = verify (output vm) in
      (* a failure after silent corruption is the injector's, not the
         configuration's verdict *)
      if corrupted && not ok then raise Faults.Corrupted;
      ok
    in
    let eval cfg = Verdict.classify (fun () -> raw_eval cfg) in
    let profile () =
      let vm = Vm.create program in
      setup vm;
      Vm.run vm;
      vm.counts
    in
    { program; eval; raw_eval; profile; code_cache = Some cache }
end

type granularity = Module_level | Func_level | Block_level | Insn_level

type shadow_opts = {
  report : Shadow_report.t;
  seed_predicted : bool;
  reorder : bool;
  prune_above : float option;
  on_pruned : Config.t -> float -> unit;
}

let shadow ?(seed_predicted = true) ?(reorder = true) ?prune_above
    ?(on_pruned = fun _ _ -> ()) report =
  { report; seed_predicted; reorder; prune_above; on_pruned }

type options = {
  stop_at : granularity;
  binary_split : bool;
  prioritize : bool;
  split_threshold : int;
  workers : int;
  second_phase : bool;
  base : Config.t;
  pool : Pool.t option;
  shadow : shadow_opts option;
  formats : Formats.t list;
  stop : unit -> bool;
}

let default_options =
  {
    stop_at = Insn_level;
    binary_split = true;
    prioritize = true;
    split_threshold = 4;
    workers = 1;
    second_phase = false;
    base = Config.empty;
    pool = None;
    shadow = None;
    formats = [ Formats.single ];
    stop = (fun () -> false);
  }

type result = {
  final : Config.t;
  final_pass : bool;
  candidates : int;
  tested : int;
  static_replaced : int;
  static_pct : float;
  dynamic_pct : float;
  passing_nodes : Static.node list;
  passing_flags : (Static.node * Config.flag) list;
  bits_saved : int;
  log : string list;
  pruned : int;
  interrupted : bool;
}

let rank = function Module_level -> 0 | Func_level -> 1 | Block_level -> 2 | Insn_level -> 3

let node_rank = function
  | Static.Module _ -> 0
  | Static.Func _ -> 1
  | Static.Block _ -> 2
  | Static.Insn _ -> 3

let children_of = function
  | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
  | Static.Insn _ -> []

let force_flag ~base flag cfg node =
  let has_ignored =
    List.exists
      (fun info -> Config.effective base info = Config.Ignore)
      (Static.node_insns node)
  in
  if not has_ignored then Config.set_node cfg node flag
  else
    (* Aggregate flags override children, so setting the aggregate flag
       would clobber the user's ignore hints; expand to instruction level
       instead. *)
    List.fold_left
      (fun acc info ->
        if Config.effective base info = Config.Ignore then acc
        else Config.set_insn acc info.Static.addr flag)
      cfg (Static.node_insns node)

let force_single ~base cfg node = force_flag ~base Config.Single cfg node

(* ------------------------------------------------------ wave machines *)

type flagged = (Static.node * Config.flag) list

type ctx = {
  target : Target.t;
  options : options;
  counts : int array;
  universe : Static.insn_info list;
  entry : Formats.t;
}

type wave = { configs : Config.t list; pruned : int; notes : string list }
type finish = Structures | Instructions

module type MACHINE = sig
  type state

  val name : string
  val finish : finish
  val init : ctx -> eval:(Config.t -> Verdict.verdict) -> state * string list
  val propose : ctx -> state -> wave option * state
  val consume : ctx -> state -> Verdict.verdict list -> state * string list
  val flagged : ctx -> state -> flagged
  val interrupt : state -> string option
end

let entry_flag ctx = Config.of_format ctx.entry

let live_insns ctx node =
  List.filter
    (fun info -> Config.effective ctx.options.base info <> Config.Ignore)
    (Static.node_insns node)

let weight_of ctx nodes =
  List.fold_left
    (fun acc n ->
      List.fold_left (fun acc (i : Static.insn_info) -> acc + ctx.counts.(i.addr)) acc
        (live_insns ctx n))
    0 nodes

let union ctx flags =
  let base = ctx.options.base in
  List.fold_left (fun acc (n, fl) -> force_flag ~base fl acc n) base flags

(* --------------------------------------------------------------- bfs *)

(* The paper's breadth-first structural descent as a wave machine. Its
   state is the work queue, the passing set and the item sequence
   counter. *)
module Breadth_first = struct
  let name = "bfs"
  let finish = Structures

  type item = { nodes : Static.node list; weight : int; seq : int; score : float }
  (* [score] is the shadow-predicted divergence of flipping exactly these
     nodes to single (infinity when a control-flow flip was observed
     inside); 0 when the search runs without shadow guidance *)

  type state = {
    queue : item list;
    inflight : item list;  (** the wave being evaluated, in proposal order *)
    passing : flagged;  (** newest first *)
    seq : int;
  }

  (* shadow-predicted divergence of an item's node set: the worst observed
     per-instruction divergence, or infinity when any contained instruction
     flipped a comparison/conversion outcome (its prediction — and that of
     everything data-dependent — is unreliable, so such items are never
     pruned and sort last under reordering) *)
  let score ctx nodes =
    match ctx.options.shadow with
    | None -> 0.0
    | Some s ->
        List.fold_left
          (fun acc n ->
            List.fold_left
              (fun acc (i : Static.insn_info) ->
                if Shadow_report.flips_at s.report i.addr > 0 then infinity
                else Float.max acc (Shadow_report.max_rel_at s.report i.addr))
              acc (live_insns ctx n))
          0.0 nodes

  let push ctx st nodes =
    let seq = st.seq + 1 in
    if nodes = [] then { st with seq }
    else
      let it = { nodes; weight = weight_of ctx nodes; seq; score = score ctx nodes } in
      { st with queue = it :: st.queue; seq }

  let pushes ctx st groups = List.fold_left (push ctx) st groups

  let pop_batch ctx n queue =
    let o = ctx.options in
    let shadow_reorder = match o.shadow with Some s -> s.reorder | None -> false in
    let cmp a b =
      if shadow_reorder then
        (* most tolerant first: predicted divergence ascending, then the
           profile weight (heavier = more dynamic coverage), then seq *)
        match Float.compare a.score b.score with
        | 0 -> ( match compare b.weight a.weight with 0 -> compare a.seq b.seq | c -> c)
        | c -> c
      else if o.prioritize then
        match compare b.weight a.weight with 0 -> compare a.seq b.seq | c -> c
      else compare a.seq b.seq
    in
    let rec take k = function
      | x :: rest when k > 0 ->
          let batch, leftover = take (k - 1) rest in
          (x :: batch, leftover)
      | rest -> ([], rest)
    in
    take n (List.sort cmp queue)

  let halves xs =
    let rec split k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
          let a, b = split (k - 1) rest in
          (x :: a, b)
    in
    split ((List.length xs + 1) / 2) xs

  let descend ctx st it =
    let o = ctx.options in
    match it.nodes with
    | [] -> st
    | [ node ] ->
        if node_rank node < rank o.stop_at then
          match List.filter (fun c -> live_insns ctx c <> []) (children_of node) with
          | [] -> st
          | cs when o.binary_split && List.length cs > o.split_threshold ->
              let a, b = halves cs in
              pushes ctx st [ a; b ]
          | cs -> pushes ctx st (List.map (fun c -> [ c ]) cs)
        else st
    | nodes ->
        (* a failing partition splits in two again *)
        let a, b = halves nodes in
        if o.binary_split && List.length a > 1 then pushes ctx st [ a; b ]
        else pushes ctx st (List.map (fun n -> [ n ]) nodes)

  let cfg_of_nodes ctx nodes = union ctx (List.map (fun n -> (n, entry_flag ctx)) nodes)

  let init ctx ~eval =
    let program = ctx.target.program in
    let empty = { queue = []; inflight = []; passing = []; seq = 0 } in
    (* one configuration per module *)
    let seed_default () =
      pushes ctx empty
        (List.filter_map
           (fun node -> if live_insns ctx node <> [] then Some [ node ] else None)
           (Static.tree program))
    in
    match ctx.options.shadow with
    | Some s when s.seed_predicted -> (
        (* Shadow seeding: evaluate the predicted configuration once. If it
           passes, its structures enter the passing set immediately and only
           the unpredicted remainder of the tree is queued; if it fails, the
           prediction bought nothing and the search seeds normally. *)
        let pred =
          List.filter (fun n -> live_insns ctx n <> []) (Shadow_report.predicted_nodes s.report)
        in
        match pred with
        | [] -> (seed_default (), [ "SHADOW seed: nothing predicted single" ])
        | pred -> (
            match eval (cfg_of_nodes ctx pred) with
            | Verdict.Pass ->
                let module ISet = Set.Make (Int) in
                let pred_addrs =
                  List.fold_left
                    (fun acc n ->
                      List.fold_left
                        (fun acc (i : Static.insn_info) -> ISet.add i.addr acc)
                        acc (live_insns ctx n))
                    ISet.empty pred
                in
                (* queue the not-yet-accepted remainder, descending just far
                   enough to carve the predicted structures out *)
                let rec residual node =
                  let insns = live_insns ctx node in
                  let predicted (i : Static.insn_info) = ISet.mem i.addr pred_addrs in
                  if insns = [] || List.for_all predicted insns then []
                  else if List.exists predicted insns then
                    List.concat_map residual (children_of node)
                  else [ node ]
                in
                let st =
                  { empty with passing = List.rev_map (fun n -> (n, entry_flag ctx)) pred }
                in
                ( pushes ctx st
                    (List.concat_map
                       (fun m -> List.map (fun n -> [ n ]) (residual m))
                       (Static.tree program)),
                  [
                    Printf.sprintf
                      "SHADOW seed: predicted configuration passes — %d structure(s) \
                       pre-accepted"
                      (List.length pred);
                  ] )
            | v ->
                ( seed_default (),
                  [
                    Printf.sprintf "SHADOW seed: predicted configuration %s — seeding normally"
                      (Verdict.verdict_label v);
                  ] )))
    | _ -> (seed_default (), [])

  let names it = String.concat " + " (List.map Static.node_name it.nodes)

  let propose ctx st =
    match st.queue with
    | [] -> (None, st)
    | queue ->
        let batch, rest = pop_batch ctx (max 1 ctx.options.workers) queue in
        (* shadow pruning: an item whose predicted divergence exceeds the
           hard bound is treated as a failure without spending an
           evaluation — the skip is logged and counted (never silent) and
           the item still descends, so finer-grained candidates
           below it are never lost. Items containing flips score infinity
           and are never pruned. *)
        let st, notes, kept =
          List.fold_left
            (fun (st, notes, kept) it ->
              match ctx.options.shadow with
              | Some ({ prune_above = Some bound; _ } as s)
                when Float.is_finite it.score && it.score > bound ->
                  s.on_pruned (cfg_of_nodes ctx it.nodes) it.score;
                  ( descend ctx st it,
                    Printf.sprintf "PRUNED %s (predicted divergence %.3e > bound %.3e)"
                      (names it) it.score bound
                    :: notes,
                    kept )
              | _ -> (st, notes, it :: kept))
            ({ st with queue = rest }, [], [])
            batch
        in
        let kept = List.rev kept in
        ( Some
            {
              configs = List.map (fun it -> cfg_of_nodes ctx it.nodes) kept;
              pruned = List.length batch - List.length kept;
              notes = List.rev notes;
            },
          { st with inflight = kept } )

  let consume ctx st verdicts =
    let st, lines =
      List.fold_left2
        (fun (st, lines) it v ->
          match v with
          | Verdict.Pass ->
              ( {
                  st with
                  passing = List.map (fun n -> (n, entry_flag ctx)) it.nodes @ st.passing;
                },
                Printf.sprintf "PASS %s (weight %d)" (names it) it.weight :: lines )
          | v ->
              ( descend ctx st it,
                Printf.sprintf "%s %s (weight %d)"
                  (String.uppercase_ascii (Verdict.verdict_label v))
                  (names it) it.weight
                :: lines ))
        ({ st with inflight = [] }, [])
        st.inflight verdicts
    in
    (st, List.rev lines)

  let flagged _ st = List.rev st.passing

  let interrupt st =
    match st.queue with
    | [] -> None
    | q ->
        Some
          (Printf.sprintf "INTERRUPTED with %d item(s) still queued — composing the partial result"
             (List.length q))
end

let breadth_first = (module Breadth_first : MACHINE)

(* ------------------------------------------------------------ driver *)

let drive (module M : MACHINE) ?(options = default_options) (target : Target.t) =
  let program = target.program in
  let counts = target.profile () in
  let base = options.base in
  (* The format lattice. The search moves at the [entry] format (the widest
     reduced format on the menu — [single] by default, reproducing the
     pre-lattice search exactly); formats cheaper than the entry are tried
     by the finish, cheapest first. [double] on the menu means "not
     replaced" and never enters the search. *)
  let menu =
    List.filter (fun f -> not (Formats.equal f Formats.double)) options.formats
    |> List.sort_uniq Formats.compare_cost
  in
  let entry = match List.rev menu with f :: _ -> f | [] -> Formats.single in
  let lower = List.filter (fun f -> Formats.compare_cost f entry < 0) menu in
  let universe =
    Array.to_list (Static.candidates program)
    |> List.filter (fun info -> Config.effective base info <> Config.Ignore)
  in
  let ctx = { target; options; counts; universe; entry } in
  let log = ref [] in
  let says lines = List.iter (fun s -> log := s :: !log) lines in
  let say fmt = Format.kasprintf (fun s -> says [ s ]) fmt in
  let tested = ref 0 in
  let pruned = ref 0 in
  (* The worker pool supervises every evaluation. A caller-supplied pool
     is reused (and left running); otherwise a transient one is staffed
     for this campaign when [workers > 1] asks for parallelism. *)
  let transient_pool =
    match options.pool with
    | None when options.workers > 1 ->
        Some (Pool.create ~options:{ Pool.default_options with workers = options.workers } ())
    | _ -> None
  in
  let pool = match options.pool with Some p -> Some p | None -> transient_pool in
  let drain_pool () =
    match pool with
    | None -> ()
    | Some p -> List.iter (fun e -> say "POOL %s" e) (Pool.drain_events p)
  in
  (* An evaluation must never abort the campaign: any exception escaping
     [target.eval] (a crashing verify routine, OOM, a stack overflow, ...)
     is this one configuration's classified failure, not the search's.
     Only the deliberate [Aborted] control exception passes through — it
     IS the campaign dying (kill simulation / operator interrupt); under a
     pool it ends one task instead, which the pool classifies. *)
  let verdict cfg =
    match target.eval cfg with
    | v -> v
    | exception Aborted -> raise Aborted
    | exception e -> Verdict.classify_exn e
  in
  let eval_wave cfgs =
    tested := !tested + List.length cfgs;
    match pool with
    | None -> List.map verdict cfgs
    | Some p -> Pool.run p (List.map (fun cfg () -> verdict cfg) cfgs)
  in
  let eval cfg = List.hd (eval_wave [ cfg ]) in
  let passes cfg = eval cfg = Verdict.Pass in
  (* --------------------------------------------------------------- waves *)
  (* [stop] is polled only at wave boundaries, so a stop request never cuts
     a wave in half *)
  let rec waves st =
    if options.stop () then (st, M.interrupt st)
    else
      match M.propose ctx st with
      | None, st -> (st, None)
      | Some w, st ->
          says w.notes;
          pruned := !pruned + w.pruned;
          let st, lines = M.consume ctx st (eval_wave w.configs) in
          says lines;
          drain_pool ();
          waves st
  in
  (* -------------------------------------------------------------- finish *)
  let compose flags =
    let final = union ctx flags in
    let pass = passes final in
    say "FINAL union of %d passing structures: %s" (List.length flags)
      (if pass then "pass" else "fail");
    if pass || not options.second_phase then (flags, final, pass)
    else begin
      (* Greedy composition: add individually-passing structures heaviest
         first, keeping only those that compose into a passing whole. *)
      let kept, final =
        List.fold_left
          (fun (kept, acc) ((node, fl) as unit) ->
            let trial = force_flag ~base fl acc node in
            if passes trial then begin
              say "COMPOSE keep %s" (Static.node_name node);
              (unit :: kept, trial)
            end
            else begin
              say "COMPOSE drop %s" (Static.node_name node);
              (kept, acc)
            end)
          ([], base)
          (List.stable_sort
             (fun (a, _) (b, _) -> compare (weight_of ctx [ b ]) (weight_of ctx [ a ]))
             flags)
      in
      (List.filter (fun unit -> List.memq unit kept) flags, final, true)
    end
  in
  let finish st ~interrupted =
    let flags = M.flagged ctx st in
    match M.finish with
    | Structures ->
        (* Lattice descent: every structure that passed at the entry format
           is retried alone at each strictly cheaper format, cheapest first;
           the first format that still verifies wins and the structure keeps
           that flag in the union. One structure failing to descend costs at
           most |menu|-1 evaluations and changes nothing else. *)
        let descend ((node, _) as kept) =
          let name = Static.node_name node in
          let rec try_fmts = function
            | [] -> kept
            | f :: rest -> (
                match eval (force_flag ~base (Config.of_format f) base node) with
                | Verdict.Pass ->
                    say "LATTICE %s descends to %s" name (Formats.name f);
                    (node, Config.of_format f)
                | v ->
                    say "LATTICE %s at %s: %s" name (Formats.name f) (Verdict.verdict_label v);
                    try_fmts rest)
          in
          if options.stop () then kept else try_fmts lower
        in
        (* most recently accepted first: the evaluation and stop-poll order
           the replay fixture pins *)
        let flags =
          if lower <> [] && not interrupted then List.rev_map descend (List.rev flags) else flags
        in
        let _, final, pass = compose flags in
        (final, pass, flags)
    | Instructions ->
        let kept, final, pass = compose flags in
        let kept, final =
          if interrupted || not pass then (kept, final)
          else begin
            (* greedy top-up: every candidate the machine left double gets
               one chance on top of the final set, heaviest first — each
               machine ends maximal over the same move set *)
            let addr node = (List.hd (Static.node_insns node)).Static.addr in
            let by_addr = List.sort (fun (a, _) (b, _) -> compare (addr a) (addr b)) in
            let heavier (a : Static.insn_info) (b : Static.insn_info) =
              match compare counts.(b.addr) counts.(a.addr) with
              | 0 -> compare a.addr b.addr
              | c -> c
            in
            let missing =
              List.filter
                (fun (i : Static.insn_info) ->
                  not (List.exists (fun (n, _) -> addr n = i.addr) kept))
                universe
            in
            let fs =
              List.fold_left
                (fun fs i ->
                  let trial = (Static.Insn i, entry_flag ctx) :: fs in
                  if passes (union ctx trial) then begin
                    say "TOPUP keep %s" (Static.node_name (Static.Insn i));
                    by_addr trial
                  end
                  else fs)
                kept
                (List.sort heavier missing)
            in
            (* per-instruction lattice descent, cheapest format first,
               keeping the whole configuration passing after every step *)
            let descend fs (node, _) =
              let rec try_fmts = function
                | [] -> fs
                | f :: rest ->
                    let flag = Config.of_format f in
                    let trial =
                      List.map (fun (n, fl) -> (n, if addr n = addr node then flag else fl)) fs
                    in
                    if passes (union ctx trial) then begin
                      say "LATTICE %s descends to %s" (Static.node_name node) (Formats.name f);
                      trial
                    end
                    else try_fmts rest
              in
              try_fmts lower
            in
            let fs = List.fold_left descend fs fs in
            (fs, union ctx fs)
          end
        in
        (final, pass, kept)
  in
  let run () =
    let st, lines = M.init ctx ~eval in
    says lines;
    let st, stopped = waves st in
    Option.iter (fun line -> says [ line ]) stopped;
    let final, final_pass, passing = finish st ~interrupted:(stopped <> None) in
    let replaced info =
      match Config.effective final info with
      | Config.Single | Config.Fmt _ -> true
      | Config.Double | Config.Ignore -> false
    in
    let n_candidates = List.length universe in
    let static_replaced = List.length (List.filter replaced universe) in
    (* the dynamic denominator counts every FP candidate execution, including
       Ignore-flagged instructions: ignored work is floating-point work that
       was not replaced *)
    let dyn_num, dyn_den =
      Array.fold_left
        (fun (num, den) (info : Static.insn_info) ->
          let c = counts.(info.addr) in
          ((if replaced info then num + c else num), den + c))
        (0, 0) (Static.candidates program)
    in
    drain_pool ();
    {
      final;
      final_pass;
      candidates = n_candidates;
      tested = !tested;
      static_replaced;
      static_pct = Stats.percent (float_of_int static_replaced) (float_of_int n_candidates);
      dynamic_pct = Stats.percent (float_of_int dyn_num) (float_of_int dyn_den);
      passing_nodes = List.map fst passing;
      passing_flags = passing;
      bits_saved = Config.bits_saved program final;
      log = List.rev !log;
      pruned = !pruned;
      interrupted = stopped <> None;
    }
  in
  match transient_pool with
  | None -> run ()
  | Some p -> Fun.protect ~finally:(fun () -> Pool.shutdown p) run

let search ?options target = drive breadth_first ?options target
