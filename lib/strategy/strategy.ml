(* ------------------------------------------------------------- tokens *)

type token = Bfs | Split | Delta | Anneal of int

let default_seed = 0x5eed

let to_string = function
  | Bfs -> "bfs"
  | Split -> "split"
  | Delta -> "delta"
  | Anneal s when s = default_seed -> "anneal"
  | Anneal s -> Printf.sprintf "anneal:%d" s

let of_string s =
  match String.trim (String.lowercase_ascii s) with
  | "" | "bfs" -> Ok Bfs
  | "split" -> Ok Split
  | "delta" -> Ok Delta
  | "anneal" -> Ok (Anneal default_seed)
  | t ->
      let pre = "anneal:" in
      let np = String.length pre in
      if String.length t > np && String.sub t 0 np = pre then
        match int_of_string_opt (String.sub t np (String.length t - np)) with
        | Some seed -> Ok (Anneal seed)
        | None -> Error (Printf.sprintf "strategy: bad anneal seed in %S" s)
      else
        Error
          (Printf.sprintf
             "strategy: unknown search strategy %S (expected bfs, split, delta \
              or anneal[:<seed>])"
             s)

(* ------------------------------------------------------ shared helpers *)

(* The machines below search the flat candidate set one instruction at a
   time: they finish with the top-up and in-place lattice descent, and a
   stop request always interrupts them. *)
module Flat = struct
  let finish = Bfs.Instructions
  let interrupt _ = Some "STOP requested: composing what was accepted so far"
end

type flagged = (Static.insn_info * Config.flag) list

let addr (i : Static.insn_info) = i.Static.addr
let count ctx i = ctx.Bfs.counts.(addr i)
let weight_of ctx insns = List.fold_left (fun a i -> a + count ctx i) 0 insns
let entry_flag ctx = Config.of_format ctx.Bfs.entry

let config_of_insns ctx insns =
  List.fold_left
    (fun acc i -> Config.set_insn acc (addr i) (entry_flag ctx))
    ctx.Bfs.options.base insns

(* the accepted set, as the driver composes it *)
let as_flagged fs =
  List.sort (fun (a, _) (b, _) -> compare (addr a) (addr b)) fs
  |> List.map (fun (i, fl) -> (Static.Insn i, fl))

let wave = function
  | [] -> None
  | configs -> Some { Bfs.configs; pruned = 0; notes = [] }

(* heaviest first, address ascending on ties — the deterministic order
   every count-driven choice below uses *)
let by_count_desc ctx insns =
  List.sort
    (fun a b ->
      match compare (count ctx b) (count ctx a) with
      | 0 -> compare (addr a) (addr b)
      | c -> c)
    insns

let by_count_asc ctx insns = List.rev (by_count_desc ctx insns)
let mem_addr insns i = List.exists (fun j -> addr j = addr i) insns
let diff all chosen = List.filter (fun i -> not (mem_addr chosen i)) all

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] xs

(* -------------------------------------------------------------- split *)

(* Count-weighted binary splitting over the flat candidate set: the
   paper's own optimization pushed harder. One group holding the whole
   universe seeds the queue; a failing group splits into two halves of
   (approximately) equal dynamic execution weight instead of equal
   cardinality, so the expensive half keeps getting isolated first. *)
module Split_m : Bfs.MACHINE = struct
  include Flat

  let name = "split"

  type group = { insns : Static.insn_info list; weight : int }

  type state = {
    queue : group list;
    inflight : group list;
    accepted : flagged;
    rejected : int;
  }

  let group ctx insns = { insns; weight = weight_of ctx insns }

  let init ctx ~eval:_ =
    let all = ctx.Bfs.universe in
    let queue = if all = [] then [] else [ group ctx all ] in
    ( { queue; inflight = []; accepted = []; rejected = 0 },
      [
        Printf.sprintf "SPLIT %d candidates, total weight %d"
          (List.length all) (weight_of ctx all);
      ] )

  let propose ctx st =
    let width = max 1 ctx.Bfs.options.workers in
    let sorted =
      List.sort
        (fun a b ->
          match compare b.weight a.weight with
          | 0 -> compare (List.map addr a.insns) (List.map addr b.insns)
          | c -> c)
        st.queue
    in
    let batch, rest = take width sorted in
    ( wave (List.map (fun g -> config_of_insns ctx g.insns) batch),
      { st with queue = rest; inflight = batch } )

  (* split heaviest-first, each instruction joining the lighter half, so
     both halves carry about the same dynamic weight *)
  let halves ctx g =
    let wa = ref 0 and wb = ref 0 in
    let a = ref [] and b = ref [] in
    List.iter
      (fun i ->
        if !wa <= !wb then begin
          a := i :: !a;
          wa := !wa + count ctx i
        end
        else begin
          b := i :: !b;
          wb := !wb + count ctx i
        end)
      (by_count_desc ctx g.insns);
    (group ctx (List.rev !a), group ctx (List.rev !b))

  let consume ctx st verdicts =
    let lines = ref [] in
    let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
    let st =
      List.fold_left2
        (fun st g v ->
          match v with
          | Verdict.Pass ->
              say "SPLIT pass: group of %d (weight %d)" (List.length g.insns)
                g.weight;
              {
                st with
                accepted =
                  st.accepted @ List.map (fun i -> (i, entry_flag ctx)) g.insns;
              }
          | v ->
              say "SPLIT %s: group of %d (weight %d)" (Verdict.verdict_label v)
                (List.length g.insns) g.weight;
              if List.length g.insns <= 1 then
                { st with rejected = st.rejected + 1 }
              else begin
                let a, b = halves ctx g in
                { st with queue = a :: b :: st.queue }
              end)
        { st with inflight = [] }
        st.inflight verdicts
    in
    (st, List.rev !lines)

  let flagged _ st = as_flagged st.accepted
end

(* -------------------------------------------------------------- delta *)

(* Precimonious-style delta-debugging over the flag set: shrink the
   active set with complements of ever-finer partitions until some subset
   passes, then grow the removed instructions back one at a time,
   coldest first (they are the most likely to be tolerable). *)
module Delta_m : Bfs.MACHINE = struct
  include Flat

  let name = "delta"

  type phase =
    | Probe  (** test the whole active set next *)
    | Await_probe
    | Await_chunks of int * Static.insn_info list list
        (** granularity, the complement sets proposed this wave *)
    | Grow of Static.insn_info list  (** still to try adding back *)
    | Await_grow of Static.insn_info * Static.insn_info list
    | Finished

  type state = { phase : phase; active : Static.insn_info list }

  let init ctx ~eval:_ =
    ( { phase = Probe; active = ctx.Bfs.universe },
      [ Printf.sprintf "DELTA %d candidates" (List.length ctx.Bfs.universe) ] )

  let chunks g xs =
    let n = List.length xs in
    let size = max 1 ((n + g - 1) / g) in
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if k = size then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (k + 1) rest
    in
    go [] [] 0 xs

  let start_grow ctx active =
    let removed = by_count_asc ctx (diff ctx.Bfs.universe active) in
    match removed with
    | [] -> { phase = Finished; active }
    | _ -> { phase = Grow removed; active }

  let next ctx st =
    match st.phase with
    | Probe -> ([ config_of_insns ctx st.active ], { st with phase = Await_probe })
    | Grow (i :: rest) ->
        ( [ config_of_insns ctx (i :: st.active) ],
          { st with phase = Await_grow (i, rest) } )
    | Grow [] | Finished -> ([], { st with phase = Finished })
    | Await_probe | Await_chunks _ | Await_grow _ -> ([], st)

  let shrink_wave ctx st g =
    (* propose every complement of the g-partition at once; consume keeps
       the first passing one (proposal order), exactly the choice the
       sequential ddmin loop would make *)
    let cs =
      List.map (fun c -> diff st.active c) (chunks g st.active)
      |> List.filter (fun c -> c <> [])
    in
    match cs with
    | [] -> ([], start_grow ctx [])
    | _ ->
        ( List.map (config_of_insns ctx) cs,
          { st with phase = Await_chunks (g, cs) } )

  let propose ctx st =
    let cfgs, st =
      match st.phase with
      | Await_chunks (g, []) -> shrink_wave ctx st g
      | _ -> next ctx st
    in
    (wave cfgs, st)

  let consume ctx st verdicts =
    let say fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
    match (st.phase, verdicts) with
    | Await_probe, [ Verdict.Pass ] ->
        ( start_grow ctx st.active,
          say "DELTA active set of %d passes" (List.length st.active) )
    | Await_probe, [ _ ] ->
        if List.length st.active <= 1 then
          ( start_grow ctx [],
            say "DELTA active set fails and cannot shrink; growing from empty" )
        else
          (* signal propose to emit the g=2 complement wave *)
          ( { st with phase = Await_chunks (2, []) },
            say "DELTA active set of %d fails; shrinking" (List.length st.active)
          )
    | Await_chunks (g, cs), verdicts -> (
        let passing =
          List.find_opt (fun (_, v) -> v = Verdict.Pass) (List.combine cs verdicts)
        in
        match passing with
        | Some (smaller, _) ->
            ( start_grow ctx smaller,
              say "DELTA complement of %d passes" (List.length smaller) )
        | None ->
            if g >= List.length st.active then
              ( start_grow ctx [],
                say "DELTA no complement passes at granularity %d; growing \
                     from empty"
                  g )
            else
              ( {
                  st with
                  phase = Await_chunks (min (List.length st.active) (2 * g), []);
                },
                say "DELTA granularity %d -> %d" g (2 * g) ))
    | Await_grow (i, rest), [ v ] ->
        let st =
          if v = Verdict.Pass then { phase = Grow rest; active = i :: st.active }
          else { st with phase = Grow rest }
        in
        ( st,
          say "DELTA grow %s: %s"
            (Printf.sprintf "0x%06x" (addr i))
            (Verdict.verdict_label v) )
    | _, _ -> (st, [])

  let flagged ctx st =
    match st.phase with
    | Probe | Await_probe | Await_chunks _ ->
        (* mid-shrink the active set is not known to pass; persist nothing *)
        []
    | Grow _ | Await_grow _ | Finished ->
        as_flagged (List.map (fun i -> (i, entry_flag ctx)) st.active)
end

(* ------------------------------------------------------------- anneal *)

(* Shadow-seeded greedy descent with bounded random restarts. The shadow
   report's predicted configuration (when the campaign carries one) seeds
   the current solution; a greedy sweep then offers every remaining
   candidate in seeded-random order; a local optimum triggers a restart
   that randomly evicts ~1/3 of the solution and re-sweeps. Deterministic
   from the explicit seed: every random draw comes from one [Rng] stream,
   and evaluation order is strictly sequential. *)
let anneal_machine seed : (module Bfs.MACHINE) =
  (module struct
    include Flat

    let name = to_string (Anneal seed)

    type state = {
      rng : Rng.t;
      current : Static.insn_info list;
      best : Static.insn_info list;
      sweep : Static.insn_info list;
      restarts_left : int;
      phase : [ `Seed | `Sweep | `Await of Static.insn_info | `Finished ];
    }

    let restarts = 2

    let shuffled rng insns =
      let a = Array.of_list insns in
      Rng.shuffle rng a;
      Array.to_list a

    let init ctx ~eval:_ =
      let rng = Rng.create seed in
      let predicted =
        match ctx.Bfs.options.shadow with
        | Some s ->
            List.concat_map Static.node_insns
              (Shadow_report.predicted_nodes s.Bfs.report)
            |> List.filter (mem_addr ctx.Bfs.universe)
        | None -> []
      in
      match predicted with
      | [] ->
          ( {
              rng;
              current = [];
              best = [];
              sweep = shuffled rng ctx.Bfs.universe;
              restarts_left = restarts;
              phase = `Sweep;
            },
            [ "ANNEAL no shadow seed; greedy sweep from empty" ] )
      | p ->
          ( {
              rng;
              current = p;
              best = [];
              sweep = [];
              restarts_left = restarts;
              phase = `Seed;
            },
            [ Printf.sprintf "ANNEAL shadow seed: %d predicted" (List.length p) ] )

    let next ctx st =
      match st.phase with
      | `Seed -> ([ config_of_insns ctx st.current ], st)
      | `Sweep -> (
          match st.sweep with
          | [] -> ([], st)  (* consume never leaves an exhausted sweep *)
          | i :: rest ->
              ( [ config_of_insns ctx (i :: st.current) ],
                { st with sweep = rest; phase = `Await i } ))
      | `Await _ | `Finished -> ([], st)

    let propose ctx st =
      let cfgs, st = next ctx st in
      (wave cfgs, st)

    (* a sweep ended: either restart (evicting a random ~1/3) or finish *)
    let rec settle ctx st lines =
      if st.sweep <> [] then (st, lines)
      else begin
        let best =
          if List.length st.current > List.length st.best then st.current
          else st.best
        in
        if st.restarts_left = 0 then
          ( { st with best; phase = `Finished },
            lines
            @ [
                Printf.sprintf "ANNEAL done: best solution keeps %d"
                  (List.length best);
              ] )
        else begin
          let keep = List.filter (fun _ -> Rng.int st.rng 3 > 0) st.current in
          let line =
            Printf.sprintf "ANNEAL restart: evicted %d of %d, %d restarts left"
              (List.length st.current - List.length keep)
              (List.length st.current)
              (st.restarts_left - 1)
          in
          let st =
            {
              st with
              best;
              current = keep;
              sweep = shuffled st.rng (diff ctx.Bfs.universe keep);
              restarts_left = st.restarts_left - 1;
              phase = `Sweep;
            }
          in
          settle ctx st (lines @ [ line ])
        end
      end

    let consume ctx st verdicts =
      match (st.phase, verdicts) with
      | `Seed, [ v ] ->
          let ok = v = Verdict.Pass in
          let current = if ok then st.current else [] in
          let st =
            {
              st with
              current;
              sweep = shuffled st.rng (diff ctx.Bfs.universe current);
              phase = `Sweep;
            }
          in
          settle ctx st
            [
              Printf.sprintf "ANNEAL shadow seed %s"
                (if ok then "passes" else "fails; starting empty");
            ]
      | `Await i, [ v ] ->
          let st =
            if v = Verdict.Pass then
              { st with current = i :: st.current; phase = `Sweep }
            else { st with phase = `Sweep }
          in
          settle ctx st []
      | _, _ -> (st, [])

    let flagged ctx st =
      let chosen =
        match st.phase with
        | `Finished -> st.best
        | _ ->
            if List.length st.current > List.length st.best then st.current
            else st.best
      in
      as_flagged (List.map (fun i -> (i, entry_flag ctx)) chosen)
  end)

let machine = function
  | Bfs -> Bfs.breadth_first
  | Split -> (module Split_m : Bfs.MACHINE)
  | Delta -> (module Delta_m : Bfs.MACHINE)
  | Anneal seed -> anneal_machine seed

let run ?options token target = Bfs.drive (machine token) ?options target
