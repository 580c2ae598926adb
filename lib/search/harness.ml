type counters = {
  mutable evaluations : int;
  mutable attempts : int;
  mutable pass : int;
  mutable fail_verify : int;
  mutable trapped : int;
  mutable timed_out : int;
  mutable crashed : int;
  mutable retried : int;
}

type t = {
  raw : Config.t -> bool;
  retries : int;
  cache : Compile.cache option;
  c : counters;
  lock : Mutex.t;
}

let make ?(retries = 0) ?cache raw =
  {
    raw;
    retries = max 0 retries;
    cache;
    c =
      {
        evaluations = 0;
        attempts = 0;
        pass = 0;
        fail_verify = 0;
        trapped = 0;
        timed_out = 0;
        crashed = 0;
        retried = 0;
      };
    lock = Mutex.create ();
  }

let counters t = t.c

let tally t v =
  Mutex.protect t.lock (fun () ->
      t.c.attempts <- t.c.attempts + 1;
      match (v : Verdict.verdict) with
      | Pass -> t.c.pass <- t.c.pass + 1
      | Fail_verify -> t.c.fail_verify <- t.c.fail_verify + 1
      | Trapped _ -> t.c.trapped <- t.c.trapped + 1
      | Step_timeout -> t.c.timed_out <- t.c.timed_out + 1
      | Crashed _ -> t.c.crashed <- t.c.crashed + 1
      (* pruned candidates never reach the harness: the search skips the
         evaluation entirely *)
      | Pruned _ -> ())

let eval t cfg =
  Mutex.protect t.lock (fun () -> t.c.evaluations <- t.c.evaluations + 1);
  let attempt_once () =
    let v = Verdict.classify (fun () -> t.raw cfg) in
    tally t v;
    v
  in
  let rec go attempt v =
    if (not (Verdict.is_flaky v)) || attempt >= t.retries then v
    else begin
      Mutex.protect t.lock (fun () -> t.c.retried <- t.c.retried + 1);
      go (attempt + 1) (attempt_once ())
    end
  in
  go 0 (attempt_once ())

let report t =
  let c = t.c in
  let base =
    Printf.sprintf
      "verdicts: pass=%d fail=%d trap=%d timeout=%d crash=%d | %d evaluations, %d attempts, %d retried"
      c.pass c.fail_verify c.trapped c.timed_out c.crashed c.evaluations c.attempts c.retried
  in
  match t.cache with None -> base | Some cc -> base ^ " | " ^ Compile.report cc

let wrap_target ?retries (target : Bfs.Target.t) =
  let h = make ?retries ?cache:target.Bfs.Target.code_cache target.Bfs.Target.raw_eval in
  (h, { target with Bfs.Target.eval = eval h })
