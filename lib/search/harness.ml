(* The verdict taxonomy, its serialization and the total classifier now
   live in {!Verdict}, below {!Pool} and {!Bfs}; re-export them here with
   type equations so existing [Harness.Pass] etc. keep working. *)

type verdict = Verdict.verdict =
  | Pass
  | Fail_verify
  | Trapped of int * string
  | Step_timeout
  | Crashed of string
  | Pruned of string

let verdict_label = Verdict.verdict_label
let verdict_to_string = Verdict.verdict_to_string
let verdict_of_string = Verdict.verdict_of_string
let pp_verdict = Verdict.pp_verdict
let classify = Verdict.classify

type counters = {
  mutable evaluations : int;
  mutable attempts : int;
  mutable pass : int;
  mutable fail_verify : int;
  mutable trapped : int;
  mutable timed_out : int;
  mutable crashed : int;
  mutable retried : int;
  mutable backoff_units : int;
}

type t = {
  raw : Config.t -> bool;
  retries : int;
  backoff : int;
  retry_fail_verify : bool;
  cache : Compile.cache option;
  c : counters;
  lock : Mutex.t;
}

let make ?(retries = 0) ?(backoff = 1) ?(retry_fail_verify = false) ?cache raw =
  {
    raw;
    retries = max 0 retries;
    backoff = max 0 backoff;
    retry_fail_verify;
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
        backoff_units = 0;
      };
    lock = Mutex.create ();
  }

let counters t = t.c

let counters_list t =
  Mutex.protect t.lock (fun () ->
      [
        ("evaluations", t.c.evaluations);
        ("attempts", t.c.attempts);
        ("pass", t.c.pass);
        ("fail_verify", t.c.fail_verify);
        ("trapped", t.c.trapped);
        ("timed_out", t.c.timed_out);
        ("crashed", t.c.crashed);
        ("retried", t.c.retried);
        ("backoff_units", t.c.backoff_units);
      ])

let restore_counters t kvs =
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (k, v) ->
          match k with
          | "evaluations" -> t.c.evaluations <- v
          | "attempts" -> t.c.attempts <- v
          | "pass" -> t.c.pass <- v
          | "fail_verify" -> t.c.fail_verify <- v
          | "trapped" -> t.c.trapped <- v
          | "timed_out" -> t.c.timed_out <- v
          | "crashed" -> t.c.crashed <- v
          | "retried" -> t.c.retried <- v
          | "backoff_units" -> t.c.backoff_units <- v
          | _ -> ())
        kvs)

let tally t v =
  Mutex.protect t.lock (fun () ->
      t.c.attempts <- t.c.attempts + 1;
      match v with
      | Pass -> t.c.pass <- t.c.pass + 1
      | Fail_verify -> t.c.fail_verify <- t.c.fail_verify + 1
      | Trapped _ -> t.c.trapped <- t.c.trapped + 1
      | Step_timeout -> t.c.timed_out <- t.c.timed_out + 1
      | Crashed _ -> t.c.crashed <- t.c.crashed + 1
      (* pruned candidates never reach the harness: the search skips the
         evaluation entirely and journals the verdict itself *)
      | Pruned _ -> ())

let wants_retry t = function
  | Trapped _ | Step_timeout | Crashed _ -> true
  | Fail_verify -> t.retry_fail_verify
  | Pass | Pruned _ -> false

(* Ceiling on a single modeled backoff delay: 2^20 units. Exponential
   backoff doubles per attempt, and [1 lsl attempt] overflows to garbage
   (or 0) past attempt 62 — a harness configured with a large retry budget
   must saturate, not wrap. *)
let max_backoff_unit = 1 lsl 20

let backoff_delay ~base attempt =
  if base = 0 then 0
  else if attempt >= 20 || base >= max_backoff_unit then max_backoff_unit
  else min max_backoff_unit (base lsl attempt)

let eval t cfg =
  Mutex.protect t.lock (fun () -> t.c.evaluations <- t.c.evaluations + 1);
  let attempt_once () =
    let v = classify (fun () -> t.raw cfg) in
    tally t v;
    v
  in
  let rec go attempt v =
    if (not (wants_retry t v)) || attempt >= t.retries then v
    else begin
      (* deterministic exponential backoff, in modeled delay units — the VM
         world has no wall clock, so the delay is accounted, not slept;
         each delay saturates at [max_backoff_unit] *)
      Mutex.protect t.lock (fun () ->
          t.c.retried <- t.c.retried + 1;
          t.c.backoff_units <- t.c.backoff_units + backoff_delay ~base:t.backoff attempt);
      go (attempt + 1) (attempt_once ())
    end
  in
  go 0 (attempt_once ())

let eval_bool t cfg = match eval t cfg with Pass -> true | _ -> false

let report t =
  let c = t.c in
  let base =
    Printf.sprintf
      "verdicts: pass=%d fail=%d trap=%d timeout=%d crash=%d | %d evaluations, %d attempts, %d retried, backoff %d units"
      c.pass c.fail_verify c.trapped c.timed_out c.crashed c.evaluations c.attempts c.retried
      c.backoff_units
  in
  match t.cache with None -> base | Some cc -> base ^ " | " ^ Compile.report cc

let wrap_target ?retries ?backoff ?retry_fail_verify (target : Bfs.Target.t) =
  let h =
    make ?retries ?backoff ?retry_fail_verify ?cache:target.Bfs.Target.code_cache
      target.Bfs.Target.raw_eval
  in
  (h, { target with Bfs.Target.eval = (fun cfg -> eval_bool h cfg) })
