type stats = { hits : int; misses : int; entries : int }

let hit_rate s =
  let n = s.hits + s.misses in
  if n = 0 then 0.0 else float_of_int s.hits /. float_of_int n

(* Buckets are association lists compared by structural equality on the
   witness. A digest would be cheaper to compare, but a collision would
   silently splice the wrong compiled block into a run — the witness IS
   the precision slice, so equality is self-validating. Buckets stay tiny:
   within one search campaign a block has at most a handful of distinct
   precision slices (the patcher's layout is config-invariant, so flipping
   a function Single<->Double yields the same labels with different
   instruction precisions). *)
type ('w, 'v) t = {
  tbl : (string * int, ('w * 'v) list ref) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable entries : int;
}

let create () =
  {
    tbl = Hashtbl.create 256;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    entries = 0;
  }

let find_or_add t ~fname ~label ~witness compile =
  Mutex.lock t.lock;
  let key = (fname, label) in
  let bucket =
    match Hashtbl.find_opt t.tbl key with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.tbl key b;
        b
  in
  let rec lookup = function
    | [] -> None
    | (w, v) :: rest -> if compare w witness = 0 then Some v else lookup rest
  in
  match lookup !bucket with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | None -> (
      (* compile inside the lock: compilation is cheap next to an
         evaluation, and serializing it keeps the bucket free of duplicate
         entries when several worker domains link the same wave *)
      match compile () with
      | v ->
          t.misses <- t.misses + 1;
          t.entries <- t.entries + 1;
          bucket := (witness, v) :: !bucket;
          Mutex.unlock t.lock;
          v
      | exception e ->
          Mutex.unlock t.lock;
          raise e)

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses; entries = t.entries } in
  Mutex.unlock t.lock;
  s

let report t =
  let s = stats t in
  Printf.sprintf "code cache: %d hits / %d misses (%.1f%% hit rate, %d compiled blocks)"
    s.hits s.misses (100.0 *. hit_rate s) s.entries
