(* QCheck2 fuzz for the campaign-server wire codec: every frame type
   round-trips bit-exactly, and hostile byte streams (truncations, garbage,
   oversized or lying length prefixes, wrong version, unknown tags,
   trailing bytes) always produce a typed decode error, never an
   exception. *)

let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

open QCheck2.Gen

(* strings over the full byte range, newlines and NULs included *)
let raw_string = string_size ~gen:(char_range '\x00' '\xff') (int_bound 24)

let float_gen =
  (* finite, NaN, infinities — the codec ships IEEE-754 bits, so all must
     round-trip (NaN compared bitwise below) *)
  oneof [ float; return Float.nan; return Float.infinity; return 0.0 ]

let spec_gen =
  map
    (fun ((bench, cls, shadow, priority, eval_steps), formats, strategy) ->
      { Wire.bench; cls; shadow; priority; eval_steps; formats; strategy })
    (triple (tup5 raw_string raw_string bool int (option int)) raw_string raw_string)

let state_gen =
  oneof
    [
      return Wire.Queued;
      return Wire.Running;
      return Wire.Done;
      return Wire.Cancelled;
      map (fun s -> Wire.Failed s) raw_string;
      map (fun s -> Wire.Quarantined s) raw_string;
    ]

let status_gen =
  map
    (fun ((id, spec, state), (tested, store_hits, store_misses, wall)) ->
      { Wire.id; spec; state; tested; store_hits; store_misses; wall })
    (pair (tup3 raw_string spec_gen state_gen) (tup4 nat nat nat float_gen))

let server_stats_gen =
  map
    (fun ((submitted, completed, failed, cancelled, running),
          (queued, hits, misses, entries),
          (cache_hits, cache_misses, uptime)) ->
      {
        Wire.submitted;
        completed;
        failed;
        cancelled;
        running;
        queued;
        store = { Wire.hits; misses; entries };
        cache_hits;
        cache_misses;
        uptime;
      })
    (tup3 (tup5 nat nat nat nat nat) (tup4 nat nat nat nat) (tup3 nat nat float_gen))

(* [inject] is inline-only: the codec never carries it *)
let batch_gen =
  map
    (fun ((lease, bench, cls), (eval_steps, retries, items)) ->
      { Wire.lease; context = { bench; cls; eval_steps; retries; inject = None }; items })
    (pair
       (tup3 raw_string raw_string raw_string)
       (tup3 (option int) nat (list_size (int_bound 5) (pair raw_string raw_string))))

let frame_gen =
  oneof
    [
      map (fun s -> Wire.Submit s) spec_gen;
      map (fun j -> Wire.Status j) (option raw_string);
      map (fun (job, from) -> Wire.Events { job; from }) (pair raw_string nat);
      map (fun j -> Wire.Result j) raw_string;
      map (fun j -> Wire.Cancel j) raw_string;
      return Wire.Stats;
      map (fun j -> Wire.Accepted j) raw_string;
      map (fun l -> Wire.Status_reply l) (list_size (int_bound 4) status_gen);
      map
        (fun (next, events, final) -> Wire.Events_reply { next; events; final })
        (tup3 nat (list_size (int_bound 6) raw_string) bool);
      map
        (fun (status, config_text, summary) ->
          Wire.Result_reply { status; config_text; summary })
        (tup3 status_gen raw_string raw_string);
      map (fun b -> Wire.Cancel_reply b) bool;
      map (fun s -> Wire.Stats_reply s) server_stats_gen;
      map (fun s -> Wire.Error_reply s) raw_string;
      (* protocol v2: the worker-fleet frames *)
      map
        (fun ((name, wire_version, reconnect), capacity) ->
          Wire.Worker_hello { name; wire_version; reconnect; capacity })
        (pair (tup3 raw_string nat (option raw_string)) nat);
      map
        (fun (worker, capacity) -> Wire.Lease_request { worker; capacity })
        (pair raw_string nat);
      map
        (fun ((worker, lease), results) -> Wire.Result_push { worker; lease; results })
        (pair (pair raw_string raw_string)
           (list_size (int_bound 5) (pair raw_string raw_string)));
      map
        (fun ((worker, lease), completed) -> Wire.Heartbeat { worker; lease; completed })
        (pair (pair raw_string (option raw_string)) nat);
      map (fun w -> Wire.Goodbye w) raw_string;
      map
        (fun ((worker, wire_version), (heartbeat_every, lease_ttl, already_done)) ->
          Wire.Worker_welcome
            { worker; wire_version; heartbeat_every; lease_ttl; already_done })
        (pair (pair raw_string nat)
           (tup3 float_gen float_gen (list_size (int_bound 5) raw_string)));
      map (fun b -> Wire.Lease_reply b) (option batch_gen);
      map (fun (accepted, ignored) -> Wire.Result_ack { accepted; ignored }) (pair nat nat);
      map (fun abandon -> Wire.Heartbeat_ack { abandon }) bool;
      map (fun requeued -> Wire.Goodbye_ack { requeued }) nat;
    ]

(* structural equality with floats compared by bit pattern (NaN-safe) *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let status_eq (a : Wire.job_status) (b : Wire.job_status) =
  a.Wire.id = b.Wire.id && a.Wire.spec = b.Wire.spec && a.Wire.state = b.Wire.state
  && a.Wire.tested = b.Wire.tested
  && a.Wire.store_hits = b.Wire.store_hits
  && a.Wire.store_misses = b.Wire.store_misses
  && feq a.Wire.wall b.Wire.wall

let frame_eq (a : Wire.frame) (b : Wire.frame) =
  match (a, b) with
  | Wire.Status_reply xs, Wire.Status_reply ys ->
      List.length xs = List.length ys && List.for_all2 status_eq xs ys
  | Wire.Result_reply ra, Wire.Result_reply rb ->
      status_eq ra.status rb.status
      && ra.config_text = rb.config_text
      && ra.summary = rb.summary
  | Wire.Stats_reply sa, Wire.Stats_reply sb ->
      { sa with Wire.uptime = 0.0 } = { sb with Wire.uptime = 0.0 }
      && feq sa.Wire.uptime sb.Wire.uptime
  | Wire.Worker_welcome wa, Wire.Worker_welcome wb ->
      wa.worker = wb.worker
      && wa.wire_version = wb.wire_version
      && feq wa.heartbeat_every wb.heartbeat_every
      && feq wa.lease_ttl wb.lease_ttl
      && wa.already_done = wb.already_done
  | a, b -> a = b

let decode_all buf ~pos ~len = Wire.decode buf ~pos ~len

(* 1. round trip: decode (encode f) = f, consuming the whole buffer *)
let roundtrip =
  qt ~count:1000 "wire: encode/decode round trip" frame_gen (fun f ->
      let buf = Wire.encode f in
      match decode_all buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok (g, consumed) -> consumed = Bytes.length buf && frame_eq f g
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" (Wire.error_to_string e))

(* 2. framing: two concatenated frames decode back to back *)
let concatenated =
  qt ~count:300 "wire: concatenated frames" (pair frame_gen frame_gen) (fun (a, b) ->
      let ba = Wire.encode a and bb = Wire.encode b in
      let buf = Bytes.concat Bytes.empty [ ba; bb ] in
      match decode_all buf ~pos:0 ~len:(Bytes.length buf) with
      | Error _ -> false
      | Ok (a', used) -> (
          frame_eq a a'
          &&
          match decode_all buf ~pos:used ~len:(Bytes.length buf - used) with
          | Ok (b', used') -> frame_eq b b' && used + used' = Bytes.length buf
          | Error _ -> false))

(* 3. truncation: any proper prefix is Need_more, never a crash *)
let truncated =
  qt ~count:500 "wire: truncated frames ask for more" (pair frame_gen (int_bound 1000))
    (fun (f, cut) ->
      let buf = Wire.encode f in
      let len = cut mod Bytes.length buf in
      match decode_all buf ~pos:0 ~len with
      | Error (Wire.Need_more n) -> n > 0 && len + n <= Bytes.length buf
      | Ok _ | Error _ -> false)

(* 4. garbage: decoding random bytes never raises *)
let garbage_total =
  qt ~count:1000 "wire: random bytes never raise"
    (string_size ~gen:(char_range '\x00' '\xff') (int_bound 64))
    (fun s ->
      let buf = Bytes.of_string s in
      match decode_all buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok _ | Error _ -> true)

(* 5. bit flips in a valid frame never raise; header flips give the right
   typed error *)
let flipped =
  qt ~count:1000 "wire: single byte corruption never raises"
    (tup3 frame_gen nat (int_range 1 255))
    (fun (f, at, delta) ->
      let buf = Wire.encode f in
      let i = at mod Bytes.length buf in
      Bytes.set buf i (Char.chr ((Char.code (Bytes.get buf i) + delta) land 0xff));
      match decode_all buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok _ | Error _ -> true)

let show_result = function
  | Ok (_, n) -> Printf.sprintf "Ok (frame, %d)" n
  | Error e -> "Error: " ^ Wire.error_to_string e

let hostile_header () =
  let ok = Wire.encode Wire.Stats in
  (* wrong version byte -> Bad_version with the offending byte *)
  let bad_version = Bytes.copy ok in
  Bytes.set bad_version 4 '\x07';
  (match Wire.decode bad_version ~pos:0 ~len:(Bytes.length bad_version) with
  | Error (Wire.Bad_version 7) -> ()
  | r -> Alcotest.failf "wrong version: got %s" (show_result r));
  (* unknown tag -> Bad_tag *)
  let bad_tag = Bytes.copy ok in
  Bytes.set bad_tag 5 '\xee';
  (match Wire.decode bad_tag ~pos:0 ~len:(Bytes.length bad_tag) with
  | Error (Wire.Bad_tag 0xee) -> ()
  | r -> Alcotest.failf "unknown tag: got %s" (show_result r));
  (* length prefix above max_frame -> Oversized, rejected before allocation *)
  let oversized = Bytes.of_string "\xff\xff\xff\xff" in
  (match Wire.decode oversized ~pos:0 ~len:4 with
  | Error (Wire.Oversized _) -> ()
  | r -> Alcotest.failf "oversized: got %s" (show_result r));
  (* announced length longer than the real body -> trailing garbage *)
  let trailing =
    let b = Wire.encode (Wire.Cancel_reply true) in
    Bytes.concat Bytes.empty [ b; Bytes.make 3 'x' ]
  in
  (* rewrite the length prefix to claim the 3 junk bytes *)
  let n = Bytes.length trailing - 4 in
  Bytes.set trailing 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set trailing 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set trailing 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set trailing 3 (Char.chr (n land 0xff));
  (match Wire.decode trailing ~pos:0 ~len:(Bytes.length trailing) with
  | Error (Wire.Malformed _) -> ()
  | r -> Alcotest.failf "trailing bytes: got %s" (show_result r));
  (* a string field whose own length prefix lies about the payload *)
  let lying = Wire.encode (Wire.Result "abcdef") in
  (* the string length lives right after version+tag; inflate it *)
  Bytes.set lying 9 '\xff';
  match Wire.decode lying ~pos:0 ~len:(Bytes.length lying) with
  | Error (Wire.Malformed _) -> ()
  | r -> Alcotest.failf "lying string length: got %s" (show_result r)

(* protocol-version gating: legacy frames still ship as v1 (old daemons
   keep decoding them), fleet frames ship as v2, and a fleet tag smuggled
   under a v1 header is refused as an unknown tag — v1 never grew new
   tags retroactively *)
let version_gating () =
  let legacy = Wire.encode Wire.Stats in
  (match Bytes.get legacy 4 with
  | '\x01' -> ()
  | c -> Alcotest.failf "legacy frame claims version %d" (Char.code c));
  let fleet = Wire.encode (Wire.Lease_request { worker = "w"; capacity = 3 }) in
  (match Bytes.get fleet 4 with
  | '\x02' -> ()
  | c -> Alcotest.failf "fleet frame claims version %d" (Char.code c));
  (match Wire.decode fleet ~pos:0 ~len:(Bytes.length fleet) with
  | Ok (Wire.Lease_request { worker = "w"; capacity = 3 }, _) -> ()
  | r -> Alcotest.failf "fleet frame: got %s" (show_result r));
  let downgraded = Bytes.copy fleet in
  Bytes.set downgraded 4 '\x01';
  match Wire.decode downgraded ~pos:0 ~len:(Bytes.length downgraded) with
  | Error (Wire.Bad_tag _) -> ()
  | r -> Alcotest.failf "downgraded fleet frame: got %s" (show_result r)

(* The wire codec is content-agnostic about the format menu: hostile menus
   (unknown tokens, control bytes, embedded NULs) travel intact as Submit
   payloads and are rejected by the schedulers's typed validation, never by
   the codec — and config exchange texts smuggling an unknown format token
   ride batches unharmed, to be refused by the worker's Config.parse. *)
let hostile_formats_payload () =
  List.iter
    (fun menu ->
      let f = Wire.Submit { Wire.bench = "cg"; cls = "W"; shadow = false;
                            priority = 0; eval_steps = None; formats = menu;
                            strategy = "" } in
      let buf = Wire.encode f in
      match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok (Wire.Submit s, _) ->
          Alcotest.check Alcotest.string "menu intact" menu s.Wire.formats;
          (* the validation layer, not the codec, rejects it *)
          Alcotest.check Alcotest.bool "menu refused by validation" true
            (Result.is_error (Formats.menu_of_string menu))
      | r -> Alcotest.failf "hostile menu: got %s" (show_result r))
    [ "zz9"; "bf16,\x00,single"; "e99m99"; "\xff\xfe"; "bf16;single" ];
  (* a batch item whose config text carries an unknown format flag decodes
     fine; rejecting the text is the worker's job *)
  let hostile_text = "e9m9 MODULE: cg" in
  let b =
    Wire.Lease_reply
      (Some
         {
           Wire.lease = "L1";
           context = { bench = "cg"; cls = "W"; eval_steps = None; retries = 0; inject = None };
           items = [ ("k1", hostile_text) ];
         })
  in
  let buf = Wire.encode b in
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Ok (Wire.Lease_reply (Some { Wire.items = [ ("k1", t) ]; _ }), _) ->
      Alcotest.check Alcotest.string "config text intact" hostile_text t
  | r -> Alcotest.failf "hostile batch: got %s" (show_result r)

(* Same contract for strategy tokens: the codec carries any byte string
   verbatim — hostile or unknown tokens decode fine and are refused with a
   typed error by Strategy.of_string at the validation layer (exercised
   end-to-end against Scheduler.submit in the server suite), never by the
   codec and never via an exception. *)
let hostile_strategy_payload () =
  List.iter
    (fun strategy ->
      let f = Wire.Submit { Wire.bench = "cg"; cls = "W"; shadow = false;
                            priority = 0; eval_steps = None; formats = "";
                            strategy } in
      let buf = Wire.encode f in
      match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok (Wire.Submit s, _) ->
          Alcotest.check Alcotest.string "token intact" strategy s.Wire.strategy;
          Alcotest.check Alcotest.bool "token refused by validation" true
            (Result.is_error (Strategy.of_string strategy))
      | r -> Alcotest.failf "hostile strategy: got %s" (show_result r))
    [ "zz9"; "anneal:"; "anneal:9q"; "bfs\x00"; "\xff\xfe"; "delta;bfs"; "spl it" ];
  (* and the known spellings all validate *)
  List.iter
    (fun strategy ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%S accepted" strategy)
        true
        (Result.is_ok (Strategy.of_string strategy)))
    [ ""; "bfs"; "split"; "delta"; "anneal"; "anneal:42"; "ANNEAL:42"; " bfs " ]

let empty_window () =
  match Wire.decode (Bytes.create 0) ~pos:0 ~len:0 with
  | Error (Wire.Need_more 4) -> ()
  | r -> Alcotest.failf "empty buffer: got %s" (show_result r)

let bad_window () =
  let buf = Wire.encode Wire.Stats in
  (match Wire.decode buf ~pos:2 ~len:(Bytes.length buf) with
  | Error (Wire.Malformed _) -> ()
  | r -> Alcotest.failf "window past the end: got %s" (show_result r));
  match Wire.decode buf ~pos:(-1) ~len:2 with
  | Error (Wire.Malformed _) -> ()
  | r -> Alcotest.failf "negative pos: got %s" (show_result r)

let suite =
  [
    roundtrip;
    concatenated;
    truncated;
    garbage_total;
    flipped;
    ("wire: hostile headers give typed errors", `Quick, hostile_header);
    ("wire: hostile format menus travel intact", `Quick, hostile_formats_payload);
    ("wire: hostile strategy tokens travel intact", `Quick, hostile_strategy_payload);
    ("wire: fleet tags are version-gated", `Quick, version_gating);
    ("wire: empty window", `Quick, empty_window);
    ("wire: invalid windows", `Quick, bad_window);
  ]
