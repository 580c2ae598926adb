(** One campaign recipe (paper Fig. 2): a program with its data set and
    verification routine goes in, a verified configuration comes out.

    [craft search] and the campaign daemon ({!Scheduler}) both describe a
    campaign as a {!Wire.job_spec}, validate it with {!of_spec} and run
    it with {!run}, so an inline and a served campaign of one spec make
    the same moves by construction, on the evaluator {!target} builds
    from the spec's {!context}. What differs stays with the caller: the
    stack over the target (result store, fleet offload), the pool and
    the stop request. *)

type t
(** A validated spec: its strategy token and format menu parsed, and its
    [shadow] request. *)

val of_spec : Wire.job_spec -> (t, string) result
(** The one validator of a spec's [strategy] token
    ({!Strategy.of_string}: [""] is [bfs]) and [formats] menu
    ({!Formats.menu_of_string}: [""] is the single-only default).
    [Error] names the rejected token. The spec's [bench], [cls] and
    [eval_steps] are its {!context}; [priority] is the scheduler's. *)

val context :
  ?retries:int -> ?inject:Faults.spec -> ?deadline:float -> Wire.job_spec -> Wire.context
(** The spec's evaluation context, with a retry budget (default 0) and,
    inline only, an inject spec and a wall-clock deadline. The caller
    staffs the pool with that deadline; {!target} does not read it. *)

val target :
  ?cache:Compile.cache -> Wire.context -> Kernel.t -> Faults.t option * Harness.t * Bfs.Target.t
(** The one evaluator builder: the kernel's target under the context's
    step budget and injector, in a harness with its retry budget. Returns
    the injector, the harness and the harnessed target. *)

val run :
  ?pool:Pool.t ->
  ?stop:(unit -> bool) ->
  workers:int ->
  Kernel.t ->
  t ->
  Bfs.Target.t ->
  Bfs.result
(** Run the campaign on [target], which evaluates the kernel's
    configurations through whatever stack the caller built.

    With [shadow] set, one traced native run of the kernel first yields
    the guidance ({!Bfs.shadow} at the default threshold, with a constant
    prune bound of 0.1 — candidates predicted to diverge beyond it are
    skipped without an evaluation): it seeds, reorders and prunes the
    [bfs] frontier and seeds [anneal]; [split] and [delta] ignore it.
    Then {!Strategy.run} searches from the kernel's [hints], at [workers]
    evaluations per wave, on [pool] when given, with the spec's format
    menu, and stops at the first wave boundary after [stop] returns
    [true] (default: never). An exception from the shadow trace escapes
    to the caller: it kills the campaign, it is not a verdict. *)
