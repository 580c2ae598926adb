(** The closure-compiling execution backend.

    {!Vm.run} re-decides everything about an instruction — opcode shape,
    precision, [smode], [checked]-mode operand tests, addressing mode,
    hook presence — on every dynamic execution. This module translates
    each {!Ir.block} once into a flat array of pre-specialized closures
    (one per instruction, with registers, bounds, trap reasons, rounding
    and encode/extract steps resolved at compile time) chained by compiled
    terminators, collapsing the per-step cost to an indirect call. This is
    the software analogue of the paper's snippet splicing: precision
    decisions are baked into the code once per configuration, not
    re-interpreted per step.

    {!run} is a drop-in replacement for {!Vm.run}: identical heaps,
    [counts]/[bcounts], step accounting, {!Vm.Trap} addresses and reasons,
    {!Vm.Limit} and watchdog {!Vm.Deadline} behaviour. It is the engine of
    every search evaluation ({!Bfs.Target.make}); there is no switch
    between engines. The interpreter stays for two things. One is the
    fallback rule: a state with installed hooks (fault injector, shadow
    tracer, test probes) is executed by the interpreter — compiled code
    has no per-instruction observation point, and correctness of those
    subsystems outranks speed. The other is the reference the
    differential tests compare compiled runs against.

    Compilation is per-(block × precision slice). With a {!cache}, blocks
    whose instruction content (precisions included) is unchanged between
    two patched program variants share their compiled form, so a search
    wave that flips one function recompiles only that function's blocks —
    the patcher's layout is configuration-invariant, which makes block
    content a sound cache witness (see DESIGN §10). *)

type cache
(** A {!Code_cache} of compiled blocks, shareable across every evaluation
    of a search campaign (domain-safe; compiled closures are immutable). *)

val create_cache : unit -> cache

val stats : cache -> Code_cache.stats
val report : cache -> string

val run : ?cache:cache -> Vm.t -> unit
(** Execute the state from [main] through compiled code (through the
    interpreter when hooks are installed — transparently, with identical
    results). Without [cache], blocks are compiled fresh for this run. Same
    single-shot contract as {!Vm.run}: a second call raises
    [Invalid_argument]. *)
