type t = { strategy : Strategy.token; formats : Formats.t list; shadow : bool }

let of_spec (spec : Wire.job_spec) =
  let formats =
    match spec.Wire.formats with
    | "" -> Ok Bfs.default_options.Bfs.formats
    | m -> Result.map_error (fun why -> "formats: " ^ why) (Formats.menu_of_string m)
  in
  Result.bind (Strategy.of_string spec.Wire.strategy) (fun strategy ->
      Result.map (fun formats -> { strategy; formats; shadow = spec.Wire.shadow }) formats)

let context ?(retries = 0) ?inject ?deadline (spec : Wire.job_spec) =
  {
    Wire.bench = spec.bench;
    cls = spec.cls;
    eval_steps = spec.eval_steps;
    retries;
    inject;
    deadline;
  }

let target ?cache (ctx : Wire.context) k =
  let faults = Option.map Faults.create ctx.inject in
  let harness, target =
    Harness.wrap_target ~retries:ctx.retries
      (Kernel.target ?eval_steps:ctx.eval_steps ?faults ?cache k)
  in
  (faults, harness, target)

let prune_above = 0.1

(* One traced native run of the unpatched kernel, priced against an
   all-single shadow. *)
let guidance (k : Kernel.t) =
  let program = k.Kernel.program in
  let tracer =
    Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.Kernel.hints program) program
  in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:k.Kernel.setup in
  Bfs.shadow ~prune_above (Shadow_report.make ~base:k.Kernel.hints program tracer)

let run ?pool ?(stop = Bfs.default_options.Bfs.stop) ~workers k c target =
  let options =
    {
      Bfs.default_options with
      workers;
      base = k.Kernel.hints;
      pool;
      shadow = (if c.shadow then Some (guidance k) else None);
      formats = c.formats;
      stop;
    }
  in
  Strategy.run ~options c.strategy target
