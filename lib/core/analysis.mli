(** The end-to-end mixed-precision analysis system (paper Fig. 2).

    Given a program, a representative data set and a verification routine
    (bundled as a {!Bfs.Target.t}), [recommend] runs the configuration
    generator and breadth-first search, composes the final configuration,
    evaluates the expected benefit of applying it (cost model of the
    source-level conversion), and returns everything a developer needs:
    the recommended configuration, its exchange-format text, the search
    statistics, and the projected speedup. [of_result] builds the same
    report for a campaign that ran elsewhere — [craft search] runs every
    strategy through [Campaign.run] and reports it here. *)

type recommendation = {
  result : Bfs.result;  (** full search result, including the final config *)
  config_text : string;  (** exchange-format rendering (paper Fig. 3) *)
  tree : string;  (** configuration tree view (paper Fig. 4) *)
  census : (string * int) list;
      (** {!Config.format_census} of the final configuration: candidate
          count per ending format name (plus ["ignore"]) *)
  native_cost : Cost.run_cost;
  converted_cost : Cost.run_cost;
      (** modeled cost after the suggested source-level conversion (single
          instructions become native single, 4-byte memory traffic) *)
  projected_speedup : float;
}

val recommend :
  ?options:Bfs.options ->
  ?params:Cost.params ->
  program:Ir.program ->
  setup:(Vm.t -> unit) ->
  output:(Vm.t -> float array) ->
  verify:(float array -> bool) ->
  unit ->
  recommendation

val of_result :
  ?params:Cost.params -> Bfs.Target.t -> setup:(Vm.t -> unit) -> Bfs.result -> recommendation
(** The recommendation for a finished campaign [result] on [target], of
    any strategy: the final configuration's exchange text, its tree view
    weighted by [target]'s profile, its format census, and the modeled
    cost of the native program against the suggested conversion ([setup]
    is needed again to run those two executions). [recommend] is
    {!Bfs.search} followed by [of_result]. *)

val pp_summary : Format.formatter -> recommendation -> unit
