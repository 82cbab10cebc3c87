(** Simulations of a randomized algorithm induced by a bit assignment
    (Section 2.2).

    The simulation induced by [b] executes [A_R] with node [i]'s random
    bits replaced by [b.(i)] and lasts [l = min_i length b.(i)] rounds —
    exactly the semantics of Update-Output in Figure 3.  The simulation is
    {e successful} when every node has produced its (irrevocable) output
    within those rounds. *)

type result = {
  successful : bool;
  outputs : Anonet_graph.Label.t option array;
  rounds_run : int;
      (** the round at which all nodes had output, or the full simulation
          length if some node never did *)
}

(** [run ?obs ~solver g ~bits] simulates: it is
    {!Anonet_runtime.Executor.drive} on the fixed tape [bits], so it
    stops early once every node has output (continuing cannot change
    anything observable: outputs are irrevocable).  A live [obs] counts
    each call in [sim.runs] and the rounds executed in [sim.rounds]
    (default {!Anonet_obs.Obs.null}). *)
val run :
  ?obs:Anonet_obs.Obs.t ->
  solver:Anonet_runtime.Algorithm.t ->
  Anonet_graph.Graph.t ->
  bits:Bit_assignment.t ->
  result

(** [outputs_exn r] unwraps the outputs of a successful simulation.
    @raise Invalid_argument if [r] is not successful. *)
val outputs_exn : result -> Anonet_graph.Label.t array
