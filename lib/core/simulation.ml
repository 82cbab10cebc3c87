module Graph = Anonet_graph.Graph
module Executor = Anonet_runtime.Executor
module Tape = Anonet_runtime.Tape
module Obs = Anonet_obs.Obs

type result = {
  successful : bool;
  outputs : Anonet_graph.Label.t option array;
  rounds_run : int;
}

(* The simulation is the driver on the assignment's fixed tape: the tape
   runs out after [min_length bits] rounds, which is exactly the
   simulation's length, and a run with no round budget can fail in no
   other way.  The driver's own counters stay off ([executor.*] counts
   runs, not simulations). *)
let run ?(obs = Obs.null) ~solver g ~bits =
  if Array.length bits <> Graph.n g then
    invalid_arg "Simulation.run: wrong assignment size";
  let e =
    Executor.drive Executor.no_hooks solver g ~tape:(Tape.fixed bits)
      ~max_rounds:max_int
  in
  Obs.incr (Obs.counter obs "sim.runs");
  Obs.incr ~by:e.last_round (Obs.counter obs "sim.rounds");
  { successful = e.failure = None; outputs = e.last_outputs; rounds_run = e.last_round }

let outputs_exn r =
  if not r.successful then invalid_arg "Simulation.outputs_exn: not successful";
  Array.map Option.get r.outputs
