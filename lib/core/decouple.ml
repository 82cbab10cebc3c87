module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Executor = Anonet_runtime.Executor
module Tape = Anonet_runtime.Tape
module Las_vegas = Anonet_runtime.Las_vegas
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Rand_two_hop = Anonet_algorithms.Rand_two_hop

type stage_two =
  | Generic_a_star
  | Generic_a_infinity
  | Specific of Anonet_runtime.Algorithm.t

type result = {
  outputs : Label.t array;
  coloring : Label.t array;
  coloring_rounds : int;
  stage_two_rounds : int;
}

let solve ~gran g ~seed ~stage_two () =
  (* Stage 1: the generic randomized preprocessing — a 2-hop coloring. *)
  match Las_vegas.solve_msg Rand_two_hop.algorithm g ~seed () with
  | Error m -> Error ("stage 1 (2-hop coloring) failed: " ^ m)
  | Ok report ->
    let coloring = report.Las_vegas.outcome.Executor.outputs in
    let coloring_rounds = report.Las_vegas.outcome.Executor.rounds in
    let colored_instance = Problem.attach_coloring g coloring in
    let finish outputs stage_two_rounds =
      Ok { outputs; coloring; coloring_rounds; stage_two_rounds }
    in
    (* Stage 2: deterministic. *)
    (match stage_two with
     | Generic_a_star ->
       (match A_star.solve ~gran colored_instance () with
        | Error m -> Error ("stage 2 (A*) failed: " ^ m)
        | Ok outcome ->
          finish outcome.Executor.outputs outcome.Executor.rounds)
     | Generic_a_infinity ->
       (match A_infinity.solve ~gran colored_instance () with
        | Error m -> Error ("stage 2 (A_infinity) failed: " ^ m)
        | Ok r -> finish r.A_infinity.outputs 0)
     | Specific algo ->
       let max_rounds = 64 * (Graph.n g + 4) in
       (match Executor.run algo colored_instance ~tape:Tape.zero ~max_rounds with
        | Error f ->
          Error (Format.asprintf "stage 2 (specific) failed: %a" Executor.pp_failure f)
        | Ok outcome -> finish outcome.Executor.outputs outcome.Executor.rounds))
