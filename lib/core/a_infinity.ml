module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module View_graph = Anonet_views.View_graph
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Run_ctx = Anonet_runtime.Run_ctx
module Obs = Anonet_obs.Obs

type result = {
  outputs : Label.t array;
  view_graph : View_graph.t;
  found : Min_search.found;
  decider_confirmed : bool;
}

let solve ?(ctx = Run_ctx.default) ~gran g ?(max_len = 64) ?pruning () =
  Obs.span (Run_ctx.obs ctx) "a_infinity.solve" @@ fun () ->
  let colored = Problem.colored_variant gran.Gran.problem in
  if not (colored.Problem.is_instance g) then
    Error
      (Printf.sprintf "input is not an instance of %s" colored.Problem.name)
  else begin
    let view_graph = View_graph.of_graph_exn g in
    (* J = (V_∞, E_∞, i_∞): the view graph with colors stripped. *)
    let j = Graph.map_labels view_graph.View_graph.graph Label.fst in
    match Gran.decide gran j ~seed:1 with
    | Error m -> Error ("decider failed to terminate: " ^ m)
    | Ok false -> Error "decider rejected the view graph (not a GRAN bundle?)"
    | Ok true ->
      let base = Bit_assignment.empty (Graph.n j) in
      (match
         Min_search.catch_limits (fun () ->
             Min_search.minimal_successful ~ctx ~solver:gran.Gran.solver j
               ~base ?pruning ~max_len ())
       with
       (* The search's typed limits degrade to ordinary errors here: the
          caller learns the instance is out of reach instead of eating an
          exception from four layers down. *)
       | Error m -> Error m
       | Ok None ->
         Error
           (Printf.sprintf "no successful simulation within %d rounds" max_len)
       | Ok (Some found) ->
         let sim_outputs = Simulation.outputs_exn found.Min_search.sim in
         let vg = view_graph.View_graph.graph in
         let color_of_instance_node v = Label.snd (Graph.label g v) in
         let color_of_alias_node a = Label.snd (Graph.label vg a) in
         (* Port-valued outputs are relative to the alias's port numbering;
            translate them through neighbor colors, which are unique within
            a neighborhood on 2-hop colored instances and agree between a
            node and its alias (Fact 1). *)
         let translate v output =
           match gran.Gran.output_encoding, output with
           | Gran.Label_output, o -> o
           | Gran.Port_output, Label.Int p ->
             let alias = view_graph.View_graph.map.(v) in
             if p < 0 || p >= Graph.degree vg alias then output
             else begin
               let partner_color = color_of_alias_node (Graph.neighbor vg alias p) in
               let rec find q =
                 if q >= Graph.degree g v then output (* cannot happen: views agree *)
                 else if
                   Label.equal partner_color
                     (color_of_instance_node (Graph.neighbor g v q))
                 then Label.Int q
                 else find (q + 1)
               in
               find 0
             end
           | Gran.Port_output, o -> o
         in
         let outputs =
           Array.mapi
             (fun v c -> translate v sim_outputs.(c))
             view_graph.View_graph.map
         in
         Ok { outputs; view_graph; found; decider_confirmed = true })
  end

