module Graph = Anonet_graph.Graph

let stable_view_depth g = (Refinement.run g).Refinement.stable_view_depth

let bound_holds g = stable_view_depth g <= max 1 (Graph.n g)
