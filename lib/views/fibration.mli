(** Fibrations and 2-hop colorings (Section 4 of the paper).

    Boldi and Vigna [13] study {e fibrations} of edge-colored directed
    graphs — roughly, factorizing maps generalized to arcs.  Section 4
    observes a two-way bridge to this library's undirected world:

    - every 2-hop colored undirected graph [G = (V, E, c)] has a
      {e directed (edge-colored) representation} [H]: same nodes, each
      undirected edge [(u, v)] becomes two arcs [(u, v)] and [(v, u)]
      colored [<c u, c v>] and [<c v, c u>] respectively.  [H] is
      symmetric (with the pair-swap as color involution) and its coloring
      is {e deterministic} — out-arcs of a node have pairwise distinct
      colors — precisely because [c] is a 2-hop coloring;
    - a fibration between directed representations is the same thing as a
      factorizing map between the underlying 2-hop colored graphs.

    This module constructs the representation and checks both directions
    of the correspondence executable-ly. *)

(** [directed_representation g] is [H] above.
    @raise Invalid_argument if [g] is not 2-hop colored (the construction
    is defined for arbitrary labeled graphs, but the paper's properties —
    and this library's uses — need the coloring). *)
val directed_representation : Anonet_graph.Graph.t -> Digraph.t

(** [swap_mate color] is the color involution [<a, b> -> <b, a>]. *)
val swap_mate : Anonet_graph.Label.t -> Anonet_graph.Label.t

(** [check_correspondence ~product ~factor ~map] verifies Section 4's
    claim on a concrete pair: [map] is a factorizing map between the
    2-hop colored graphs iff it is a fibration between their directed
    representations.  Returns the two booleans (they must agree). *)
val check_correspondence :
  product:Anonet_graph.Graph.t ->
  factor:Anonet_graph.Graph.t ->
  map:int array ->
  bool * bool
