(** The infinity-model algorithm [A_∞] (Theorem 2), made effective.

    In the infinity model each node's output is a function of its
    depth-infinity local view.  [A_∞] (i) reconstructs the infinite view
    graph [I_∞^c] from the view — here computed directly as the finite
    view graph, legitimate by Corollary 2 ([G* ≅ G_∞]); (ii) confirms via
    the problem's decider that the simulation input [J = (V_∞, E_∞, i_∞)]
    is an instance of [Π] (the lifting-lemma argument of Section 2.3.2
    guarantees it); (iii) selects the {e smallest successful simulation}
    of the randomized solver [A_R] on [J] — smallest in the round-major
    order of {!Min_search}, one predetermined total order among the many
    the argument admits; and (iv) lifts that simulation's outputs back
    through the infinite view map.

    This is the centralized ("oracle") form of the derandomization: it
    computes, for every node at once, exactly the value
    [A_∞(L_∞(v))] — no randomness, no communication beyond the view.
    The message-passing realization is {!A_star}. *)

type result = {
  outputs : Anonet_graph.Label.t array;
      (** deterministic valid outputs for the instance's nodes *)
  view_graph : Anonet_views.View_graph.t;  (** [I*^c ≅ I_∞^c] *)
  found : Min_search.found;
      (** the minimal successful simulation on [J] *)
  decider_confirmed : bool;
      (** the decider's verdict on [J] (always [true] for genuine GRAN
          bundles, by the lifting lemma) *)
}

(** [solve ?ctx ~gran g ()] derandomizes [gran.solver] on the
    [Π^c]-instance [g] (labels [<i, c>] with [c] a 2-hop coloring).

    The context is forwarded to the minimal-simulation search, which runs
    sequentially: [ctx.obs] instruments it, with the whole derandomization
    timed under an [a_infinity.solve] span.  The (randomized) decider runs
    on [J] with seed 1.

    @param max_len      simulation length bound (default [64])
    @param pruning      core-guided pruning for the search (default
                        [true]; see {!Min_search.minimal_successful} —
                        value-identical either way, kept for ablation)
    @return [Error] if [g] is not an instance of [Π^c], if the decider
    rejects [J], if no successful simulation exists within [max_len], or
    if the search hits its state/branching limits
    ({!Min_search.Search_limit_exceeded} and
    {!Min_search.Branching_limit_exceeded} are caught and rendered by
    {!Min_search.catch_limits}).
    @raise Invalid_argument if [gran.solver] has no
    {!Anonet_runtime.Algorithm.S.flat} companion (every solver in
    [Bundles.all] has one): the search runs on flat companions only. *)
val solve :
  ?ctx:Anonet_runtime.Run_ctx.t ->
  gran:Anonet_problems.Gran.t ->
  Anonet_graph.Graph.t ->
  ?max_len:int ->
  ?pruning:bool ->
  unit ->
  (result, string) Stdlib.result
