(** The deterministic anonymous algorithm [A*] (Theorem 1, Figure 3).

    [A*] solves the 2-hop colored variant [Π^c] of any GRAN problem [Π]
    with {e no randomness}: it runs in phases [p = 1, 2, ...], where phase
    [p] spends [p] rounds gathering the depth-[p] local view of the
    current graph [I^p = (V, E, i, c, b^p)] (a full-information exchange
    of hash-consed views) and then executes the three sub-procedures of
    Figure 3 locally:

    - {b Update-Graph}: build the candidate set from the gathered view
      ({!Candidates}), keep the candidates' finite view graphs, select the
      smallest under the [(size, encoding)] order;
    - {b Update-Output}: simulate the randomized solver [A_R] on the
      selected graph using the bitstring labels [b̂] as the random bits;
      if the simulation is successful, adopt the output of one's own alias
      node — irrevocably;
    - {b Update-Bits}: find the smallest successful [p]-extension of the
      bitstring assignment ({!Min_search}) and adopt one's alias's string
      as the next [b] value.

    Termination and correctness follow the paper's analysis: from phase
    [2n] on, every node selects the true finite view graph [I*^p]
    (Lemma 7); the first phase [z] admitting a successful extension makes
    all nodes adopt a common assignment (Update-Bits); and at phase
    [z + 1] every node outputs according to the same successful simulation
    (Lemma 8), whose lift is a possible execution of [A_R] on the original
    instance (Lemma 9) — hence valid.

    Nodes with equal views perform equal computations, so the node-local
    work is memoized on the hash-consed view identity.

    {b Incremental phase engine.}  Once candidate selection stabilizes
    (Lemmas 6–7), consecutive phases repeat two expensive computations on
    the {e same} selected candidate: the Update-Output simulation, and
    the Update-Bits search — whose exactly-[p+1] breadth-first tree is a
    one-level extension of the exactly-[p] tree (the prefix property
    behind Lemma 9).  [A*] therefore caches {!Min_search.Resumable}
    handles and simulation results, keyed by the selected candidate's
    canonical encoding (which pins the graph, its [<<i, c>, b>] labels,
    and hence the base assignment).  A phase whose selection is
    unchanged extends the warm frontier by one level instead of
    re-exploring [p] levels; a changed selection misses and starts cold.
    Warm results are value-identical to cold ones, phase for phase — the
    test suite asserts this directly.  Cache traffic is published on the
    context's registry as [cache.search.hits] / [cache.search.misses]
    (one miss per entry the run creates) / [cache.search.resumed_levels]
    (the BFS levels skipped by warm starts).  Each {!solve} builds a
    fresh algorithm value, so the cache serves exactly one run, and it
    holds one entry per distinct candidate the run selects.

    {b Two renderings, one run each.}  A hook-free run — every {!solve}
    whose context carries no fault plan, adversary or scramble — steps
    the flat companion in place: a node's state is six ints and its
    message one int, the sender's knowledge id + 1, which names the
    gathered view in the run's intern arena.  A hooked run steps the
    boxed algorithm, whose messages are the views as
    {!Anonet_views.Interned.to_label} labels, since faults and
    adversaries act on [Label.t] payloads (R2's [a-star/c6] row tampers
    with them).  Both renderings call one phase computation, so they give
    the same outputs, rounds, messages, counters and events. *)

(** [make ~ctx ~gran ()] is one run's [A*]: the boxed algorithm and its
    flat companion, built over one phase computation (memo and search
    cache), with the options of {!solve}.  Hand the companion to
    {!Anonet_runtime.Executor.run}'s [?flat]; it is never registered, so
    no process-wide table keeps a run's memo alive. *)
val make :
  ctx:Anonet_runtime.Run_ctx.t ->
  gran:Anonet_problems.Gran.t ->
  ?incremental:bool ->
  ?pruning:bool ->
  unit ->
  Anonet_runtime.Algorithm.t * Anonet_runtime.Algorithm.Flat.t

(** [solve ?ctx ~gran g ()] runs [A*] for the GRAN bundle [gran] on the
    [Π^c]-instance [g] (labels [<i, c>] with [c] a 2-hop coloring; on
    other inputs no candidate ever passes validation and no node ever
    outputs) to completion under the synchronous executor, with a
    constant-zero tape: [A*] is deterministic and ignores its random
    bits.  Timed under an [a_star.solve] span.  The run is flat unless
    [ctx] carries hooks (see above).

    [ctx] is threaded both into the executor and into the phase
    computations: its observability handle receives the [search.*],
    [sim.*] and [cache.search.*] metrics and the [a_star.update_bits]
    events.  The Update-Bits searches run sequentially, inside each
    node's phase computation, each bounded by {!Min_search.Resumable.create}'s
    default state budget (cumulative over a warm handle's lifetime).  The
    run's round budget is [4 * (n + 4)^2], generous for the quadratic
    phase schedule.

    @param incremental enable the cross-phase cache (default [true]; the
    cold path, kept for ablation and for the equivalence tests, runs each
    phase's Update-Output simulation again and opens a fresh
    {!Min_search.Resumable} handle per phase).
    @param pruning core-guided pruning for the Update-Bits searches
    (default [true]; see {!Min_search.Resumable.create} —
    value-identical either way, kept for ablation).
    @return [Error] if the executor fails (round budget, …) or if an
    Update-Bits search hits its state/branching limits — rendered by
    {!Min_search.catch_limits}, with the same text {!A_infinity.solve}
    returns.
    @raise Invalid_argument if [gran.solver] has no registered
    {!Anonet_runtime.Algorithm.Flat} companion (every solver in
    [Bundles.all] has one): its Update-Bits search cannot run. *)
val solve :
  ?ctx:Anonet_runtime.Run_ctx.t ->
  gran:Anonet_problems.Gran.t ->
  Anonet_graph.Graph.t ->
  ?incremental:bool ->
  ?pruning:bool ->
  unit ->
  (Anonet_runtime.Executor.outcome, string) result
