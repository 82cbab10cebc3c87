(** Finding the minimal successful simulation (Sections 2.2 and 3.1).

    Update-Bits needs, deterministically and identically at every node, the
    smallest bit assignment (under a predetermined total order) whose
    induced simulation of [A_R] is successful.  The paper's lemmas only
    need {e some} predetermined total order shared by all nodes; the one
    searched here is: assignments of smaller length first, ties broken
    round-major lexicographically (the round-1 bits of all nodes in node
    order, then the round-2 bits, ...).  This order admits an efficient
    search: executions form a tree branching on each round's bit vector,
    explored breadth-first in lexicographic order while {e deduplicating
    equal execution states} — two prefixes leading to the same global
    state have identical futures, and the lexicographically smaller prefix
    dominates, so the frontier is bounded by the algorithm's reachable
    state space rather than by [2^(t·k)].  Since a level is generated in
    round-major order, it stops at its first success (the {e incumbent
    cut}): every child it has not generated yet, and every completion of
    one, to any length, is round-major greater.  Each success the search
    records is therefore smaller than the one before.  The paper's literal
    node-major order survives as a brute-force oracle in the test suite,
    which checks that both orders find successes of the same minimal
    length.

    The search runs sequentially on the calling domain.  Its executor
    scratch is per-domain, so independent searches (server workers,
    experiment rows) may run concurrently on different domains. *)

type found = {
  assignment : Bit_assignment.t;
  sim : Simulation.result;
  states_explored : int;  (** search effort, for the benchmarks *)
}

exception Search_limit_exceeded

(** Raised when a single branching step would
    have to enumerate more than [2^limit] alternatives at once: more than
    24 free bits in one round.  A typed error rather than
    [Invalid_argument] so that callers can degrade gracefully — report the
    instance as out of reach, fall back to a coarser base assignment —
    instead of dying on a stringly-typed assert. *)
exception Branching_limit_exceeded of { free_bits : int; limit : int }

(** [catch_limits f] runs [f ()] and renders the two typed search limits
    above as [Error] messages — the text both derandomizers ({!A_infinity}
    and {!A_star}) return when an instance is out of the search's reach.
    Any other exception propagates. *)
val catch_limits : (unit -> 'a) -> ('a, string) result

(** [minimal_successful ?ctx ~solver g ~base ~max_len ()] finds the
    smallest assignment extending [base] (in the order above) whose induced
    simulation on [g] is successful, or [None] if none has length at most
    [max_len] — the minimal-length search of Section 2.2 ([A_∞]).  The
    [p]-extensions of Update-Bits are {!Resumable}'s.

    From the context: [ctx.obs], when live, mirrors the search effort in
    the [search.states_explored] counter (equal to the returned
    [states_explored] within one call), tracks the
    breadth-first frontier in the [search.frontier] gauge (reset to 0 on
    every exit, including raised limits), times the search under a
    [min_search.round_major] span, and emits a ["search.level"] event per
    breadth-first level.
    [ctx.faults] and [ctx.scramble_seed] are not consulted: the search
    semantics is the fault-free deterministic model (a stateful injector
    cannot be shared by branching executions), stepped on the solver's
    {!Anonet_runtime.Algorithm.Flat} companion (every catalog solver has
    one).

    [pruning] (default [true]) enables core-guided
    pruning: per-round bit-sensitivity cores from
    {!Anonet_runtime.Executor.Incremental.bit_sensitivity} collapse
    sibling vectors that provably step an entry to the same child onto
    their lexicographically smallest representative, and a cross-level
    state table subsumes children whose execution state was already
    reached at an earlier (hence round-major smaller) level.  The search's
    value is unchanged — same [found] record as the
    exhaustive search, asserted in the test suite —
    while [states_explored] drops (the incumbent cut applies either way);
    the skipped siblings and subsumed children are counted in the
    [search.pruned] counter and the sensitivity probes in
    [search.core_probes].  See DESIGN.md
    "Core-guided pruning" for the soundness argument.

    @param max_states abort threshold for the breadth-first search
    (default [1_000_000]).  Exhausting it raises {!Search_limit_exceeded}
    with [max_states + 1] states counted.  A search that returns has
    explored at most [max_states] states, and every budget of at least
    its [states_explored] returns the same record.
    @raise Branching_limit_exceeded if one branching step exceeds the
    enumeration limits above.
    @raise Invalid_argument if [solver] has no flat companion. *)
val minimal_successful :
  ?ctx:Anonet_runtime.Run_ctx.t ->
  solver:Anonet_runtime.Algorithm.t ->
  Anonet_graph.Graph.t ->
  base:Bit_assignment.t ->
  ?max_states:int ->
  ?pruning:bool ->
  max_len:int ->
  unit ->
  found option

(** The [Exactly] search: the minimal successful [len]-extension of a
    base assignment, the [p]-extensions of Update-Bits (Section 3.1), as
    a warm-startable handle.

    For an exact target [l], the breadth-first exploration — stepping,
    state dedup, all-output pruning, and the incumbent cut — does not
    depend on [l]; only the completion of the winning prefix does (every
    success completes to [l] by appending zeros past the base, and a
    child the cut dropped compares greater than the success at every
    length).  A [Resumable.t] therefore owns the BFS
    frontier (entries, their {!Anonet_runtime.Executor.Incremental}
    states, the running best success) and extends it level by level on
    demand: [extend t ~len:l] returns exactly what a fresh handle's
    [extend ~len:l] would — the same [assignment], the same [sim], and
    the same {e cumulative} [states_explored] — while expanding only the
    levels not yet explored.  A fresh handle per target is the cold
    search; a handle kept across targets is [A*]'s incremental
    Update-Bits: phase [p+1]'s search over an unchanged selected
    candidate is the one-level extension of phase [p]'s (the prefix
    property of Lemma 9).

    The handle retains incremental executor states across calls; they
    are persistent values (see {!Anonet_runtime.Executor.Incremental}),
    so retention is safe.  It interns every distinct state it reached,
    not only its frontier, so its memory grows with the states explored
    so far: the interned states, and the recorded successors of the
    states it expanded twice past the longest base string, whose later
    expansions replay them without stepping.
    A handle that raised {!Search_limit_exceeded} or
    {!Branching_limit_exceeded} is dead: its budget accounting has
    already recorded the aborted level and further [extend]s are
    unspecified. *)
module Resumable : sig
  type t

  (** [create ?ctx ?max_states ?pruning ~solver g ~base ()] opens a
      search at level 0.  [ctx] supplies the observability handle;
      [max_states] bounds the {e cumulative} states explored
      over the handle's lifetime (default [1_000_000]).  [pruning]
      (default [true]) enables the per-round bit-sensitivity cores; the
      cross-level subsumption never applies here (completion padding to
      an exact target breaks the cross-level domination argument).
      @raise Invalid_argument if [base] does not have one string per
      node of [g], or if [solver] has no flat companion. *)
  val create :
    ?ctx:Anonet_runtime.Run_ctx.t ->
    ?max_states:int ->
    ?pruning:bool ->
    solver:Anonet_runtime.Algorithm.t ->
    Anonet_graph.Graph.t ->
    base:Bit_assignment.t ->
    unit ->
    t

  (** Fully expanded BFS levels so far. *)
  val level : t -> int

  (** Cumulative states explored over the handle's lifetime; after
      [extend t ~len] it equals the [states_explored] a fresh handle's
      [extend ~len] would report. *)
  val states_explored : t -> int

  (** [extend t ~len] advances the frontier to level [len] (a no-op if
      already there) and returns the minimal successful [len]-extension,
      exactly as a fresh handle's [extend ~len] would.  Timed under a
      [min_search.extend] span — except when [len = level t] and no
      success is recorded: then the answer is [None] at once, with no
      span (the node classes of one [A*] phase that share a candidate
      ask for the same [len] in turn).  The [search.frontier] gauge is
      reset on every exit from the span.
      @raise Invalid_argument if [len < level t] (the frontier has
      advanced past the target; [A*]'s phases never ask for a shorter
      target than an earlier phase), or if some [base] string is longer
      than [len].
      @raise Search_limit_exceeded / Branching_limit_exceeded as a
      fresh handle would; the handle is dead afterwards. *)
  val extend : t -> len:int -> found option
end
