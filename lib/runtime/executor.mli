(** Synchronous execution of an anonymous algorithm on a labeled graph.

    The executor realizes the model of Section 1.1: in every round each
    node consumes one tape bit, receives the messages its neighbors sent in
    the previous round (port-addressed), computes, and sends at most one
    message per port.  Execution stops when every node has produced its
    irrevocable output, when the tape is exhausted, or at [max_rounds].

    {!Incremental} exposes a persistent (copy-on-step) execution state so
    that searches over bit assignments can branch cheaply — the
    derandomization's minimal-simulation search explores a tree of
    executions and backtracks without re-simulating shared prefixes.

    Two interchangeable representations back an execution.  The {e boxed}
    one holds each node's state as an OCaml value and messages as
    [Label.t option]s; it supports the full model (faults, adversaries,
    port scrambles).  The {e flat} one — used automatically whenever the
    algorithm registered an {!Algorithm.Flat} companion and the run is
    free of injection hooks — packs all node states into one int array and
    all in-flight messages into one inbox arena, making a step two array
    allocations and a state key an alias instead of a Marshal round-trip.
    The two are observably identical (outputs, rounds, message counts,
    search results); the qcheck suite in [test/test_flat.ml] enforces it. *)

type failure =
  | Max_rounds_exceeded of int
  | Tape_exhausted of { round : int }
      (** the tape could not feed the given round; for fixed tapes this
          means the prescribed simulation ended before all nodes output *)
  | All_nodes_crashed of { round : int }
      (** a fault plan crash-stopped every node with no recovery pending —
          the execution can never complete (only reachable with [?faults]) *)

val pp_failure : Format.formatter -> failure -> unit

type outcome = {
  outputs : Anonet_graph.Label.t array;
  rounds : int;
  messages : int;  (** total messages delivered *)
}

(** [run ?ctx algo g ~tape ~max_rounds] executes to completion.

    The context ({!Run_ctx.t}, default {!Run_ctx.default}) supplies the
    cross-cutting configuration:

    - [ctx.scramble_seed], when set, delivers every node's incoming
      messages in a fresh pseudo-random port order each round — modelling
      a network {e without} consistent port numbering.  The paper remarks
      (Section 1.3) that randomized anonymous algorithms do not need port
      numbers: algorithms that treat their inbox as a multiset (the 2-hop
      coloring, coloring, and MIS solvers here) are unaffected, while
      port-dependent protocols (maximal matching, whose very output is a
      port) genuinely need the ports — the test suite demonstrates both.
    - [ctx.faults], when set, subjects the run to the adversary of
      {!Faults}: sent messages may be dropped, duplicated (the stale copy
      arrives one round late on an otherwise-idle port), or corrupted;
      crashed nodes skip their rounds entirely (state frozen, nothing
      sent, arriving messages lost).  A fresh injector is instantiated for
      this run from the plan.
    - [ctx.adversary], when set, layers the adaptive adversary of
      {!Adversary} on top: every payload the fault layer delivers passes
      through {!Adversary.tamper}, which may substitute or corrupt it
      (Byzantine senders, targeted links) based on the traffic observed in
      earlier rounds.  A fresh adversary is instantiated per run, so equal
      plans give byte-identical adversarial runs.
    - [ctx.obs], when live, counts [executor.rounds] and
      [executor.messages], tallies [faults.*] counters from the injector's
      event log, times the run under the [executor.run] span, and emits
      per-round ["round"] events.  With the null handle (the default) the
      run's result is byte-identical and the overhead is a few branches
      per round.

    [ctx.max_rounds_policy] is not consulted (the round
    budget is the explicit [max_rounds]).

    @raise Invalid_argument if the algorithm revokes or changes an output
    (a model violation — a bug in the algorithm). *)
val run :
  ?ctx:Run_ctx.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  tape:Tape.t ->
  max_rounds:int ->
  (outcome, failure) result
(** Callers that need the injector's event log after a run should record
    through {!Trace.record} (whose trace captures [fault_events]) rather
    than run with a shared injector instance. *)

module Incremental : sig
  (** Values of type [t] are persistent: {!step} copies what it changes
      and never mutates its argument, so a [t] may be retained, branched
      from, and stepped again arbitrarily later.  This retention contract
      is load-bearing for [Min_search.Resumable]-style incremental
      searches, which park whole BFS frontiers of executions between
      [A*] phases and resume them; the one caveat is stateful injection
      ([ctx.faults] captured by {!start}, or per-{!step} [faults]), which
      makes replays of a retained state diverge — branching or resuming
      searches must run fault-free. *)
  type t

  (** [start ?ctx ?use_flat algo g] is the execution before round 1.  The
      context's scramble seed, fault plan and adversary plan (an
      injector/adversary is instantiated here) become the defaults that
      every subsequent {!step} applies; the default context supplies none
      of them, preserving the plain executor.

      The flat representation is chosen when [use_flat] (default [true]),
      the algorithm has a registered {!Algorithm.Flat} companion whose
      plan accepts [g], {e and} the context supplies no scramble, faults
      or adversary — injection hooks are defined over boxed payloads.
      Pass [~use_flat:false] to pin the boxed path (the equivalence tests
      do; so does {!Trace.record}, which replays boxed inboxes). *)
  val start :
    ?ctx:Run_ctx.t -> ?use_flat:bool -> Algorithm.t -> Anonet_graph.Graph.t -> t

  (** [step t ~bits] advances one round; [bits.(v)] is node [v]'s bit.
      [scramble], if given, permutes each node's freshly delivered inbox:
      [scramble ~node ~degree ~round] must return a permutation of
      [0 .. degree-1] (see {!run}'s [scramble_seed]).  [faults], if given,
      filters message delivery and node activation (see {!run});
      [adversary] taps delivered payloads after it (see {!run}).  Explicit
      arguments override the defaults captured by [start ?ctx].
      Persistent: [t] remains valid — but note a [Faults.t] (and an
      [Adversary.t]) is itself stateful, so branching searches should not
      inject faults or adversaries.
      @raise Invalid_argument on wrong array length or output revocation,
      or if injection arguments are passed to a flat-representation state
      (start boxed — [~use_flat:false] or a ctx carrying the hooks —
      when a run needs them). *)
  val step :
    ?scramble:(node:int -> degree:int -> round:int -> int array) ->
    ?faults:Faults.t ->
    ?adversary:Adversary.t ->
    t ->
    bits:bool array ->
    t

  (** [step_vec t ~bits] is [step] taking the round's bits as a packed
      {!Anonet_graph.Bitvec.t} — the search loops fill one preallocated
      vector per round instead of boxing a [bool array] per branch.
      Applies the defaults captured at [start] (no per-call overrides).
      @raise Invalid_argument on wrong vector length. *)
  val step_vec : t -> bits:Anonet_graph.Bitvec.t -> t

  val outputs : t -> Anonet_graph.Label.t option array

  (** [all_output t] holds when every node has produced its output —
      the "successful simulation" condition of Section 2.2. *)
  val all_output : t -> bool

  val round : t -> int

  val messages : t -> int

  (** Whether [t] uses the flat representation (observably equivalent;
      exposed for tests and diagnostics). *)
  val is_flat : t -> bool

  (** [fingerprint t] is a digest of the whole execution state (node
      states, in-flight messages, outputs).  Equal fingerprints imply
      structurally equal states — two executions with equal fingerprints
      behave identically under equal future inputs — so searches over bit
      assignments can deduplicate branches.  (Unequal fingerprints do not
      imply unequal states; missing a duplicate only costs time.
      Fingerprints are only comparable between states of the same
      representation — searches never mix the two.) *)
  val fingerprint : t -> string

  (** A dedup key with the same contract as {!fingerprint} (equal keys
      imply structurally equal states) but cheaper to build: for flat
      states it aliases the state's own immutable arenas instead of
      marshaling them to a string.  Hash with {!module-Key}. *)
  type key

  val dedup_key : t -> key

  module Key : Hashtbl.HashedType with type t = key

  (** Probe/commit stepping for dedup-heavy searches.  [probe_vec t ~bits]
      performs the round of {!step_vec} but, for flat states, writes the
      child arena into a reusable per-domain buffer instead of a fresh
      allocation; {!probe_key} then gives a dedup key for a seen-set
      membership test, and {!probe_commit} materializes the stable child
      state (plus a stable key safe to retain) only when the caller
      decides to keep it.  A probe — and its [probe_key] — is invalidated
      by the next [probe_vec] call on the same domain, so check membership
      before probing again and never store a probe key in a table.
      Duplicate children (the common case on symmetric graphs) thus cost
      no allocation at all.  For boxed states a probe is simply the fully
      stepped state. *)
  type probe

  val probe_vec : t -> bits:Anonet_graph.Bitvec.t -> probe

  (** Transient key aliasing the per-domain probe buffer — valid for
      membership tests only, until the next [probe_vec] on this domain. *)
  val probe_key : probe -> key

  (** The stable child state and a stable (retainable) dedup key for it. *)
  val probe_commit : probe -> t * key

  (** Per-node sensitivity of the *next* round to each node's random bit:
      bit [v] of the result is clear iff both settings of node [v]'s bit
      — all other bits held fixed — provably yield the identical successor
      execution state (same successor state for [v] and the same messages
      on [v]'s out-ports; within one synchronous round a node's bit cannot
      influence any other node's transition, so sensitivity factors per
      node).  A search may therefore pin every clear bit to a canonical
      value without losing any reachable outcome.  Conservative in the
      sound direction only: a set bit may be a false positive (the boxed
      path compares serialized representations), a clear bit is always a
      proof.  Defined over the fault-free synchronous semantics — do not
      use it to prune executions driven by fault/scramble/adversary
      hooks.  Cost: two single-node transition re-runs per node into
      per-domain scratch (≈ one full {!step_vec} per call). *)
  val bit_sensitivity : t -> Anonet_graph.Bitvec.t
end

(** Reusable whole-run scratch for {!simulate_flat}: owns the state arena,
    a double-buffered pair of inbox arenas and the send buffer, and
    memoizes the flat layout of the last (algorithm, graph) pair — batched
    candidate searches simulate the same graph millions of times.  Not
    thread-safe; use one per domain (see [Simulation]'s per-domain
    default).  Buffers only grow, so one scratch serves mixed workloads. *)
module Scratch : sig
  type t

  val create : unit -> t
end

(** [simulate_flat ~scratch algo g ~bit ~len] runs a complete fault-free
    simulation in place over [scratch], mutating arenas instead of
    allocating per round: [bit ~node ~round] feeds node bits (rounds are
    1-based), the run stops as soon as every node has output or after
    [len] rounds.  Returns [Some (outputs, rounds_run, successful)] —
    exactly the boxed loop's result — or [None] when the algorithm has no
    flat companion (or its plan declines [g]); callers fall back to the
    persistent path. *)
val simulate_flat :
  scratch:Scratch.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  bit:(node:int -> round:int -> bool) ->
  len:int ->
  (Anonet_graph.Label.t option array * int * bool) option
