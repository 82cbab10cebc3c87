(** Synchronous execution of an anonymous algorithm on a labeled graph.

    The executor realizes the model of Section 1.1: in every round each
    node consumes one tape bit, receives the messages its neighbors sent in
    the previous round (port-addressed), computes, and sends at most one
    message per port.  Execution stops when every node has produced its
    irrevocable output, when the tape is exhausted, or at [max_rounds].

    Every run that never branches — {!run}, [Trace.record] and
    [Simulation.run] — goes through one round driver, {!drive}, which
    holds the round policy once: tape bits, the [max_rounds] budget, the
    all-crashed check, the [executor.rounds]/[executor.messages] counters
    and the per-round notes.  The driver never branches, so it updates
    one execution in place, on one of two machines.  A hook-free run of
    an algorithm with an {!Algorithm.Flat} companion (all four catalog
    Las-Vegas solvers: coloring, 2-hop coloring, MIS, matching — and A*,
    whose per-solve companion is handed to the driver directly) packs all
    node states into one int array and its sends into one of two
    alternating send buffers; receivers read last round's buffer through
    a static port table, so the driver's round neither zeroes nor copies
    an inbox and allocates nothing per node (A*'s companion itself
    allocates per node: its memo keys, and the views it interns).
    Every other run — hooked runs (faults, adversaries, port scrambles
    act on [Label.t] payloads), the [Retransmit] wrapper — steps the
    algorithm's own [round] on OCaml values.

    {!Incremental} exposes a persistent execution state for the searches
    that do branch — the derandomization's minimal-simulation search
    explores a tree of executions and backtracks without re-simulating
    shared prefixes.  It runs on the flat representation only, with the
    same node loop as the driver's flat machine, writing each round —
    node states and the materialized inbox — into an immutable arena
    that doubles as a dedup key.
    [test/test_flat.ml] checks the two machines and the searches against
    each other. *)

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

(** The injection hooks of one execution.  They are fixed when the
    execution starts: an injector and an adversary are stateful, so every
    execution owns fresh ones. *)
type hooks = {
  scramble : (node:int -> degree:int -> round:int -> int array) option;
      (** [scramble ~node ~degree ~round] permutes [0 .. degree-1]: node's
          inbox delivered in [round] is read in that port order *)
  faults : Faults.t option;
  adversary : Adversary.t option;
}

(** No hooks: the paper's reliable network. *)
val no_hooks : hooks

(** [hooks ctx] instantiates the context's scramble seed, fault plan and
    adversary plan (fresh injector and adversary). *)
val hooks : Run_ctx.t -> hooks

(** How a {!drive} ended: the outputs reached ([None] for nodes still
    undecided), the rounds executed, the messages delivered, and the
    failure, if the run stopped before every node had output. *)
type ending = {
  last_outputs : Anonet_graph.Label.t option array;
  last_round : int;
  delivered : int;
  failure : failure option;
}

(** [drive ?obs ?span ?note hooks algo g ~tape ~max_rounds] is the round
    loop behind every run that never branches.  Before each round it stops
    when every node has output, when the round would exceed [max_rounds],
    when the fault injector has crash-stopped every node for good, or when
    the tape cannot feed the round.  Each round executed counts into
    [obs]'s [executor.rounds] and [executor.messages]; the whole loop runs
    under the [span] span (default ["executor.run"]); afterwards the
    injector's and adversary's logs are tallied into [obs] as in {!run}.
    [note ~round ~messages ~has_output] sees the initial state as round 0
    and then every executed round with the messages delivered in it;
    [has_output v] is valid only during the call.

    Hook-free runs of an algorithm with a flat companion use the in-place
    flat machine; every other run steps the algorithm's own [round].  The
    companion is [flat] when given, else the one registered for [algo]
    ({!Algorithm.find_flat}); a hooked run ignores [flat].
    @raise Invalid_argument as {!run} does. *)
val drive :
  ?obs:Anonet_obs.Obs.t ->
  ?span:string ->
  ?note:(round:int -> messages:int -> has_output:(int -> bool) -> unit) ->
  ?flat:Algorithm.Flat.t ->
  hooks ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  tape:Tape.t ->
  max_rounds:int ->
  ending

(** [to_result e] is the outcome of a run that ended with every node's
    output, or its failure. *)
val to_result : ending -> (outcome, failure) result

(** [run ?ctx ?flat algo g ~tape ~max_rounds] executes to completion
    through {!drive}, with hooks instantiated from [ctx] and [flat] passed
    on: a hook-free run steps that companion in place.

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

    @raise Invalid_argument if the algorithm revokes or changes an output
    (a model violation — a bug in the algorithm). *)
val run :
  ?ctx:Run_ctx.t ->
  ?flat:Algorithm.Flat.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  tape:Tape.t ->
  max_rounds:int ->
  (outcome, failure) result
(** Callers that need the injector's event log after a run should record
    through {!Trace.record} (whose trace captures [fault_events]) rather
    than run with a shared injector instance. *)

module Incremental : sig
  (** Values of type [t] are persistent: stepping (a {!probe_vec} then
      {!probe_commit}) never mutates its argument, so a [t] may be
      retained, branched from, and stepped again arbitrarily later.  This
      retention contract is load-bearing for [Min_search.Resumable]-style
      incremental searches, which park whole BFS frontiers of executions
      between [A*] phases and resume them.  The semantics is the
      fault-free synchronous model: a search never runs hooked. *)
  type t

  (** [start algo g] is the execution before round 1 on [algo]'s flat
      companion.
      @raise Invalid_argument naming the algorithm if it has no
      registered {!Algorithm.Flat} companion. *)
  val start : Algorithm.t -> Anonet_graph.Graph.t -> t

  val outputs : t -> Anonet_graph.Label.t option array

  (** [all_output t] holds when every node has produced its output —
      the "successful simulation" condition of Section 2.2. *)
  val all_output : t -> bool

  (** A dedup key for the whole execution state (node states and
      in-flight messages): equal keys if and only if the states are
      structurally equal, so two executions with equal keys behave
      identically under equal future inputs.  It is the state itself,
      whose hash is computed once, when the state is built, so taking it
      costs nothing.  Hash with {!module-Key}. *)
  type key

  val dedup_key : t -> key

  module Key : Hashtbl.HashedType with type t = key

  (** Probe/commit stepping for dedup-heavy searches.  [probe_vec t ~bits]
      performs one round — bit [v] of [bits] is node [v]'s random bit —
      writing the child arena into a reusable per-domain buffer instead
      of a fresh allocation; {!probe_key} then gives a dedup key for a
      seen-set membership test, and {!probe_commit} materializes the
      stable child state (plus a stable key safe to retain) only when the
      caller decides to keep it.  A probe — and its [probe_key] — is
      invalidated by the next [probe_vec] call on the same domain, so
      check membership before probing again and never store a probe key
      in a table.  Duplicate children (the common case on symmetric
      graphs) thus never allocate an arena.
      @raise Invalid_argument on a wrong vector length. *)
  type probe

  val probe_vec : t -> bits:Anonet_graph.Bitvec.t -> probe

  (** Transient key aliasing the per-domain probe buffer — valid for
      membership tests only, until the next [probe_vec] on this domain. *)
  val probe_key : probe -> key

  (** The stable child state and a stable (retainable) dedup key for it. *)
  val probe_commit : probe -> t * key

  (** Per-node sensitivity of the {e next} round to each node's random
      bit: bit [v] of the result is clear iff both settings of node [v]'s
      bit — all other bits held fixed — yield the identical successor
      execution state (same successor state for [v] and the same messages
      on [v]'s out-ports; within one synchronous round a node's bit
      cannot influence any other node's transition, so sensitivity
      factors per node).  Exact in both directions, because the flat
      encoding is injective: a search may pin every clear bit to a
      canonical value without losing any reachable outcome.  Cost: two
      single-node transition re-runs per node into per-domain scratch
      (≈ one round per call). *)
  val bit_sensitivity : t -> Anonet_graph.Bitvec.t
end
