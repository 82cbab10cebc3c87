(** The anonymous message-passing algorithm interface (Section 1.1).

    Every node runs the same algorithm.  A node's whole input is its input
    label (which by convention includes anything the problem wants it to
    know — the model assumes the degree is always available) and its
    degree.  Nodes have no identifiers and no knowledge of global
    parameters.

    Execution is synchronous: in every round a node consumes exactly one
    random bit (deterministic algorithms simply ignore it — accessing
    finitely many bits per round is equivalent, Section 1.1), reads the
    messages that arrived on its ports, and emits at most one message per
    port.  Outputs are irrevocable: once {!val-S.output} returns [Some o]
    it must keep returning [Some o] forever; the executor enforces this. *)

(** Flat-machine companions: an unboxed rendering of the same algorithm.

    A flat instance stores every node's state as [state_words] consecutive
    ints in one shared arena and every message as a [msg_words]-span of
    ints.  [round] mutates the node's state span in place and, when it
    returns [true], sends what it wrote into the send buffer on every
    port.  A {e broadcast} instance ([ported = false]) writes one span
    that every port carries; a {e ported} instance writes one span per
    port [p] at [soff + p*msg_words], its node's spans starting at the
    node's first directed-edge slot, so the send buffer has one span per
    slot.  An algorithm carries its companion as {!val-S.flat}.  The
    round driver runs a hook-free run of an algorithm that has one on the
    flat representation, and the minimal-simulation searches run only on
    it; runs with faults, adversaries or scrambles (which act on
    [Label.t] payloads) step the algorithm's own {!val-S.round}.  A
    wrapper that changes [round] (such as [Retransmit.wrap]) sets its own
    [flat] — [None] unless it writes a companion for the new transition —
    since the wrapped algorithm's companion steps the old one.

    The companion of an algorithm that a search simulates (a GRAN
    bundle's solver) keeps no side table: its arena words alone must be
    the state.  A* is never a search's solver: it builds its algorithm
    value afresh for every solve, and its companion runs only in place,
    for the one run it was planned for, and is never a search dedup key;
    so its words may index side tables that its [plan] creates for that
    run — A*'s label table (its [b] strings, outputs and inputs) and its
    memos of interned views — and its messages may be ids into the run's
    intern arena.

    Receivers find their messages through a port table: the message on
    port [p] starts at [inbox.(ports.(pslot + p))].  The driver's
    in-place run points the table straight into the senders' spans of
    last round's send buffer; a search's persistent arena points it into
    a materialized inbox with one span per directed-edge slot.  A span
    whose word 0 is [0] carries no message, and a reader must read no
    other word of it: after a silent round the driver zeroes only word 0
    of the node's span(s), so the tail is stale.  A [true] return must
    leave every word it sends deterministic — unused trailing words
    zeroed, word 0 nonzero — because the materialized inbox doubles as a
    search dedup key.

    A flat companion must be an {e injective} encoding of the algorithm's
    states and messages — equal flat arenas if and only if the execution
    states are structurally equal — and must keep outputs irrevocable
    (the flat path trusts it instead of re-checking every round).  The
    suite in [test/test_flat.ml] holds the catalog solvers' companions
    to exactly this: injectivity on every bit vector of tiny graphs, and
    identical outputs, rounds, message counts and search results against
    the algorithm's own [round] on fixed and random graphs. *)
module Flat = struct
  type instance = {
    state_words : int;  (** ints per node in the state arena *)
    msg_words : int;  (** ints per message span; word 0 = 0 when silent *)
    ported : bool;
        (** one send span per port (instead of one broadcast span) *)
    init :
      node:int ->
      input:Anonet_graph.Label.t ->
      degree:int ->
      state:int array ->
      off:int ->
      unit;
        (** fill the node's span (pre-zeroed) with the initial state *)
    round :
      node:int ->
      bit:bool ->
      degree:int ->
      state:int array ->
      off:int ->
      inbox:int array ->
      ports:int array ->
      pslot:int ->
      send:int array ->
      soff:int ->
      bool;
        (** one synchronous round: read the message on each port
            [p < degree] at [inbox.(ports.(pslot + p))], mutate the state
            span at [off], and either write the message(s) into the send
            buffer at [soff] — one span, or [degree] spans when [ported]
            — and return [true] (send on every port) or return [false]
            (silence). *)
    output : state:int array -> off:int -> Anonet_graph.Label.t option;
    has_output : state:int array -> off:int -> bool;
        (** allocation-free [output <> None] *)
  }

  type t = {
    plan : Anonet_graph.Graph.t -> instance;
        (** size the arenas for this graph *)
  }
end

module type S = sig
  type state

  val name : string

  (** [init ~input ~degree] is the state before round 1. *)
  val init : input:Anonet_graph.Label.t -> degree:int -> state

  (** [round state ~bit ~inbox] consumes one synchronous round.
      [inbox.(p)] is the message received on port [p] ([None] if the
      neighbor sent nothing last round; in round 1 the inbox is all
      [None]).  Returns the new state and the messages to send, one slot
      per port. *)
  val round :
    state ->
    bit:bool ->
    inbox:Anonet_graph.Label.t option array ->
    state * Anonet_graph.Label.t option array

  (** The node's irrevocable local output, if already produced. *)
  val output : state -> Anonet_graph.Label.t option

  (** The algorithm's flat companion, if it has one (see {!Flat}). *)
  val flat : Flat.t option
end

type t = (module S)

(** [broadcast ~degree msg] fills every port with [msg] — the common case
    for port-oblivious algorithms. *)
let broadcast ~degree msg = Array.make degree (Some msg)

(** [silence ~degree] sends nothing on any port. *)
let silence ~degree : Anonet_graph.Label.t option array = Array.make degree None
