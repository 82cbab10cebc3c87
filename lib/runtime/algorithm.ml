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
end

type t = (module S)

(** [broadcast ~degree msg] fills every port with [msg] — the common case
    for port-oblivious algorithms. *)
let broadcast ~degree msg = Array.make degree (Some msg)

(** [silence ~degree] sends nothing on any port. *)
let silence ~degree : Anonet_graph.Label.t option array = Array.make degree None

(** Flat-machine companions: an unboxed rendering of the same algorithm.

    A flat instance stores every node's state as [state_words] consecutive
    ints in one shared arena and every message as a [msg_words]-span of
    ints.  [round] mutates the node's state span in place and, when it
    returns [true], sends what it wrote into the send buffer on every
    port.  A {e broadcast} instance ([ported = false]) writes one span
    that every port carries; a {e ported} instance writes one span per
    port [p] at [soff + p*msg_words], its node's spans starting at the
    node's first directed-edge slot, so the send buffer has one span per
    slot.  Algorithms register a flat companion with {!register_flat}.
    The round driver runs a hook-free run of such an algorithm on the
    flat representation, and the minimal-simulation searches run only on
    it; runs with faults, adversaries or scrambles (which act on
    [Label.t] payloads) step the algorithm's own {!val-S.round}.

    A companion may instead be handed to the driver directly
    ([Executor.run ?flat]), as A* does with the fresh companion it builds
    for every solve: registering one per solve would grow the
    process-wide registry by an entry per job and keep each solve's
    memos reachable.  Such a companion runs only in place, for the one
    run it was planned for, and is never a search dedup key; so its words
    may index side tables that its [plan] creates for that run — A*'s
    label table (its [b] strings, outputs and inputs) and its memos of
    interned views — and its messages may be ids into the run's intern
    arena.  A registered companion keeps no such table: its arena words
    alone must be the state.

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
    suite in [test/test_flat.ml] holds registered companions to exactly
    this: injectivity on every bit vector of tiny graphs, and identical
    outputs, rounds, message counts and search results against the
    algorithm's own [round] on fixed and random graphs. *)
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

(* Flat companions are registered against the algorithm's first-class
   module value (physical identity): wrappers such as Retransmit.wrap
   produce fresh module values and therefore — correctly — have none.
   The list is tiny (a handful of library algorithms) and read-mostly;
   registration CASes so concurrent domain start-up is safe. *)
let flat_registry : (t * Flat.t) list Atomic.t = Atomic.make []

let register_flat algo flat =
  let rec add () =
    let old = Atomic.get flat_registry in
    if not (Atomic.compare_and_set flat_registry old ((algo, flat) :: old)) then
      add ()
  in
  add ()

let find_flat (algo : t) =
  List.find_map
    (fun (a, f) -> if a == algo then Some f else None)
    (Atomic.get flat_registry)
