(** Asynchronous execution and the α-synchronizer.

    The paper's model (Section 1.1) is synchronous.  Real networks are
    not, and much of the related work the paper engages with (k-local
    election [37], population protocols [7]) lives in asynchronous
    models.  This module provides:

    - an event-driven {e asynchronous executor}: messages experience
      per-message delivery delays chosen by a {!scheduler} (an adversary);
      a node is activated whenever a message arrives;
    - the classic {e α-synchronizer}: a wrapper turning any synchronous
      algorithm of {!Algorithm.S} into an asynchronous one by tagging
      messages with round numbers and buffering until every neighbor's
      round-[r] message (an explicit [null] when the algorithm sends
      nothing) has arrived.

    The synchronizer preserves the synchronous semantics exactly: with the
    same tape, the asynchronous run produces the same outputs as
    {!Executor.run} under {e every} scheduler — a property the test suite
    checks against random and adversarial schedules. *)

(** How the adversary delays messages. *)
type scheduler =
  | Fifo  (** deliver in send order (delay 1 each) *)
  | Random_delay of { seed : int; max_delay : int }
      (** each message independently delayed by 1..max_delay ticks *)
  | Skewed of { seed : int; max_delay : int; slow_node : int }
      (** like [Random_delay] but every message {e from} [slow_node]
          always takes the maximum delay — an adversary starving one
          node *)

type outcome = {
  outputs : Anonet_graph.Label.t array;
  events : int;  (** messages delivered *)
  virtual_rounds : int;  (** synchronizer rounds completed *)
}

type failure =
  | Event_limit_exceeded of int
  | Tape_exhausted of { round : int }
  | Stalled of { events : int }
      (** no messages in flight, nodes still undecided: a fault starved the
          synchronizer, which deadlocks by design (no retransmission) —
          only reachable with [?faults]; see {!Retransmit} for the cure *)

val pp_failure : Format.formatter -> failure -> unit

(** [sample_delay scheduler rng ~source] draws one delivery delay — the
    deterministic core of the adversary, exposed so tests can pin the
    documented range: every scheduler draws from [1..max_delay], with
    [Skewed] pinning messages from [slow_node] to exactly [max_delay]. *)
val sample_delay : scheduler -> Anonet_graph.Prng.t -> source:int -> int

(** [run ?ctx algo g ~tape ~scheduler ~max_events] executes the synchronous
    algorithm [algo] on the asynchronous substrate through the
    α-synchronizer.

    [ctx.faults], when set, filters every scheduled message through a fresh
    {!Faults} injector (loss, duplication, corruption, dead links — nulls
    included, they are real messages on the wire) and crash-stops failed
    nodes (the asynchronous substrate has no global clock, so the
    crash-recovery reading is not available here).  Because the
    α-synchronizer waits for {e every} neighbor's round-[r] message, a
    single lost message deadlocks its receiver: expect {!Stalled} under any
    positive loss rate unless the algorithm is wrapped in {!Retransmit}.

    [ctx.adversary], when set, taps every payload the fault layer lets
    through with a fresh {!Adversary} instance ({!Adversary.tamper} keyed
    by the message's synchronizer round); the synchronizer's explicit nulls
    carry no payload and pass untouched.

    [ctx.obs], when live, posts the [async.events] counter and
    [async.virtual_rounds] gauge (equal to the outcome's fields by
    construction), the [faults.*] tallies, the [async.run] span, and one
    ["async.done"] event.  [ctx.scramble_seed] is not
    consulted (the asynchronous wire has no port rounds to scramble). *)
val run :
  ?ctx:Run_ctx.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  tape:Tape.t ->
  scheduler:scheduler ->
  max_events:int ->
  (outcome, failure) result
