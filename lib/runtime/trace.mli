(** Execution traces: round-by-round observation of a run.

    Records, for every round, the cumulative message count and which nodes
    have produced their irrevocable outputs — enough to see an anonymous
    algorithm's convergence pattern without breaking the abstraction of
    node-local state.  Used by the CLI ([anonet solve --trace]) and handy
    when debugging new algorithms. *)

type t

(** [record ?ctx algo g ~tape ~max_rounds] executes while recording.  On
    failure the partial trace is still returned alongside the failure.

    The run goes through {!Executor.drive}, so outcome and failure are
    exactly {!Executor.run}'s.  [ctx.faults], when set, instantiates an
    injector for this run; its event log and crash schedule are captured
    in the trace and shown by {!render}.  [ctx.scramble_seed]
    scrambles inbox port orders as in {!Executor.run}.  [ctx.obs] gets the
    same [executor.rounds]/[executor.messages] counters and [faults.*]
    tallies as a plain run, under a [trace.record] span. *)
val record :
  ?ctx:Run_ctx.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  tape:Tape.t ->
  max_rounds:int ->
  (t * Executor.outcome, t * Executor.failure) result

(** [output_rounds t] maps each node to the round at which it produced its
    output ([None] if it never did). *)
val output_rounds : t -> int option array

(** [messages_by_round t] is the number of messages delivered in each
    round, round 1 first. *)
val messages_by_round : t -> int list

(** [rounds t] is the number of rounds recorded. *)
val rounds : t -> int

(** [fault_events t] is the injector's event log, in injection order
    (empty when the run was recorded without [?faults]). *)
val fault_events : t -> Faults.event list

(** [adversary_events t] is the adversary's action log, in round order
    (empty when the run was recorded without [ctx.adversary]). *)
val adversary_events : t -> Adversary.event list

(** [render t] draws an ASCII timeline: one row per node, one column per
    round; ['.'] while undecided, ['#'] from the output round on, ['x']
    while crashed (the legend names ['x'] only when some node is crashed
    in a rendered round).  Fault events, if any, are listed below the
    grid. *)
val render : t -> string
