(** Executes a {!Job.t} — the one engine behind both the CLI subcommands
    and the server's job loop, which is what makes "the same job over a
    socket" byte-identical to "the same job in-process": both sides build
    the same {!Anonet_runtime.Run_ctx}, run the same entry points, and
    render the same text.

    Observability: the caller supplies the handle.  The CLI wires its
    [--metrics]/[--events] flags in; the server gives each job an
    event-only handle whose NDJSON lines become [event] frames on the
    job's stream. *)

exception Bad_spec of string
(** The job (or one of its knob values) does not parse — a rejection, not
    an execution failure: nothing was run.  The server maps this to an
    [error] frame with {!Anonet_runtime.Run_error.Rejected}'s code; the
    CLI prints the message and exits 1. *)

type outcome = {
  code : int;  (** 0 on success, else the {!Anonet_runtime.Run_error} code *)
  out : string;  (** stdout text, exactly as the CLI subcommand prints it *)
  err : string;
      (** diagnostic on failure, printed on stderr; [""] on success, and
          on a traced solve's failure, which is reported in [out] *)
}

val bundle_of_spec : string -> Anonet_problems.Gran.t
(** [mis], [coloring], [2hop]/[two-hop] or [matching].
    @raise Bad_spec otherwise. *)

val coloring_of_spec :
  Anonet_graph.Graph.t -> string -> Anonet_graph.Label.t array
(** [unique], [mod:K] or [random:SEED] (the latter runs the Las-Vegas
    2-hop solver).  @raise Bad_spec on unknown specs, on [mod:K] with
    [K < 1], and on a [mod:K] that is not a 2-hop coloring of the graph. *)

val graph_of_spec : string -> Anonet_graph.Graph.t
(** {!Anonet_graph.Spec.graph} with failures — unknown specs, arguments a
    generator rejects, unreadable or unparsable files — mapped to
    {!Bad_spec}. *)

val execute : ?obs:Anonet_obs.Obs.t -> Job.t -> outcome
(** Runs the job to completion, in a view-interning arena of its own
    ({!Anonet_views.Interned.with_arena}): at most one thread per domain
    may be running a job at a time.  Solves and derandomizations run
    sequentially on the calling thread.  The accepted keys, per kind:

    - [solve]: [problem], [graph] (required); [seed] (default 1),
      [faults], [adversary], [divergence], [retransmit] ([true]/[false]),
      [trace] ([true]/[false], default [false]): one attempt on the
      seed's tape, at most [64 * (n + 4)] rounds, rendered as a
      round-by-round timeline ({!Anonet_runtime.Trace}) — it takes no
      [divergence];
    - [derandomize]: [problem], [graph] (required); [colors] (default
      [random:1]), [method] ([a-infinity], default, or [a-star]);
    - [experiment]: [id] (all experiments when absent); [jobs] (default
      1): the domains that fan independent experiment rows out.  It must
      be at least 1 and is clamped to [Domain.recommended_domain_count ()];
      the output is the same at any value, except the wall-clock
      [time (s)] column of experiments A1 and A2, which differs between
      any two runs.

    @raise Bad_spec on a key its kind does not accept, a key given twice,
    values that do not parse, missing required keys, or unparseable
    specs, or [divergence] with [trace=true].  When a [faults] or
    [adversary] plan is set, an [Invalid_argument m] from the solve is the
    outcome with code 1 and an [err] that diagnoses the injected faults
    breaking an unwrapped algorithm's protocol ([retransmit] is the
    remedy); other exceptions from the run itself propagate. *)
