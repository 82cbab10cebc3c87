(** The [anonet serve] loop: accepts connections, decodes {!Frame}s,
    and multiplexes submitted jobs across [domains] worker loops.

    Concurrency model: a worker thread runs {!Anonet_parallel.Pool.map}
    over [n] worker loops — [n - 1] spawned domains plus the thread
    itself — each draining a shared job queue, so up to [n] jobs execute
    at once.  Every job runs sequentially on its worker unless its own
    [jobs=K] key fans its experiment rows out over domains of its own.
    Each connection gets two threads: a reader that parses frames, and a
    writer that drains a per-connection outbox of outbound frames —
    workers and readers only ever {e enqueue} output, so no thread
    holding a lock or a worker can block on a peer's socket, and a job's
    [event] frames never interleave bytes with another job's on the same
    socket.

    Backpressure: three bounds, each answered without stalling anything
    shared.  The job queue is bounded ([max_queue]); a [submit] that
    arrives with the queue full is answered immediately with an [error]
    frame carrying {!Anonet_runtime.Run_error.Rejected}'s exit code.  The
    per-connection outbox is bounded; a client that stops reading while
    its jobs keep producing is dropped.  Socket writes carry a 30-second
    send timeout ([SO_SNDTIMEO]); a write that cannot make progress
    within it drops the connection instead of wedging the writer thread
    forever.

    Streams: ids are chosen by the client, scoped per connection, and
    live from an accepted [submit] to the stream's final frame — after
    which the id may be reused.  A [submit] on a stream that is still in
    flight is a protocol error; a [cancel] for an unknown (or already
    finished) stream is a no-op.

    Cancellation ([cancel] frame): a queued job is dropped; a running
    job's output is suppressed.  Either way the stream is answered with a
    single [error] frame ([Rejected], message ["cancelled"]).

    Metrics (when [obs] is live): [server.connections] and
    [server.frames.in]/[server.frames.out]/[server.frames.rejected]
    counters, and the [server.jobs.in_flight] gauge (queued + running). *)

type t

val start :
  ?obs:Anonet_obs.Obs.t ->
  ?domains:int ->
  ?max_queue:int ->
  Addr.t ->
  (t, string) result
(** Binds, listens, and spawns the accept and worker threads; returns
    once the server is accepting.  [domains] defaults to
    [Domain.recommended_domain_count ()]; [max_queue] to 64.  A
    stale Unix-socket path is unlinked before binding.  An unresolvable
    host or an address that cannot be bound is an [Error] with a
    human-readable diagnostic; nothing is left running in that case.
    @raise Invalid_argument if [domains < 1]. *)

val stop : t -> unit
(** Stops accepting, drains running jobs, flushes each connection's
    outbox (bounded by the send timeout per write), joins every thread and
    worker domain, and closes all sockets.  Idempotent. *)
