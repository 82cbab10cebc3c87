(** The [anonet client] side: submit one job over a socket and stream its
    frames back.

    {!submit} mirrors {!Runner.execute}'s outcome so a caller can swap an
    in-process run for a remote one without changing how it prints or
    exits: [on_event] receives each NDJSON event line (without the
    trailing newline) as the corresponding local run would have written
    it, and the returned outcome carries the job's exit code and text.
    Transport problems are folded into the same outcome with the
    {!Anonet_runtime.Run_error.Net} band's codes ([Connection] when the
    server vanishes mid-job, [Protocol] when it sends bytes that are not
    frames). *)

val submit : Addr.t -> Job.t -> on_event:(string -> unit) -> Runner.outcome
(** Connect, send one [submit] frame (stream id 1),
    dispatch [event] frames to [on_event], and return on the job's
    [result] or [error] frame.  Never raises on transport failure —
    connection refused, mid-job EOF and malformed frames all come back as
    outcomes with the appropriate [Net] exit code. *)
