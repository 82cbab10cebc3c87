(** Observability handle: a metrics registry plus an event sink.

    One [Obs.t] rides inside [Run_ctx.t] through every runtime and search
    entry point.  The {!null} handle is the default and is engineered to be
    near-free: metric handles come back as [None] and every update is a
    single option match, so instrumented code stays byte-identical in output
    and within noise in speed.

    Typical use in instrumented code:
    {[
      let rounds = Obs.counter obs "executor.rounds" in  (* once, cold *)
      ...
      Obs.incr rounds;                                   (* hot, per round *)
      Obs.event obs "round" [ ("round", Int r) ];        (* no-op if sink null *)
    ]} *)

type t

val null : t
(** No metrics, no events; {!live} is [false]. *)

val make : ?metrics:Metrics.t -> ?events:Events.t -> unit -> t
(** A live handle.  Without [metrics] it is events-only: metric handles
    come back as [None], as on {!null}, while events and spans' events are
    emitted (a served job's handle).  [events] defaults to the null sink
    (metrics without an event stream is the common CLI case). *)

val live : t -> bool
val metrics : t -> Metrics.t option

(** {1 Metric handles} — [None] on the null handle, so hot-path updates cost
    one branch. *)

val counter : t -> string -> Metrics.counter option
val gauge : t -> string -> Metrics.gauge option
val histogram : t -> string -> Metrics.histogram option
val incr : ?by:int -> Metrics.counter option -> unit
val set : Metrics.gauge option -> int -> unit
val observe : Metrics.histogram option -> int -> unit

(** {1 Events} *)

val event : t -> string -> (string * Events.value) list -> unit
(** Emit iff the event sink is live (not null). *)

val eventf : t -> string -> (unit -> (string * Events.value) list) -> unit
(** Like {!event} but the field list is built lazily — use when constructing
    the payload itself is too expensive for a hot loop. *)

(** {1 Profiling spans} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f], recording its wall-clock duration in histogram
    [span.<name>.ns] and emitting [span.open] / [span.close] events (the
    close event carries [ns] and [ok]; an escaping exception closes the span
    with [ok=false] and re-raises).  On the null handle this is exactly
    [f ()]. *)
