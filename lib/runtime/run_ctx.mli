(** The run context: one record carrying every cross-cutting concern a run
    can be configured with, threaded through the runtime and search entry
    points as [?ctx] (defaulting to {!default}).

    One record instead of one optional argument per concern keeps the
    signatures of [Executor], [Async], [Las_vegas], [Min_search],
    [A_infinity] and [Experiments] fixed as concerns are added.  A
    [Run_ctx.t] is built once (typically by the CLI or the serve
    frontend) and passed down whole.

    The context is a pure description: it holds a fault {e plan}, not a
    stateful injector, so one context can be reused across runs and
    attempts — each run instantiates its own injector via {!injector}. *)

type t = {
  faults : Faults.plan option;  (** fault plan applied to (each) run *)
  adversary : Adversary.plan option;
      (** adaptive adversary layered on top of the faults (see {!Adversary}) *)
  obs : Anonet_obs.Obs.t;  (** metrics + event sink; [Obs.null] = off *)
  scramble_seed : int option;
      (** per-round inbox scrambling (see [Executor.run]) *)
}

val default : t
(** No faults, no adversary, null observability, no scrambling. *)

val make :
  ?faults:Faults.plan ->
  ?adversary:Adversary.plan ->
  ?obs:Anonet_obs.Obs.t ->
  ?scramble_seed:int ->
  unit ->
  t

val obs : t -> Anonet_obs.Obs.t
val faults : t -> Faults.plan option
val adversary : t -> Adversary.plan option

val injector : t -> Faults.t option
(** A {e fresh} stateful injector for the context's fault plan.  Injectors
    must not be shared between runs; call this once per run. *)

val adversary_instance : t -> Adversary.t option
(** A {e fresh} stateful adversary for the context's adversary plan; same
    one-per-run contract as {!injector}. *)

val scramble :
  t -> (node:int -> degree:int -> round:int -> int array) option

val observe_faults : Anonet_obs.Obs.t -> Faults.t -> unit
(** Fold a (finished) injector's event log into the observability handle:
    one [faults.<kind>] counter increment and one ["fault"] event per
    injection, plus the [faults.spent] gauge.  Used by both executors after
    a run; a no-op on a null handle. *)

val observe_adversary : Anonet_obs.Obs.t -> Adversary.t -> unit
(** The adversary counterpart of {!observe_faults}: one
    [adversary.<kind>] counter increment and one ["adversary"] event per
    action (substituted / corrupted / targeted), plus the
    [adversary.spent] and [adversary.observed] gauges. *)
