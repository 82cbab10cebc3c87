(** The decoupling corollary of Theorem 1.

    "With the exception of a few mock cases, the execution of every
    randomized anonymous algorithm can be decoupled into a generic
    preprocessing randomized stage that computes a 2-hop coloring,
    followed by a problem-specific deterministic stage."  (Abstract.)

    [solve] realizes exactly that pipeline on a GRAN bundle: stage 1 runs
    the Las-Vegas 2-hop coloring algorithm (the only place randomness is
    used); stage 2 attaches the coloring to the instance and solves [Π^c]
    deterministically — either with the generic [A*] / [A_∞]
    derandomization, or (to show why the corollary has practical bite)
    with a problem-specific deterministic algorithm when one is supplied. *)

type stage_two =
  | Generic_a_star  (** the message-passing derandomization of Theorem 1 *)
  | Generic_a_infinity  (** the centralized form (Theorem 2) *)
  | Specific of Anonet_runtime.Algorithm.t
      (** a problem-specific deterministic algorithm expecting [Π^c]
          instances (e.g. {!Anonet_algorithms.Det_from_two_hop}) *)

type result = {
  outputs : Anonet_graph.Label.t array;
  coloring : Anonet_graph.Label.t array;  (** the stage-1 2-hop coloring *)
  coloring_rounds : int;  (** stage-1 round count *)
  stage_two_rounds : int;  (** stage-2 round count (0 for [A_∞]) *)
}

(** [solve ~gran g ~seed ~stage_two ()] runs the two-stage pipeline on a
    [Π]-instance [g] (plain input labels, no coloring attached — the
    pipeline creates it).  Each stage runs on its own default round
    budget: {!Anonet_runtime.Las_vegas.solve}'s for stage 1, {!A_star.solve}'s
    for [Generic_a_star], and [64 * (n + 4)] rounds for a [Specific]
    algorithm. *)
val solve :
  gran:Anonet_problems.Gran.t ->
  Anonet_graph.Graph.t ->
  seed:int ->
  stage_two:stage_two ->
  unit ->
  (result, string) Stdlib.result
