(** Graph lifts (covering graphs / products).

    A [k]-lift of a base graph [G] replaces every node [v] by [k] copies
    [(v, 0) .. (v, k-1)] and every edge [(u, v)] by a perfect matching
    between the copies of [u] and the copies of [v], described by a
    permutation of [0 .. k-1].  Labels are pulled back from the base.

    The projection [(v, i) -> v] is a factorizing map in the sense of
    Section 2.3.1 (surjective, label-respecting, a local isomorphism), so
    every lift is a product of its base — lifts are how tests and
    experiments manufacture non-prime graphs with known factors
    (cf. Figure 2 and the lifting lemma [5, 12]). *)

type t = {
  graph : Graph.t;  (** the lifted graph; node [(v, i)] has index [i * n + v] *)
  map : int array;  (** the covering (factorizing) map onto the base *)
  base : Graph.t;
}

(** [identity base ~k] is the trivial lift: [k] disjoint copies. *)
val identity : Graph.t -> k:int -> t

(** [cyclic base ~k ~shift] uses the rotation [i -> (i + shift (u, v)) mod k]
    on every edge. *)
val cyclic : Graph.t -> k:int -> shift:(int * int -> int) -> t

(** [random ~seed base ~k] draws each edge permutation uniformly and retries
    until the lift is connected.  A connected lift requires the base to
    contain cycles — every lift of a tree is a forest with [k] times the
    nodes but fewer than the required edges, hence disconnected — so use
    bases such as {!Gen.random_hamiltonian}, cycles, or other non-trees.
    @raise Failure after 10000 disconnected attempts (e.g. on tree bases). *)
val random : seed:int -> Graph.t -> k:int -> t

(** [c12_over_c6 ()] reconstructs the product chain of Figure 2: returns
    the 2-lift of the labeled 6-cycle that is a 12-cycle, together with its
    factorizing map.  The base carries the 2-hop coloring (1, 2, 3, ...) of
    the figure. *)
val c12_over_c6 : unit -> t

(** [c6_over_c3 ()] is Figure 2's inner product: the labeled 6-cycle as a
    2-lift of the labeled triangle. *)
val c6_over_c3 : unit -> t
