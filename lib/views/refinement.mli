(** Color refinement: the equivalence classes of depth-[d] local views.

    Round 0 partitions nodes by label; round [r] refines by the multiset of
    neighbors' round-[r-1] classes.  The round-[r] partition is exactly the
    partition by equality of depth-[r+1] local views, so the stable
    partition is the partition by [L_∞] — the node set [V_∞] of the
    infinite view graph (Definition 1).  Since each round strictly refines
    or stabilizes, the process stops within [n] rounds: this is the
    effective content of Norris' theorem (Theorem 3) that this library
    leans on to replace depth-infinity views with depth-[n] views.

    Class identifiers are canonical: at every round, classes are numbered
    by the sorted order of their signatures, so isomorphic graphs receive
    identical class arrays up to the isomorphism, and the class numbering
    induces the predetermined total order on [V_∞] used in Section 2.1. *)

type result = {
  classes : int array;  (** stable class of each node, in [0 .. num_classes-1] *)
  num_classes : int;
  stable_view_depth : int;
      (** smallest [d] such that the depth-[d] view partition equals the
          [L_∞] partition; Norris guarantees [stable_view_depth <= n] *)
}

(** [run g] refines to the stable partition. *)
val run : Anonet_graph.Graph.t -> result

(** [classes_at_depth g d] is the partition of nodes by equality of
    depth-[d] views, [d >= 1], with canonical class numbering. *)
val classes_at_depth : Anonet_graph.Graph.t -> int -> int array

(** [norris_bound_holds g] checks [(run g).stable_view_depth <= max 1 n]:
    Norris' theorem (Theorem 3), that the depth-[n] view [L_n(v)]
    determines [L_∞(v)], instantiated on [g]. *)
val norris_bound_holds : Anonet_graph.Graph.t -> bool

(** [equal_nodes (g1, v1) (g2, v2) ~depth] decides
    [L_depth(v1, g1) = L_depth(v2, g2)] without building either view, by
    refinement on the disjoint union — exact and polynomial even at depths
    where the unfolded trees are exponentially large.
    @raise Invalid_argument if [depth < 1]. *)
val equal_nodes :
  Anonet_graph.Graph.t * int -> Anonet_graph.Graph.t * int -> depth:int -> bool
