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
  history : int array list;
      (** per-round class arrays, round 0 first (depth-1 views) *)
}

(** [run g] refines to the stable partition. *)
val run : Anonet_graph.Graph.t -> result

(** [classes_at_depth g d] is the partition of nodes by equality of
    depth-[d] views, [d >= 1], with canonical class numbering. *)
val classes_at_depth : Anonet_graph.Graph.t -> int -> int array

(** [initial g] is the round-0 partition (by label), canonically numbered. *)
val initial : Anonet_graph.Graph.t -> int array
