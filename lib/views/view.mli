(** Depth-[d] local views [L_d(v, G)] (Section 1.1, Figure 1).

    The depth-d local view of node [v] is a rooted tree: [L_1(v)] is a
    single vertex marked with [v]'s label, and [L_{d+1}(v)] attaches the
    root of [L_d(u)] as a child for every neighbor [u] of [v].  The view
    captures everything a deterministic anonymous algorithm at [v] can
    learn in [d - 1] communication rounds.

    Views here are {e canonical}: the children of every vertex are sorted
    under {!compare}.  On 2-hop colored graphs siblings carry distinct
    marks (Section 2.1), so the sorted form is a faithful canonical
    representation; on arbitrary graphs it canonicalizes the sibling
    multiset, which is exactly the information an anonymous (port-oblivious)
    observer has. *)

type t = {
  mark : Anonet_graph.Label.t;
  children : t list;  (** sorted under {!compare}; empty at depth 1 *)
}

(** [of_graph g ~root ~depth] computes [L_depth(root, g)].
    @raise Invalid_argument if [depth < 1]. *)
val of_graph : Anonet_graph.Graph.t -> root:int -> depth:int -> t

(** Canonical total order on views — the "level by level" order of
    Section 2.1 realized structurally: first the root marks, then the
    (sorted) child lists, lexicographically. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [depth v] is the number of levels ([L_d] has depth [d]).  Memoized on
    physical identity, so it costs O(|shared DAG|), not O(|unfolded tree|). *)
val depth : t -> int

(** [size v] is the number of vertices of the unfolded tree (saturating at
    [max_int]).  Memoized on physical identity: O(|shared DAG|) even when
    the count itself is astronomical. *)
val size : t -> int

(** [intern v] is the hash-consed form of [v] (see {!Interned}); total on
    arbitrary trees — sibling order is re-canonicalized if needed. *)
val intern : t -> Interned.t

(** [of_interned i] converts back to a structural tree, reproducing the
    interned DAG's sharing, so [intern] and [of_interned] round-trip without
    unfolding.  [compare (of_interned a) (of_interned b)] agrees with
    [Interned.compare a b]. *)
val of_interned : Interned.t -> t

(** [truncate v ~depth] prunes [v] to the given depth — the depth-n
    truncating function [f_n] of Section 3 applied to explicit trees.
    @raise Invalid_argument if [depth < 1]. *)
val truncate : t -> depth:int -> t

(** [equal_nodes (g1, v1) (g2, v2) ~depth] decides
    [L_depth(v1, g1) = L_depth(v2, g2)] without materializing trees, by
    color refinement on the disjoint union — exact and polynomial even at
    depths where the trees are exponentially large. *)
val equal_nodes :
  Anonet_graph.Graph.t * int -> Anonet_graph.Graph.t * int -> depth:int -> bool

(** ASCII rendering of the tree, one vertex per line (root first), as in
    Figure 1. *)
val to_string : t -> string
