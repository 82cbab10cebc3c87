(** The universal cover [U(G)] (Section 1.3, cf. Angluin [5] and
    Norris [39]).

    [U(G)] is the (possibly infinite) tree obtained from the depth-infinity
    local view [L_∞(v)] by pruning, at every non-root vertex, the child
    that corresponds to the vertex's parent, and forgetting edge
    directions: its branches are the {e non-backtracking} walks of [G].
    Norris' theorem is originally stated for universal covers —
    isomorphism of depth-(n-1) truncations implies isomorphism to all
    depths — and translates to the depth-n statement about local views
    used in Section 3 (footnote 4 of the paper).

    Truncations are {!Interned} trees, rooted and canonical like local
    views, in the calling domain's current arena. *)

(** [truncation g ~root ~depth] is the depth-[depth] truncation of [U(g)]
    rooted at [root]'s copy: level 2 lists all neighbors; deeper levels
    omit the walk's predecessor.
    @raise Invalid_argument if [depth < 1]. *)
val truncation : Anonet_graph.Graph.t -> root:int -> depth:int -> Interned.t

(** [classes_at_depth g d] partitions nodes by equality of their depth-[d]
    universal-cover truncations (canonical class numbering). *)
val classes_at_depth : Anonet_graph.Graph.t -> int -> int array

(** [stable_depth g] is the smallest [d] at which the truncation partition
    equals the [L_∞] partition of {!Refinement}.  Norris: at most [n-1]
    on graphs with at least 2 nodes (and 1 on the singleton). *)
val stable_depth : Anonet_graph.Graph.t -> int

(** [agrees_with_views g ~depth] checks, for every pair of nodes, that
    depth-[depth] universal-cover truncations and depth-[depth] local
    views induce the same equivalence whenever both are stable — i.e.
    at any [depth >= n] the two partitions coincide (both equal the
    [L_∞] partition). *)
val agrees_with_views : Anonet_graph.Graph.t -> depth:int -> bool
