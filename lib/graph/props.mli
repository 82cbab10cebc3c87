(** Structural predicates and measures on labeled graphs. *)

(** [is_connected g] holds iff [g] is connected (the empty graph is). *)
val is_connected : Graph.t -> bool

(** [bfs_distances g v] is the array of hop distances from [v];
    unreachable nodes get [max_int]. *)
val bfs_distances : Graph.t -> int -> int array

(** [diameter g] is the largest finite hop distance.
    @raise Invalid_argument if [g] is disconnected or empty. *)
val diameter : Graph.t -> int

(** [k_hop_neighbors g v k] is the sorted list of nodes at distance
    [1 .. k] from [v] (excluding [v] itself). *)
val k_hop_neighbors : Graph.t -> int -> int -> int list

(** [is_k_hop_coloring g k labeling] checks the defining property of
    Section 1.1: any two distinct nodes at distance at most [k] have
    different labels under [labeling].

    The check is local: it runs one BFS per node bounded at depth [k], so
    it costs O(Σ_v |B_k(v)|·deg) — not O(n·(n+m)) — and stops at the
    first conflict.  It allocates O(n) scratch once per call (shared by
    all nodes) and calls [labeling] exactly once per node. *)
val is_k_hop_coloring : Graph.t -> int -> (int -> Label.t) -> bool

(** [is_two_hop_colored g] checks that [g]'s own labeling is a 2-hop
    coloring. *)
val is_two_hop_colored : Graph.t -> bool

(** [distinct_labels g] is the number of distinct labels in [g]. *)
val distinct_labels : Graph.t -> int

(** [degree_histogram g] maps each occurring degree to its multiplicity,
    as a sorted association list. *)
val degree_histogram : Graph.t -> (int * int) list
