(** Labeled graphs with port numbering.

    A graph is finite, simple (undirected, no loops, no parallel edges) and
    labeled: every node [v] carries a label [label g v].  Following the
    message-passing model of Section 1.1, every node distinguishes the ports
    corresponding to its incident edges: the neighbors of [v] are an ordered
    array, and port [j] of [v] is the edge to [neighbor g v j].

    Nodes are identified by dense integers [0 .. n-1] {e for the purposes of
    this library's bookkeeping only} — the simulated algorithms never see
    node identities, only labels, degrees and ports. *)

type t

(** {2 Construction} *)

(** Streaming construction.  A builder accepts edges one at a time — O(1)
    amortized per edge, two flat int arrays of endpoints, no intermediate
    list and no per-edge hashing — and [build] assembles the CSR adjacency
    in two passes (degree count, prefix-sum scatter) followed by a per-node
    sort that yields canonical ports and detects duplicates as adjacent
    equal entries.  This is the only construction path: [create] is a thin
    wrapper that drains its edge list into a builder.  Validation errors
    raise [Invalid_argument] with the same ["Graph.create: ..."] messages
    as {!create}, and the message string is formatted only on failure. *)
module Builder : sig
  type builder

  (** [create ~n ()] starts a builder for a graph on nodes [0..n-1].
      [edges_hint] presizes the endpoint arrays (they grow by doubling
      regardless).
      @raise Invalid_argument if [n < 0]. *)
  val create : ?edges_hint:int -> n:int -> unit -> builder

  (** [add_edge b u v] records the undirected edge [(u, v)].
      @raise Invalid_argument on out-of-range endpoints or a self-loop
      (duplicates are detected at {!build} time). *)
  val add_edge : builder -> int -> int -> unit

  (** [build b ~labels] assembles the graph.  The builder stays usable.
      @raise Invalid_argument on duplicate edges or a label array of the
      wrong length. *)
  val build : builder -> labels:Label.t array -> t

  (** [build_unlabeled b] is [build] with all labels [Label.Unit]. *)
  val build_unlabeled : builder -> t
end

(** [create ~n ~edges ~labels] builds a graph on nodes [0..n-1].
    Ports are assigned canonically: the neighbors of each node are sorted by
    node index.  Self-loops and duplicate edges are rejected.
    @raise Invalid_argument on loops, duplicates, out-of-range endpoints, or
    a label array of the wrong length. *)
val create : n:int -> edges:(int * int) list -> labels:Label.t array -> t

(** [unlabeled ~n ~edges] is [create] with all labels [Label.Unit]. *)
val unlabeled : n:int -> edges:(int * int) list -> t

(** [relabel g f] is [g] with node [v] relabeled to [f v]. *)
val relabel : t -> (int -> Label.t) -> t

(** [with_labels g labels] replaces the whole labeling.
    @raise Invalid_argument if the array length differs from [n g]. *)
val with_labels : t -> Label.t array -> t

(** [map_labels g f] applies [f] to every label. *)
val map_labels : t -> (Label.t -> Label.t) -> t

(** [zip_labels g extra] pairs each node's label with [extra.(v)], producing
    the composite labeling [<l(v), extra(v)>] of Section 1.1. *)
val zip_labels : t -> Label.t array -> t

(** [permute_ports g perms] renumbers ports: the new port [j] of node [v]
    is the old port [perms.(v).(j)].  Each [perms.(v)] must be a permutation
    of [0 .. degree g v - 1].
    @raise Invalid_argument otherwise. *)
val permute_ports : t -> int array array -> t

(** {2 Accessors} *)

val n : t -> int

val num_edges : t -> int

val degree : t -> int -> int

val max_degree : t -> int

(** [neighbor g v j] is the node at port [j] of [v]. *)
val neighbor : t -> int -> int -> int

(** [neighbors g v] is the ordered neighbor array of [v].  The array is a
    fresh copy of the node's CSR slice; prefer {!iter_neighbors},
    {!fold_neighbors} or the raw {!offsets}/{!adjacency} pair on hot
    paths — this accessor allocates. *)
val neighbors : t -> int -> int array

(** {2 Flat (CSR) access}

    The adjacency is stored as one [offsets] array (length [n + 1]) plus
    one flat [adjacency] array: port [p] of node [v] is
    [(adjacency g).(​(offsets g).(v) + p)], and [(offsets g).(n g)] is the
    total number of directed edge slots.  Both arrays are the graph's own
    storage — do not mutate them. *)

(** [offsets g] is the CSR offset array, length [n g + 1] (do not mutate). *)
val offsets : t -> int array

(** [adjacency g] is the flat neighbor array (do not mutate). *)
val adjacency : t -> int array

(** [ports_sorted g] holds iff every node's ports are sorted by neighbor
    index — true for every constructed graph, possibly false after
    {!permute_ports}.  Sorted graphs answer {!port_to}/{!has_edge} by
    binary search. *)
val ports_sorted : t -> bool

(** [iter_neighbors g v ~f] applies [f] to each neighbor of [v] in port
    order, without allocating. *)
val iter_neighbors : t -> int -> f:(int -> unit) -> unit

(** [fold_neighbors g v ~init ~f] folds [f] over the neighbors of [v] in
    port order, without allocating. *)
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [port_to g v u] is the port of [v] leading to [u].
    @raise Not_found if [u] is not a neighbor of [v]. *)
val port_to : t -> int -> int -> int

(** [reverse_slots g] maps each directed-edge slot to the slot of the same
    edge seen from the other end: for [u = neighbor g v p], entry
    [(offsets g).(v) + p] is [(offsets g).(u) + port_to g u v].  One
    linear pass on a sorted graph; one {!port_to} per slot after
    {!permute_ports}.  A fresh array. *)
val reverse_slots : t -> int array

val label : t -> int -> Label.t

val labels : t -> Label.t array

(** [has_edge g u v] holds iff [(u, v)] is an edge. *)
val has_edge : t -> int -> int -> bool

(** [edges g] lists every edge once, as [(u, v)] with [u < v]. *)
val edges : t -> (int * int) list

val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val iter_nodes : t -> f:(int -> unit) -> unit

val iter_edges : t -> f:(int -> int -> unit) -> unit
