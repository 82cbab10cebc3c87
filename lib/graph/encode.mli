(** Canonical finite encodings of labeled graphs.

    Section 3.1 orders finite view graphs by size and then by a canonical
    bitstring representation [s(G)] derived from a predetermined total
    order on the nodes.  [to_string] realizes [s(·)]: given a node order it
    encodes the node count, every node's label in order, and every edge as
    an ordered pair of ordinals — an injective encoding, so two graphs with
    compatible node orders are equal iff their encodings are. *)

(** [to_string g ~order] encodes [g] using the bijection
    [ordinal i -> node order.(i)].
    @raise Invalid_argument if [order] is not a permutation of the nodes. *)
val to_string : Graph.t -> order:int array -> string

(** [compare_sized (n1, s1) (n2, s2)] is the paper's order on encoded
    graphs: first by node count, then lexicographically by encoding. *)
val compare_sized : int * string -> int * string -> int

(** [canonical g] is [to_string g ~order:identity] — the encoding the
    [(size, encoding)] candidate order of Section 3.1 consumes.  Sorted
    graphs stream it straight off the adjacency; graphs with permuted
    ports take the sorting path. *)
val canonical : Graph.t -> string

type cache_stats = {
  hits : int;
  misses : int;
}

(** Always [{hits = 0; misses = 0}]: {!canonical} keeps no cache.  Kept
    for the benchmark's [encode.cache_hit_ratio] column, which reads
    these two fields. *)
val cache_stats : unit -> cache_stats
