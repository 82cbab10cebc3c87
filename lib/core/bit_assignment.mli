(** Bit assignments [b : V -> {0,1}*] and their canonical order
    (Section 2.2).

    A [t]-round simulation of the randomized algorithm [A_R] is induced by
    assigning every node a bitstring to replace its random bits.  The
    derandomization needs a {e predetermined total order} on assignments so
    that all nodes deterministically agree on "the smallest successful"
    one.  The paper fixes: shorter (uniform) length first, then
    lexicographic on the tuple [(b(u_1), ..., b(u_k))] in the canonical
    node order.  Any predetermined order supports the same lemmas; the
    library's search ({!Min_search}) uses length first, then round-major
    lexicographic (compare the round-1 bits of all nodes, then round 2,
    ...), which admits an efficient prefix-sharing search.  Both orders,
    and the paper's exhaustive enumeration, live in the test suite as the
    oracle the search is checked against. *)

type t = Anonet_graph.Bits.t array
(** indexed by the canonical node order of the graph being simulated *)

(** All-empty assignment for [n] nodes. *)
val empty : int -> t

(** [max_length b] is the longest string in [b]. *)
val max_length : t -> int

(** [lift ~map b] pulls an assignment on a factor back to the product:
    product node [v] receives [b.(map.(v))] — how a simulation on the view
    graph induces an execution on the original graph (Section 2.3.2). *)
val lift : map:int array -> t -> t
