(** Bit assignments [b : V -> {0,1}*] and their canonical order
    (Section 2.2).

    A [t]-round simulation of the randomized algorithm [A_R] is induced by
    assigning every node a bitstring to replace its random bits.  The
    derandomization needs a {e predetermined total order} on assignments so
    that all nodes deterministically agree on "the smallest successful"
    one.  The paper fixes: shorter (uniform) length first, then
    lexicographic on the tuple [(b(u_1), ..., b(u_k))] in the canonical
    node order.  Any predetermined order supports the same lemmas; the
    library uses {!compare_round_major} (compare the round-1 bits of all
    nodes, then round 2, ...), which admits an efficient prefix-sharing
    search.  The paper's node-major order and its exhaustive enumeration
    live in the test suite, as the oracle the search is checked against. *)

type t = Anonet_graph.Bits.t array
(** indexed by the canonical node order of the graph being simulated *)

(** [uniform empty_of n] — [make n len]: [n] all-zero strings of length
    [len]. *)
val make : int -> len:int -> t

(** All-empty assignment for [n] nodes. *)
val empty : int -> t

(** [min_length b] is the number of whole rounds [b] can feed — the length
    of the induced simulation. *)
val min_length : t -> int

(** [max_length b] is the longest string in [b]. *)
val max_length : t -> int

(** [is_uniform b] holds when all strings have equal length (the paper's
    assignments [b : V -> {0,1}^t]). *)
val is_uniform : t -> bool

(** [is_extension ~base b] holds when [b.(i)] extends [base.(i)] for all
    [i] — the "p-extension" relation of Update-Bits (with [len]
    uniformity checked separately). *)
val is_extension : base:t -> t -> bool

(** The library's order: length first, then round-major lexicographic
    (round-1 bits of [u_1..u_k], then round-2 bits, ...). *)
val compare_round_major : t -> t -> int

(** [lift ~map b] pulls an assignment on a factor back to the product:
    product node [v] receives [b.(map.(v))] — how a simulation on the view
    graph induces an execution on the original graph (Section 2.3.2). *)
val lift : map:int array -> t -> t

val pp : Format.formatter -> t -> unit
