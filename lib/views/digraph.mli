(** Edge-colored directed graphs — the setting of Boldi-Vigna fibrations
    (Section 4 of the paper).

    A directed graph here is finite, with colored arcs; parallel arcs with
    distinct colors are allowed (they arise naturally from the directed
    representation of undirected graphs), but duplicate (source, target,
    color) triples are not. *)

type t

(** [create ~n ~arcs] builds a digraph on nodes [0 .. n-1]; each arc is
    [(source, target, color)].
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    duplicate arcs. *)
val create : n:int -> arcs:(int * int * Anonet_graph.Label.t) list -> t

val n : t -> int

val num_arcs : t -> int

(** [out_arcs g v] is the list of [(target, color)] pairs leaving [v]. *)
val out_arcs : t -> int -> (int * Anonet_graph.Label.t) list

(** [has_arc g u v color] tests arc membership. *)
val has_arc : t -> int -> int -> Anonet_graph.Label.t -> bool

(** [is_symmetric g ~mate] checks that for every arc [(u, v, c)] there is
    an arc [(v, u, mate c)] — the paper's symmetry with color involution
    ("c' respects the edge symmetries"). *)
val is_symmetric : t -> mate:(Anonet_graph.Label.t -> Anonet_graph.Label.t) -> bool

(** [is_deterministic g] checks the paper's deterministic-coloring
    condition: all out-arcs of every node carry pairwise distinct
    colors. *)
val is_deterministic : t -> bool
