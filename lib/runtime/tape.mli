(** Sources of the per-round random bit.

    The model gives every node access to one fresh random bit per round.
    A tape abstracts where those bits come from:

    - {!random} draws them pseudo-randomly from a seed (reproducible);
    - {!fixed} replays a prescribed bitstring per node — exactly the
      "simulation induced by the assignment [b]" of Section 2.2, where the
      simulation lasts as many rounds as the shortest prescribed string;
    - {!zero} feeds constant zeros (for deterministic algorithms, which
      ignore their bits anyway). *)

type t

(** [random ~seed] draws bit [(node, round)] deterministically from
    [seed]; equal seeds give equal tapes. *)
val random : seed:int -> t

(** [fixed bits] replays [bits.(node)]; the tape is exhausted for [node]
    after [length bits.(node)] rounds. *)
val fixed : Anonet_graph.Bits.t array -> t

(** The all-zero, never-exhausted tape. *)
val zero : t

(** [bit t ~node ~round] is the bit for the given 1-based round, or [None]
    if the tape is exhausted there. *)
val bit : t -> node:int -> round:int -> bool option

(** [fill t ~round bits] writes the bit of every node [v < length bits]
    for the given 1-based round into [bits]; [false] (with [bits] partly
    written) if the tape is exhausted there for some node. *)
val fill : t -> round:int -> Anonet_graph.Bitvec.t -> bool

(** [horizon t ~nodes] is the number of whole rounds the tape can feed for
    all of nodes [0 .. nodes-1]: the minimum prescribed length for fixed
    tapes, [max_int] otherwise. *)
val horizon : t -> nodes:int -> int
