(** The problem catalog: the classic anonymous-network problems the paper
    discusses, each as a {!Problem.t}.

    Conventions for output labels:
    - colorings (1-hop and 2-hop): any label; validity only compares
      neighbors' outputs;
    - MIS: [Bool true] for members, [Bool false] otherwise;
    - maximal matching: [Int p] ("matched through my port [p]") or [Unit]
      ("unmatched");
    - decision problems: [Bool] votes — all [true] on yes-instances, at
      least one [false] otherwise. *)

(** Graph (1-hop) coloring: every labeled graph is an instance; the output
    must differ across every edge. *)
val coloring : Problem.t

(** 2-hop coloring: outputs must differ between nodes at distance <= 2. *)
val two_hop_coloring : Problem.t

(** [k_hop_coloring k] generalizes both: outputs must differ between
    distinct nodes at distance at most [k].  For [k <= 2] the problem is
    in GRAN; for [k > 2] it is {e not} solvable by randomized anonymous
    algorithms at all (Section 1.2): lifting a valid execution from a
    factor (e.g. C3) to a product (e.g. C6) repeats outputs at distance
    [k], violating validity — the test suite carries the executable
    version of that argument.
    @raise Invalid_argument if [k < 1]. *)
val k_hop_coloring : int -> Problem.t

(** Maximal independent set. *)
val mis : Problem.t

(** Maximal matching, encoded through ports. *)
val maximal_matching : Problem.t

(** [decision ~name yes] is the distributed decision problem [Δ_Y] for the
    yes-instance set [yes] (Section 1.1, "Genuine Solvability"): every
    labeled graph is an instance; on yes-instances all nodes must output
    [Bool true], otherwise at least one node must output [Bool false]. *)
val decision : name:string -> (Anonet_graph.Graph.t -> bool) -> Problem.t
