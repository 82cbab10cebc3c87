(** Las-Vegas randomized (1-hop) graph coloring — the classic symmetry
    breaking problem of the paper's introduction, in GRAN.

    Same growing-bitstring scheme as {!Rand_two_hop} but conflicts are only
    with direct neighbors, so a phase needs just two rounds (announce,
    decide).  Output: [Label.Bits color]. *)

val algorithm : Anonet_runtime.Algorithm.t
