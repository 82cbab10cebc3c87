(** Las-Vegas randomized maximal independent set (cf. Luby [34] and
    Alon-Babai-Itai [3], adapted to the anonymous one-bit-per-round model).

    Pipelined single-round phases: every undecided node broadcasts its
    status together with a fresh coin.  A node joins the MIS when its
    previous coin was heads and no undecided neighbor's coin was; a node
    leaves (outputs [false]) as soon as a neighbor has joined.  Adjacent
    nodes can never join simultaneously, and every undecided node joins
    with positive probability each phase, so the algorithm terminates with
    probability 1.

    Output: [Label.Bool in_mis]. *)

val algorithm : Anonet_runtime.Algorithm.t
