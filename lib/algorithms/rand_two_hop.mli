(** Las-Vegas randomized 2-hop coloring — the generic preprocessing stage of
    the paper's decoupling result, and itself a member of GRAN.

    Every node grows a candidate bitstring, one random bit per phase, until
    the candidate differs from every candidate within two hops.  A phase
    takes three rounds: nodes {e announce} their candidates, {e relay} the
    multiset of candidates they heard, and {e decide} — a node in conflict
    appends this round's random bit, a conflict-free node finalizes its
    candidate as its color (irrevocably, as the model demands).

    Correctness invariants (checked by the test suite):
    - all still-active nodes have candidates of equal length (one bit per
      elapsed phase), so conflicts are only ever between active nodes and
      resolve with probability 1/2 per phase per pair;
    - a finalized candidate is strictly shorter than any candidate still
      growing, and bitstrings of different lengths are distinct labels, so
      finalized colors can never be collided with.

    The output at each node is [Label.Bits color]. *)

(** The algorithm as a first-class value. *)
val algorithm : Anonet_runtime.Algorithm.t
