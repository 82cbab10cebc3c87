(** Candidate construction for Update-Graph (Figure 3, Section 3.1).

    A {e candidate for phase p} at a node with gathered view
    [L = L_p(v, I^p)] is a labeled graph [Ĝ] with (C1) at most [p] nodes,
    (C2) some node [v̂] with [L_p(v̂, Ĝ) = L], and (C3) whose
    [(V̂, Ê, î, ĉ)] part is an instance of [Π^c].  The paper lets [Ĝ]
    range over {e all} labeled graphs and keeps the finite view graphs of
    the candidates; that set is astronomically large but is only used to
    prove that the true finite view graph [I*^p] is eventually selected
    (Lemmas 6-7).

    This module constructs candidates {e effectively}, as quotients of the
    gathered view: for each quotient depth [q], positions of [L] are merged
    when their depth-[q] truncations agree, giving a concrete labeled graph
    whose conditions C1-C3 are then checked {e literally} (C2 by computing
    the candidate's own depth-[p] view and comparing).  Every accepted
    quotient is a genuine candidate in the paper's sense; conversely the
    set contains [I*^p] whenever [p] is large enough (once [p] covers the
    whole graph and views have stabilized), so Lemma 7's minimality
    argument pins the selection to [I*^p] for [p >= 2n] exactly as in the
    paper.  Selections at earlier phases may differ from the literal
    algorithm's; they only influence the transient bitstrings [b^p], whose
    correctness (Lemma 9) relies solely on C2 and the prefix property of
    Update-Bits.  See DESIGN.md, "Substitutions". *)

type t = {
  graph : Anonet_graph.Graph.t;
      (** the finite view graph [Ĝ✱] of an accepted candidate, nodes in
          canonical order, labels of the composite form [<<i, c>, b>] *)
  me : int;  (** the node [v̂*] corresponding to the gathering node *)
  quotient_depth : int;  (** the [q] whose truncation classes produced it *)
  encoding : string;  (** canonical encoding [s(Ĝ✱)] used for the order *)
}

(** [from_knowledge k ~phase ~is_instance] constructs all accepted
    candidates from the gathered view [k = L_phase(v, I^p)], deduplicated
    and sorted by the paper's [(size, encoding)] order — the head of the
    list is Update-Graph's selection.  [is_instance] decides membership of
    [Π^c] on the [b]-stripped graph (condition C3). *)
val from_knowledge :
  Anonet_views.Interned.t ->
  phase:int ->
  is_instance:(Anonet_graph.Graph.t -> bool) ->
  t list

(** [literal_candidates k ~phase ~alphabet ~is_instance] enumerates the
    paper's candidate set {e by the letter}: every connected labeled graph
    with at most [min phase 4] nodes over the given label alphabet is
    built and subjected to the same C1-C3 checks.  Astronomically wasteful
    by design — usable only for tiny phases and alphabets — this exists to
    cross-check {!from_knowledge} (the tests verify that both agree on the
    selection whenever the paper's minimality argument applies, and that
    every quotient candidate also appears in the literal set). *)
val literal_candidates :
  Anonet_views.Interned.t ->
  phase:int ->
  alphabet:Anonet_graph.Label.t list ->
  is_instance:(Anonet_graph.Graph.t -> bool) ->
  t list

(** [assignment_of g] extracts the [b] components as a bit assignment.
    @raise Invalid_argument if labels are not of the composite form. *)
val assignment_of : Anonet_graph.Graph.t -> Bit_assignment.t
