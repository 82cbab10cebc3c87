(** Empirical interface to Norris' theorem (Theorem 3 in the paper):
    in an [n]-node labeled graph, the depth-[n] local view [L_n(v)] fully
    determines [L_∞(v)]. *)

(** [stable_view_depth g] is the smallest [d] such that the partition of
    nodes by depth-[d] views equals the partition by depth-infinity views. *)
val stable_view_depth : Anonet_graph.Graph.t -> int

(** [bound_holds g] checks [stable_view_depth g <= n] — the claim of
    Theorem 3 instantiated on [g]. *)
val bound_holds : Anonet_graph.Graph.t -> bool
