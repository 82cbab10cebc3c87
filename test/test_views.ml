(* Tests for the view machinery: local views (Interned), Refinement
   (with Norris' bound), View_graph, Factor, Prime — the constructions of
   Sections 2 and 3. *)

open Anonet_graph
open Anonet_views

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ---------- Local views (Figure 1) ---------- *)

let test_view_figure1 () =
  (* Figure 1: the depth-3 local view of u0 in the labeled C6 is a root
     marked 1 with two children marked 2 and 3, each with two
     grandchildren. *)
  let c6 = Gen.c6_figure1 () in
  let v = Interned.of_graph c6 ~root:0 ~depth:3 in
  check "root mark" true (Label.equal (Interned.mark v) (Label.Int 1));
  check_int "two children" 2 (List.length (Interned.children v));
  let marks = List.map Interned.mark (Interned.children v) in
  check "children marks 2 and 3" true
    (List.exists (Label.equal (Label.Int 2)) marks
     && List.exists (Label.equal (Label.Int 3)) marks);
  check_int "depth" 3 (Interned.depth v);
  check_int "size 1+2+4" 7 (Interned.size v)

let test_view_depth1 () =
  let c6 = Gen.c6_figure1 () in
  let v = Interned.of_graph c6 ~root:2 ~depth:1 in
  check "leaf" true (Interned.children v = []);
  check "mark" true (Label.equal (Interned.mark v) (Label.Int 3))

let test_view_symmetric_nodes_equal () =
  (* In Figure 1's C6, nodes u0 and u3 have the same color and the same
     view at every depth. *)
  let c6 = Gen.c6_figure1 () in
  for d = 1 to 8 do
    check "u0 = u3" true
      (Interned.equal (Interned.of_graph c6 ~root:0 ~depth:d)
         (Interned.of_graph c6 ~root:3 ~depth:d));
    check "u0 <> u1" false
      (Interned.equal (Interned.of_graph c6 ~root:0 ~depth:d)
         (Interned.of_graph c6 ~root:1 ~depth:d))
  done

let test_view_truncate () =
  let c6 = Gen.c6_figure1 () in
  let v5 = Interned.of_graph c6 ~root:0 ~depth:5 in
  let v3 = Interned.of_graph c6 ~root:0 ~depth:3 in
  check "truncate 5 to 3" true (Interned.equal (Interned.truncate v5 ~depth:3) v3)

let test_view_equal_nodes_cross_graph () =
  (* A node of C6 and its image in C3 under the Figure-2 factor have equal
     views at all depths (Fact 1). *)
  let l = Lift.c6_over_c3 () in
  let c6 = l.Lift.graph and c3 = l.Lift.base in
  Graph.iter_nodes c6 ~f:(fun v ->
      check "view equals image view" true
        (Refinement.equal_nodes (c6, v) (c3, l.Lift.map.(v)) ~depth:12));
  (* and distinctly-colored nodes differ *)
  check "distinct colors differ" false (Refinement.equal_nodes (c6, 0) (c3, 1) ~depth:3)

(* [f d u v same] for depths 1..[max_depth] and every pair of nodes,
   [same] telling whether their explicit depth-d views are equal. *)
let iter_view_pairs g ~max_depth f =
  for d = 1 to max_depth do
    Graph.iter_nodes g ~f:(fun u ->
        Graph.iter_nodes g ~f:(fun v ->
            f d u v
              (Interned.equal (Interned.of_graph g ~root:u ~depth:d)
                 (Interned.of_graph g ~root:v ~depth:d))))
  done

let test_view_explicit_vs_refinement () =
  (* Cross-check: explicit tree equality matches refinement-based equality
     on a random graph at several depths. *)
  let g = Gen.random_connected ~seed:11 8 0.3 in
  iter_view_pairs g ~max_depth:6 (fun d u v same ->
      check "tree equality = refinement equality" same
        (Refinement.equal_nodes (g, u) (g, v) ~depth:d))

let test_view_to_string () =
  let c6 = Gen.c6_figure1 () in
  Alcotest.(check string) "Figure 1, one vertex per line"
    "1\n├── 2\n│   ├── 1\n│   └── 3\n└── 3\n    ├── 1\n    └── 2\n"
    (Interned.to_string (Interned.of_graph c6 ~root:0 ~depth:3))

(* ---------- Refinement ---------- *)

let test_refinement_c6_colored () =
  (* Figure 1's C6 collapses to 3 classes (one per color). *)
  let r = Refinement.run (Gen.c6_figure1 ()) in
  check_int "3 classes" 3 r.Refinement.num_classes;
  (* nodes 0 and 3 same class, 0 and 1 different *)
  check "0 ~ 3" true (r.Refinement.classes.(0) = r.Refinement.classes.(3));
  check "0 !~ 1" false (r.Refinement.classes.(0) = r.Refinement.classes.(1))

let test_refinement_unlabeled_cycle () =
  (* All nodes of an unlabeled cycle look alike. *)
  let r = Refinement.run (Gen.cycle 7) in
  check_int "1 class" 1 r.Refinement.num_classes;
  check_int "stable immediately" 1 r.Refinement.stable_view_depth

let test_refinement_path () =
  (* On a path, views distinguish nodes by distance to the ends; P5 has 3
     classes: {0,4}, {1,3}, {2}. *)
  let r = Refinement.run (Gen.path 5) in
  check_int "3 classes" 3 r.Refinement.num_classes;
  check "ends equal" true (r.Refinement.classes.(0) = r.Refinement.classes.(4));
  check "middle distinct" false (r.Refinement.classes.(0) = r.Refinement.classes.(2))

let test_refinement_classes_at_depth () =
  let g = Gen.path 5 in
  (* depth 1: partition by label+nothing = all same label... the initial
     partition is by label only; P5 unlabeled => 1 class *)
  let c1 = Refinement.classes_at_depth g 1 in
  check_int "depth 1 one class" 1 (1 + Array.fold_left max (-1) c1);
  (* depth 2 = label + neighbor multiset: separates by degree *)
  let c2 = Refinement.classes_at_depth g 2 in
  check "depth 2 separates ends" false (c2.(0) = c2.(2))

let test_refinement_matches_views () =
  (* Partition at depth d = equality of depth-d views (random graphs). *)
  let g = Gen.random_connected ~seed:3 7 0.4 in
  iter_view_pairs g ~max_depth:5 (fun d u v same ->
      let classes = Refinement.classes_at_depth g d in
      check "class eq = view eq" same (classes.(u) = classes.(v)))

(* ---------- View_graph ---------- *)

let test_view_graph_c6 () =
  (* Figure 2: the view graph of the colored C6 is the colored C3. *)
  let vg = View_graph.of_graph_exn (Gen.c6_figure1 ()) in
  check_int "3 nodes" 3 (Graph.n vg.View_graph.graph);
  check_int "3 edges" 3 (Graph.num_edges vg.View_graph.graph);
  check "factor map valid" true
    (Factor.is_factorizing ~product:(Gen.c6_figure1 ()) ~factor:vg.View_graph.graph
       ~map:vg.View_graph.map)

let test_view_graph_of_prime_is_identity () =
  (* A graph with all labels distinct is prime: its view graph is itself. *)
  let g = Gen.label_with_ints (Gen.petersen ()) in
  let vg = View_graph.of_graph_exn g in
  check_int "same size" (Graph.n g) (Graph.n vg.View_graph.graph);
  check "isomorphic to itself" true (Iso.equal g vg.View_graph.graph)

let test_view_graph_rejects_uncolored () =
  (* The unlabeled C4 collapses to one class with a loop: rejected. *)
  match View_graph.of_graph (Gen.cycle 4) with
  | Ok _ -> Alcotest.fail "expected Error for unlabeled C4"
  | Error _ -> ()

let test_view_graph_idempotent () =
  (* The view graph of a view graph is itself (it is prime). *)
  let vg = View_graph.of_graph_exn (Gen.c6_figure1 ()) in
  let vg2 = View_graph.of_graph_exn vg.View_graph.graph in
  check "idempotent" true (Iso.equal vg.View_graph.graph vg2.View_graph.graph)

let test_view_graph_of_lift () =
  (* Lemma 3: a lift of a 2-hop colored graph has the same view graph as
     the base (the unique prime factor). *)
  let base = Gen.label_with_ints (Gen.cycle 5) in
  let lift = Lift.random ~seed:5 base ~k:3 in
  let vg_base = View_graph.of_graph_exn base in
  let vg_lift = View_graph.of_graph_exn lift.Lift.graph in
  check "same prime factor" true
    (Iso.equal vg_base.View_graph.graph vg_lift.View_graph.graph)

(* ---------- Factor ---------- *)

let test_factor_figure2_maps () =
  (* Figure 2's explicit factorizing maps: C12 -> C6 (mod 6) and
     C6 -> C3 (mod 3) on consistently labeled cycles. *)
  let label_mod3 g = Graph.relabel g (fun v -> Label.Int ((v mod 3) + 1)) in
  let c12 = label_mod3 (Gen.cycle 12)
  and c6 = label_mod3 (Gen.cycle 6)
  and c3 = label_mod3 (Gen.cycle 3) in
  let f = Array.init 12 (fun v -> v mod 6) in
  let gmap = Array.init 6 (fun v -> v mod 3) in
  check "C6 factor of C12" true (Factor.is_factorizing ~product:c12 ~factor:c6 ~map:f);
  check "C3 factor of C6" true (Factor.is_factorizing ~product:c6 ~factor:c3 ~map:gmap);
  Alcotest.(check (option int)) "multiplicity 2" (Some 2)
    (Factor.multiplicity ~product:c12 ~factor:c6);
  (* composed map: C3 is a factor of C12 *)
  let composed = Array.init 12 (fun v -> gmap.(f.(v))) in
  check "composition" true (Factor.is_factorizing ~product:c12 ~factor:c3 ~map:composed)

let test_factor_rejections () =
  let c6 = Gen.cycle 6 and c3 = Gen.cycle 3 in
  (* wrong map: constant map is not a local isomorphism *)
  check "constant map rejected" false
    (Factor.is_factorizing ~product:c6 ~factor:c3 ~map:(Array.make 6 0));
  (* non-surjective map detected *)
  let c6' = Graph.relabel c6 (fun _ -> Label.Unit) in
  let p2 = Graph.unlabeled ~n:2 ~edges:[ 0, 1 ] in
  check "cycle onto edge not local iso" false
    (Factor.is_factorizing ~product:c6' ~factor:p2 ~map:(Array.init 6 (fun v -> v mod 2)));
  (* label mismatch *)
  let c3_labeled = Gen.label_with_ints c3 in
  check "labels must match" false
    (Factor.is_factorizing ~product:c6 ~factor:c3_labeled
       ~map:(Array.init 6 (fun v -> v mod 3)))

let test_factor_induced_ports () =
  let l = Lift.random ~seed:9 (Gen.label_with_ints (Gen.cycle 5)) ~k:2 in
  let perms =
    Factor.induced_port_permutations ~product:l.Lift.graph ~factor:l.Lift.base
      ~map:l.Lift.map
  in
  (* After permuting, port j of v leads to a node mapping to the factor
     neighbor at port j of f(v). *)
  let g' = Graph.permute_ports l.Lift.graph perms in
  Graph.iter_nodes g' ~f:(fun v ->
      Array.iteri
        (fun j u ->
          check_int "aligned ports"
            (Graph.neighbor l.Lift.base l.Lift.map.(v) j)
            l.Lift.map.(u))
        (Graph.neighbors g' v))

(* ---------- Prime ---------- *)

let test_prime_detection () =
  check "C3 colored is prime" true (Prime.is_prime (Gen.label_with_ints (Gen.cycle 3)));
  check "C6 figure1 is not prime" false (Prime.is_prime (Gen.c6_figure1 ()));
  check "uniquely labeled petersen prime" true
    (Prime.is_prime (Gen.label_with_ints (Gen.petersen ())))

let test_prime_requires_coloring () =
  Alcotest.check_raises "uncolored rejected"
    (Invalid_argument "Prime.prime_factor: graph is not 2-hop colored")
    (fun () -> ignore (Prime.prime_factor (Gen.cycle 6)))

let test_prime_aliases () =
  (* Corollary 1: in a prime 2-hop colored graph, depth-n views are
     pairwise distinct. *)
  check "aliases faithful" true
    (Prime.aliases_faithful (Gen.label_with_ints (Gen.petersen ())))

let test_refinement_equal_nodes_depth () =
  let g = Gen.c6_figure1 () in
  check "depth 1 compares labels" true (Refinement.equal_nodes (g, 0) (g, 3) ~depth:1);
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Refinement.equal_nodes: need depth >= 1")
    (fun () -> ignore (Refinement.equal_nodes (g, 0) (g, 3) ~depth:0))

(* ---------- Norris (Theorem 3) ---------- *)

let test_norris_bound_families () =
  let families =
    [ "c6-figure1", Gen.c6_figure1 ();
      "path7", Gen.path 7;
      "petersen", Gen.petersen ();
      "grid", Gen.grid 3 3;
      "star", Gen.star 5;
      "colored-c12", Graph.relabel (Gen.cycle 12) (fun v -> Label.Int ((v mod 3) + 1));
    ]
  in
  List.iter
    (fun (name, g) ->
      check (name ^ " norris bound") true (Refinement.norris_bound_holds g))
    families

let test_norris_exact_path () =
  (* On P5 the partition stabilizes at view depth 3 ({ends},{next},{mid}). *)
  check_int "P5 stable depth" 3 (Refinement.run (Gen.path 5)).Refinement.stable_view_depth

(* ---------- Fibrations (Section 4) ---------- *)

let test_directed_representation () =
  let g = Gen.c6_figure1 () in
  let h = Fibration.directed_representation g in
  check_int "two arcs per edge" (2 * Graph.num_edges g) (Digraph.num_arcs h);
  check "symmetric with swap involution" true
    (Digraph.is_symmetric h ~mate:Fibration.swap_mate);
  check "deterministic coloring" true (Digraph.is_deterministic h);
  (* arcs carry the endpoint colors *)
  check "arc color" true
    (Digraph.has_arc h 0 1 (Label.Pair (Label.Int 1, Label.Int 2)))

let test_directed_representation_needs_coloring () =
  Alcotest.check_raises "uncolored rejected"
    (Invalid_argument "Fibration.directed_representation: graph is not 2-hop colored")
    (fun () -> ignore (Fibration.directed_representation (Gen.cycle 6)))

let test_fibration_correspondence_positive () =
  (* Figure 2 maps: factorizing map <=> fibration of the representations. *)
  let label_mod3 g = Graph.relabel g (fun v -> Label.Int ((v mod 3) + 1)) in
  let c12 = label_mod3 (Gen.cycle 12) and c6 = label_mod3 (Gen.cycle 6) in
  let map = Array.init 12 (fun v -> v mod 6) in
  let factorizing, fibration =
    Fibration.check_correspondence ~product:c12 ~factor:c6 ~map
  in
  check "factorizing" true factorizing;
  check "fibration" true fibration

let test_fibration_correspondence_negative () =
  let label_mod3 g = Graph.relabel g (fun v -> Label.Int ((v mod 3) + 1)) in
  let c12 = label_mod3 (Gen.cycle 12) and c6 = label_mod3 (Gen.cycle 6) in
  (* a wrong map: constant-block map is neither *)
  let bad = Array.init 12 (fun v -> v mod 2) in
  let factorizing, fibration =
    Fibration.check_correspondence ~product:c12 ~factor:c6 ~map:bad
  in
  check "not factorizing" false factorizing;
  check "not fibration" false fibration

let test_fibration_correspondence_random_lifts () =
  List.iter
    (fun seed ->
      let base = Gen.label_with_ints (Gen.random_hamiltonian ~seed 5 0.4) in
      let l = Lift.random ~seed:(seed * 3 + 1) base ~k:2 in
      let factorizing, fibration =
        Fibration.check_correspondence ~product:l.Lift.graph ~factor:base
          ~map:l.Lift.map
      in
      check "factorizing" true factorizing;
      check "agree" factorizing fibration)
    [ 1; 2; 3; 4; 5 ]

(* ---------- Universal cover (Section 1.3, Norris's setting) ---------- *)

let test_universal_cover_shapes () =
  (* On the path a-b-c, the depth-3 UC truncation at an end prunes the
     backtracking branch that the local view keeps. *)
  let g = Gen.label_with_ints (Gen.path 3) in
  let uc = Universal_cover.truncation g ~root:0 ~depth:3 in
  let lv = Interned.of_graph g ~root:0 ~depth:3 in
  check_int "UC: root has one child" 1 (List.length (Interned.children uc));
  let b = List.hd (Interned.children uc) in
  check_int "UC: b keeps only the non-parent child" 1
    (List.length (Interned.children b));
  let b' = List.hd (Interned.children lv) in
  check_int "view: b keeps both neighbors" 2 (List.length (Interned.children b'))

let test_universal_cover_partition_agrees () =
  (* At depth >= n, UC truncations and local views induce the same
     partition (both stable = the L_inf partition). *)
  List.iter
    (fun g ->
      check "UC/view partitions agree at depth n" true
        (Universal_cover.agrees_with_views g ~depth:(Graph.n g)))
    [ Gen.path 5; Gen.c6_figure1 (); Gen.petersen ();
      Gen.random_connected ~seed:8 8 0.3; Gen.star 4 ]

let test_universal_cover_norris_bound () =
  (* Norris: depth n-1 suffices for UC truncations (n >= 2). *)
  List.iter
    (fun g ->
      let d = Universal_cover.stable_depth g in
      check "UC stable depth <= max(1, n-1)" true (d <= max 1 (Graph.n g - 1)))
    [ Gen.path 6; Gen.cycle 7; Gen.c6_figure1 (); Gen.grid 3 3;
      Gen.random_connected ~seed:21 9 0.3 ]

(* ---------- qcheck properties ---------- *)

let arb_seeded =
  QCheck.make
    ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" s n p)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 12) (float_bound_inclusive 0.5))

let prop_norris =
  QCheck.Test.make ~name:"Norris bound on random graphs" ~count:100 arb_seeded
    (fun (seed, n, p) ->
      Refinement.norris_bound_holds (Gen.random_connected ~seed n p))

let prop_view_graph_is_factor =
  QCheck.Test.make ~name:"view graph is a factor (2-hop colored inputs)" ~count:60
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let vg = View_graph.of_graph_exn g in
      Factor.is_factorizing ~product:g ~factor:vg.View_graph.graph ~map:vg.View_graph.map)

let prop_lift_preserves_view_graph =
  QCheck.Test.make ~name:"lift has same prime factor as base (Lemma 3)" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound 10_000) (int_range 2 3)))
    (fun (seed, k) ->
      let base = Gen.label_with_ints (Gen.random_hamiltonian ~seed:(seed + 77) 6 0.4) in
      let lift = Lift.random ~seed base ~k in
      let vg_base = View_graph.of_graph_exn base in
      let vg_lift = View_graph.of_graph_exn lift.Lift.graph in
      Iso.equal vg_base.View_graph.graph vg_lift.View_graph.graph)

let prop_multiplicity_divides =
  QCheck.Test.make ~name:"|V| = m |V*| for view graphs" ~count:60 arb_seeded
    (fun (seed, n, p) ->
      let n = max 3 n in
      let g = Gen.label_with_ints (Gen.random_hamiltonian ~seed n p) in
      let lift = Lift.random ~seed:(seed + 1) g ~k:2 in
      let vg = View_graph.of_graph_exn lift.Lift.graph in
      Graph.n lift.Lift.graph mod Graph.n vg.View_graph.graph = 0)

let prop_fibration_correspondence =
  QCheck.Test.make ~name:"fibration = factorizing map on random lifts (Section 4)"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound 10_000) (int_range 2 3)))
    (fun (seed, k) ->
      let base = Gen.label_with_ints (Gen.random_hamiltonian ~seed:(seed + 31) 5 0.3) in
      let l = Lift.random ~seed base ~k in
      let factorizing, fibration =
        Fibration.check_correspondence ~product:l.Lift.graph ~factor:base
          ~map:l.Lift.map
      in
      factorizing && fibration)

let prop_universal_cover_agrees =
  QCheck.Test.make ~name:"UC truncations agree with views at depth n" ~count:40
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.random_connected ~seed n p in
      Universal_cover.agrees_with_views g ~depth:(max 1 (Graph.n g)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_norris; prop_view_graph_is_factor; prop_lift_preserves_view_graph;
      prop_multiplicity_divides; prop_fibration_correspondence;
      prop_universal_cover_agrees ]

let () =
  Alcotest.run "anonet_views"
    [
      ( "view",
        [
          Alcotest.test_case "figure 1" `Quick test_view_figure1;
          Alcotest.test_case "depth 1" `Quick test_view_depth1;
          Alcotest.test_case "symmetric nodes" `Quick test_view_symmetric_nodes_equal;
          Alcotest.test_case "truncate" `Quick test_view_truncate;
          Alcotest.test_case "cross-graph equality (Fact 1)" `Quick
            test_view_equal_nodes_cross_graph;
          Alcotest.test_case "tree vs refinement equality" `Quick
            test_view_explicit_vs_refinement;
          Alcotest.test_case "rendering" `Quick test_view_to_string;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "colored C6" `Quick test_refinement_c6_colored;
          Alcotest.test_case "unlabeled cycle" `Quick test_refinement_unlabeled_cycle;
          Alcotest.test_case "path" `Quick test_refinement_path;
          Alcotest.test_case "classes at depth" `Quick test_refinement_classes_at_depth;
          Alcotest.test_case "matches explicit views" `Quick test_refinement_matches_views;
          Alcotest.test_case "equal_nodes depth bounds" `Quick
            test_refinement_equal_nodes_depth;
        ] );
      ( "view_graph",
        [
          Alcotest.test_case "C6 -> C3 (Figure 2)" `Quick test_view_graph_c6;
          Alcotest.test_case "prime is identity" `Quick test_view_graph_of_prime_is_identity;
          Alcotest.test_case "rejects uncolored" `Quick test_view_graph_rejects_uncolored;
          Alcotest.test_case "idempotent" `Quick test_view_graph_idempotent;
          Alcotest.test_case "lift invariance" `Quick test_view_graph_of_lift;
        ] );
      ( "factor",
        [
          Alcotest.test_case "figure 2 maps" `Quick test_factor_figure2_maps;
          Alcotest.test_case "rejections" `Quick test_factor_rejections;
          Alcotest.test_case "induced port permutations" `Quick test_factor_induced_ports;
        ] );
      ( "prime",
        [
          Alcotest.test_case "detection" `Quick test_prime_detection;
          Alcotest.test_case "requires coloring" `Quick test_prime_requires_coloring;
          Alcotest.test_case "aliases (Corollary 1)" `Quick test_prime_aliases;
        ] );
      ( "norris",
        [
          Alcotest.test_case "bound on families" `Quick test_norris_bound_families;
          Alcotest.test_case "exact on path" `Quick test_norris_exact_path;
        ] );
      ( "fibration",
        [
          Alcotest.test_case "directed representation" `Quick test_directed_representation;
          Alcotest.test_case "needs 2-hop coloring" `Quick
            test_directed_representation_needs_coloring;
          Alcotest.test_case "correspondence (positive)" `Quick
            test_fibration_correspondence_positive;
          Alcotest.test_case "correspondence (negative)" `Quick
            test_fibration_correspondence_negative;
          Alcotest.test_case "correspondence (random lifts)" `Quick
            test_fibration_correspondence_random_lifts;
        ] );
      ( "universal-cover",
        [
          Alcotest.test_case "prunes parents" `Quick test_universal_cover_shapes;
          Alcotest.test_case "agrees with views when stable" `Quick
            test_universal_cover_partition_agrees;
          Alcotest.test_case "Norris depth n-1" `Quick test_universal_cover_norris_bound;
        ] );
      "properties", qcheck_tests;
    ]
