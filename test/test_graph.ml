(* Tests for the graph substrate: Bits, Label, Graph, Gen, Lift, Iso,
   Encode, Props. *)

open Anonet_graph

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ---------- Bits ---------- *)

let test_bits_roundtrip () =
  let b = Bits.of_string "10110" in
  Alcotest.(check string) "to_string" "10110" (Bits.to_string b);
  check_int "length" 5 (Bits.length b);
  check "get 0" true (Bits.get b 0);
  check "get 1" false (Bits.get b 1);
  Alcotest.(check (list bool))
    "to_list" [ true; false; true; true; false ] (Bits.to_list b);
  Alcotest.(check string)
    "of_list" "10110"
    (Bits.to_string (Bits.of_list [ true; false; true; true; false ]))

let test_bits_order () =
  let b s = Bits.of_string s in
  check "shorter first" true (Bits.compare (b "11") (b "000") < 0);
  check "lex within length" true (Bits.compare (b "01") (b "10") < 0);
  check "equal" true (Bits.compare (b "0101") (b "0101") = 0);
  check "lex order prefix" true (Bits.compare_lex (b "01") (b "011") < 0);
  check "lex order" true (Bits.compare_lex (b "011") (b "10") < 0)

let test_bits_prefix () =
  let b s = Bits.of_string s in
  check "empty prefix" true (Bits.is_prefix ~prefix:Bits.empty (b "01"));
  check "proper prefix" true (Bits.is_prefix ~prefix:(b "01") (b "0110"));
  check "not prefix" false (Bits.is_prefix ~prefix:(b "11") (b "0110"));
  check "longer not prefix" false (Bits.is_prefix ~prefix:(b "0110") (b "01"))

let test_bits_int () =
  check_int "to_int" 5 (Bits.to_int (Bits.of_string "101"));
  Alcotest.(check string) "of_int" "0101" (Bits.to_string (Bits.of_int ~width:4 5));
  let all = List.of_seq (Bits.enumerate 3) in
  check_int "enumerate count" 8 (List.length all);
  Alcotest.(check string) "enumerate first" "000" (Bits.to_string (List.hd all));
  Alcotest.(check string)
    "enumerate last" "111"
    (Bits.to_string (List.nth all 7));
  (* enumerate is sorted in lexicographic order *)
  let sorted = List.sort Bits.compare_lex all in
  check "enumerate sorted" true (List.equal Bits.equal all sorted)

let test_bits_concat_take () =
  let b s = Bits.of_string s in
  Alcotest.(check string) "concat" "0110" (Bits.to_string (Bits.concat (b "01") (b "10")));
  Alcotest.(check string) "take" "01" (Bits.to_string (Bits.take (b "0110") 2));
  Alcotest.(check string) "zero" "000" (Bits.to_string (Bits.zero 3))

(* ---------- Label ---------- *)

let test_label_order_and_encode () =
  let open Label in
  let labels =
    [ Unit; Bool false; Bool true; Int (-1); Int 7; Str "a"; Str "b";
      Bits (Anonet_graph.Bits.of_string "01"); Pair (Int 1, Str "x");
      List [ Int 1; Int 2 ] ]
  in
  (* compare is a total order: antisymmetric and transitive on this sample *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = compare a b and c2 = compare b a in
          check "antisymmetry" true (Stdlib.compare (c1 > 0) (c2 < 0) = 0 || c1 = 0))
        labels)
    labels;
  (* encode is injective on this sample *)
  let encodings = List.map encode labels in
  check_int "encodings distinct" (List.length labels)
    (List.length (List.sort_uniq String.compare encodings));
  (* encode respects equality *)
  check "equal encode" true
    (String.equal (encode (Pair (Int 1, Str "x"))) (encode (Pair (Int 1, Str "x"))))

let test_label_projections () =
  let open Label in
  let p = Pair (Int 1, Str "s") in
  check "fst" true (equal (fst p) (Int 1));
  check "snd" true (equal (snd p) (Str "s"));
  check_int "to_int" 3 (to_int (Int 3));
  check "to_bool" true (to_bool (Bool true));
  Alcotest.check_raises "fst of non-pair"
    (Invalid_argument "Label.fst: not a pair: 3") (fun () -> ignore (fst (Int 3)))

(* ---------- Graph ---------- *)

let test_graph_basics () =
  let g = Gen.cycle 5 in
  check_int "n" 5 (Graph.n g);
  check_int "edges" 5 (Graph.num_edges g);
  check_int "degree" 2 (Graph.degree g 0);
  check "has_edge" true (Graph.has_edge g 0 1);
  check "has_edge wrap" true (Graph.has_edge g 0 4);
  check "no self edge" false (Graph.has_edge g 0 0);
  check "no chord" false (Graph.has_edge g 0 2)

let test_graph_ports () =
  let g = Gen.cycle 5 in
  (* Ports are sorted by neighbor index. *)
  check_int "port 0 of node 0" 1 (Graph.neighbor g 0 0);
  check_int "port 1 of node 0" 4 (Graph.neighbor g 0 1);
  check_int "port_to" 1 (Graph.port_to g 0 4);
  (* port/reverse-port consistency *)
  Graph.iter_nodes g ~f:(fun v ->
      Array.iteri
        (fun p u ->
          let q = Graph.port_to g u v in
          check_int "reverse port round-trip" v (Graph.neighbor g u q);
          check_int "forward port" u (Graph.neighbor g v p))
        (Graph.neighbors g v))

let test_graph_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "self loop rejected" true
    (raises (fun () -> Graph.unlabeled ~n:2 ~edges:[ 0, 0 ]));
  check "duplicate rejected" true
    (raises (fun () -> Graph.unlabeled ~n:2 ~edges:[ 0, 1; 1, 0 ]));
  check "out of range rejected" true
    (raises (fun () -> Graph.unlabeled ~n:2 ~edges:[ 0, 5 ]));
  check "bad label count rejected" true
    (raises (fun () -> Graph.create ~n:2 ~edges:[] ~labels:[| Label.Unit |]))

let test_graph_relabel () =
  let g = Gen.cycle 3 in
  let g' = Graph.relabel g (fun v -> Label.Int v) in
  check "label" true (Label.equal (Graph.label g' 2) (Label.Int 2));
  let z = Graph.zip_labels g' [| Label.Str "a"; Label.Str "b"; Label.Str "c" |] in
  check "zip" true
    (Label.equal (Graph.label z 1) (Label.Pair (Label.Int 1, Label.Str "b")))

let test_permute_ports () =
  let g = Gen.cycle 4 in
  let perms = Array.init 4 (fun _ -> [| 1; 0 |]) in
  let g' = Graph.permute_ports g perms in
  check_int "swapped port" (Graph.neighbor g 0 1) (Graph.neighbor g' 0 0);
  check_int "swapped port other" (Graph.neighbor g 0 0) (Graph.neighbor g' 0 1)

(* ---------- Gen ---------- *)

let connected_simple name g =
  check (name ^ " connected") true (Props.is_connected g)

let test_generators () =
  connected_simple "cycle" (Gen.cycle 7);
  connected_simple "path" (Gen.path 6);
  connected_simple "complete" (Gen.complete 5);
  connected_simple "star" (Gen.star 4);
  connected_simple "wheel" (Gen.wheel 5);
  connected_simple "bipartite" (Gen.complete_bipartite 2 3);
  connected_simple "grid" (Gen.grid 3 4);
  connected_simple "torus" (Gen.torus 3 3);
  connected_simple "hypercube" (Gen.hypercube 3);
  connected_simple "petersen" (Gen.petersen ());
  connected_simple "binary tree" (Gen.binary_tree 4);
  check_int "petersen regular" 3 (Graph.max_degree (Gen.petersen ()));
  check_int "grid size" 12 (Graph.n (Gen.grid 3 4));
  check_int "hypercube edges" 12 (Graph.num_edges (Gen.hypercube 3))

let test_new_families () =
  let circ = Gen.circulant 8 [ 1; 3 ] in
  check "circulant connected" true (Props.is_connected circ);
  check_int "circulant 4-regular" 4 (Graph.max_degree circ);
  (* circulants are vertex-transitive: a single view class when unlabeled *)
  check_int "circulant one view class" 1
    (Anonet_views.Refinement.run circ).Anonet_views.Refinement.num_classes;
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "disconnected circulant rejected" true
    (raises (fun () -> Gen.circulant 8 [ 2 ]));
  let lolli = Gen.lollipop 4 3 in
  check "lollipop connected" true (Props.is_connected lolli);
  check_int "lollipop size" 7 (Graph.n lolli);
  (* classes: the three non-attachment clique nodes are mutually symmetric;
     everything else is distinguished — 5 classes for lollipop 4 3 *)
  check_int "lollipop view classes" 5
    (Anonet_views.Refinement.run lolli).Anonet_views.Refinement.num_classes;
  let cat = Gen.caterpillar ~seed:3 9 in
  check "caterpillar connected" true (Props.is_connected cat);
  check_int "caterpillar is a tree" 8 (Graph.num_edges cat);
  let bar = Gen.barbell 4 in
  check "barbell connected" true (Props.is_connected bar);
  check_int "barbell size" 8 (Graph.n bar);
  (* mirror symmetry: the two bridge endpoints share a view class *)
  let r = Anonet_views.Refinement.run bar in
  check "bridge endpoints symmetric" true
    (r.Anonet_views.Refinement.classes.(3) = r.Anonet_views.Refinement.classes.(4))

let test_random_generators () =
  for seed = 0 to 4 do
    let t = Gen.random_tree ~seed 12 in
    check "tree connected" true (Props.is_connected t);
    check_int "tree edges" 11 (Graph.num_edges t);
    let r = Gen.random_connected ~seed 15 0.15 in
    check "gnp connected" true (Props.is_connected r);
    let reg = Gen.random_regular ~seed 10 3 in
    check "regular connected" true (Props.is_connected reg);
    Graph.iter_nodes reg ~f:(fun v -> check_int "regular degree" 3 (Graph.degree reg v))
  done

let test_determinism () =
  let g1 = Gen.random_connected ~seed:42 10 0.3 in
  let g2 = Gen.random_connected ~seed:42 10 0.3 in
  Alcotest.(check (list (pair int int))) "same edges" (Graph.edges g1) (Graph.edges g2)

(* ---------- Lift ---------- *)

let test_lift_figure2 () =
  (* Figure 2: C12 is a product of C6, which is a product of C3. *)
  let l12 = Lift.c12_over_c6 () in
  check_int "C12 size" 12 (Graph.n l12.Lift.graph);
  check "C12 connected" true (Props.is_connected l12.Lift.graph);
  check_int "C12 is a cycle" 2 (Graph.max_degree l12.Lift.graph);
  let l6 = Lift.c6_over_c3 () in
  check_int "C6 size" 6 (Graph.n l6.Lift.graph);
  check "C6 connected" true (Props.is_connected l6.Lift.graph);
  check_int "C6 is a cycle" 2 (Graph.max_degree l6.Lift.graph)

let test_lift_is_product () =
  let base = Gen.petersen () in
  let lift = Lift.random ~seed:7 base ~k:3 in
  check "factorizing map" true
    (Anonet_views.Factor.is_factorizing ~product:lift.Lift.graph ~factor:base
       ~map:lift.Lift.map)

let test_identity_lift_disconnected () =
  let l = Lift.identity (Gen.cycle 4) ~k:2 in
  check "disjoint copies" false (Props.is_connected l.Lift.graph)

(* ---------- Iso ---------- *)

let test_iso_positive () =
  let g = Gen.petersen () in
  (* relabel nodes by a permutation *)
  let perm = [| 3; 1; 4; 0; 5; 9; 2; 6; 8; 7 |] in
  let edges = List.map (fun (u, v) -> perm.(u), perm.(v)) (Graph.edges g) in
  let h = Graph.unlabeled ~n:10 ~edges in
  (match Iso.find g h with
   | None -> Alcotest.fail "petersen should be isomorphic to its permutation"
   | Some f -> check "verified" true (Iso.is_isomorphism g h f));
  check "equal" true (Iso.equal g h)

let test_iso_negative () =
  check "cycle vs path" false (Iso.equal (Gen.cycle 6) (Gen.path 6));
  check "different labels" false
    (Iso.equal (Gen.c6_figure1 ()) (Gen.cycle 6));
  (* same degree sequence, not isomorphic: C6 vs two triangles is out of
     scope (disconnected); use C6 vs K_{3,3}? different edge counts. Use
     prism vs Möbius–Kantor-like: C6 with chords *)
  let prism = Graph.unlabeled ~n:6 ~edges:[ 0,1; 1,2; 2,0; 3,4; 4,5; 5,3; 0,3; 1,4; 2,5 ] in
  let mobius = Graph.unlabeled ~n:6 ~edges:[ 0,1; 1,2; 2,3; 3,4; 4,5; 5,0; 0,3; 1,4; 2,5 ] in
  check "prism vs mobius" false (Iso.equal prism mobius)

let test_iso_labels_respected () =
  let g = Graph.relabel (Gen.cycle 4) (fun v -> Label.Int (v mod 2)) in
  let h = Graph.relabel (Gen.cycle 4) (fun v -> Label.Int ((v + 1) mod 2)) in
  (* rotation by 1 is a label-respecting isomorphism *)
  check "rotated labels iso" true (Iso.equal g h)

(* ---------- Encode ---------- *)

let test_encode_injective () =
  let g1 = Gen.cycle 4 in
  let g2 = Gen.path 4 in
  let id = [| 0; 1; 2; 3 |] in
  check "distinct graphs distinct encodings" false
    (String.equal (Encode.to_string g1 ~order:id) (Encode.to_string g2 ~order:id));
  check "same graph same encoding" true
    (String.equal (Encode.to_string g1 ~order:id) (Encode.to_string g1 ~order:id))

let test_encode_order_sensitivity () =
  let g = Gen.path 3 in
  let e1 = Encode.to_string g ~order:[| 0; 1; 2 |] in
  let e2 = Encode.to_string g ~order:[| 2; 1; 0 |] in
  (* path is symmetric: reversing the order gives the same encoding *)
  Alcotest.(check string) "symmetric order" e1 e2;
  let e3 = Encode.to_string g ~order:[| 1; 0; 2 |] in
  check "asymmetric order differs" false (String.equal e1 e3)

(* ---------- Props ---------- *)

let test_props_distances () =
  let g = Gen.cycle 6 in
  let d = Props.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 2; 1 |] d;
  check_int "diameter" 3 (Props.diameter g);
  Alcotest.(check (list int)) "2-hop neighbors" [ 1; 2; 4; 5 ]
    (Props.k_hop_neighbors g 0 2)

let test_props_coloring_checks () =
  let c6 = Gen.c6_figure1 () in
  check "figure1 is 2-hop colored" true (Props.is_two_hop_colored c6);
  check "figure1 is not 3-hop colored" false
    (Props.is_k_hop_coloring c6 3 (Graph.label c6));
  let bad = Graph.relabel (Gen.cycle 6) (fun v -> Label.Int (v mod 2)) in
  check "2-coloring of C6 is not 2-hop" false (Props.is_two_hop_colored bad);
  check "but is 1-hop" true (Props.is_k_hop_coloring bad 1 (Graph.label bad))

let test_props_histogram () =
  Alcotest.(check (list (pair int int)))
    "star histogram" [ 1, 4; 4, 1 ]
    (Props.degree_histogram (Gen.star 4));
  Alcotest.(check int) "distinct labels" 3 (Props.distinct_labels (Gen.c6_figure1 ()))

(* ---------- Dot export ---------- *)

let test_dot_export () =
  let g = Gen.c6_figure1 () in
  let dot = Dot.of_graph ~name:"c6" g in
  let contains needle hay =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check "graph header" true (contains "graph c6 {" dot);
  check "node with label" true (contains "v0 [label=\"1\"]" dot);
  check "edge" true (contains "v0 -- v1;" dot);
  let l = Lift.c6_over_c3 () in
  let fdot =
    Dot.of_factorization ~product:l.Lift.graph ~factor:l.Lift.base ~map:l.Lift.map ()
  in
  check "product cluster" true (contains "cluster_product" fdot);
  check "factor cluster" true (contains "cluster_factor" fdot);
  check "map arrow" true (contains "p0 -- f0 [style=dashed" fdot)

(* ---------- Graph_io ---------- *)

let test_graph_io_roundtrip () =
  let g =
    Graph.create ~n:4
      ~edges:[ 0, 1; 1, 2; 2, 3; 3, 0 ]
      ~labels:
        [| Label.Int 7; Label.Unit; Label.Str "x"; Label.Bits (Bits.of_string "01") |]
  in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  check_int "same n" (Graph.n g) (Graph.n g');
  Alcotest.(check (list (pair int int))) "same edges" (Graph.edges g) (Graph.edges g');
  check "same labels" true (Array.for_all2 Label.equal (Graph.labels g) (Graph.labels g'))

let test_graph_io_parsing () =
  let g = Graph_io.of_string "# a square\nn 4\n\nnode 1 bool:true\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\n" in
  check_int "n" 4 (Graph.n g);
  check_int "edges" 4 (Graph.num_edges g);
  check "label parsed" true (Label.equal (Graph.label g 1) (Label.Bool true));
  check "default unit" true (Label.equal (Graph.label g 0) Label.Unit);
  let raises s = try ignore (Graph_io.of_string s); false with Invalid_argument _ -> true in
  check "missing n" true (raises "edge 0 1\n");
  check "bad directive" true (raises "n 2\nfoo\n");
  check "bad label" true (raises "n 2\nnode 0 frob:3\n");
  check "bad edge" true (raises "n 2\nedge 0 x\n")

let test_graph_io_files () =
  let path = Filename.temp_file "anonet" ".graph" in
  let g = Gen.c6_figure1 () in
  Graph_io.save path g;
  let g' = Graph_io.load path in
  Sys.remove path;
  check "file roundtrip" true (Iso.equal g g')

(* ---------- qcheck properties ---------- *)

let arb_small_graph =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" seed n p)
    QCheck.Gen.(
      triple (int_bound 1000) (int_range 2 14) (float_bound_inclusive 0.5))

let prop_random_connected_simple =
  QCheck.Test.make ~name:"random_connected is connected and simple" ~count:100
    arb_small_graph (fun (seed, n, p) ->
      let g = Gen.random_connected ~seed n p in
      Props.is_connected g
      && List.for_all (fun (u, v) -> u <> v) (Graph.edges g)
      && Graph.n g = n)

let prop_lift_always_product =
  QCheck.Test.make ~name:"random lift is a product of its base" ~count:50
    QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1000)) (QCheck.make QCheck.Gen.(int_range 2 3)))
    (fun (seed, k) ->
      let base = Gen.random_hamiltonian ~seed:(seed + 1) 6 0.4 in
      let lift = Lift.random ~seed base ~k in
      Anonet_views.Factor.is_factorizing ~product:lift.Lift.graph ~factor:base
        ~map:lift.Lift.map)

let prop_bits_order_total =
  QCheck.Test.make ~name:"Bits.compare is a total order" ~count:200
    QCheck.(triple (list bool) (list bool) (list bool))
    (fun (a, b, c) ->
      let ba = Bits.of_list a and bb = Bits.of_list b and bc = Bits.of_list c in
      let sgn x = Stdlib.compare x 0 in
      (* antisymmetry *)
      sgn (Bits.compare ba bb) = -sgn (Bits.compare bb ba)
      (* transitivity spot check *)
      && (not (Bits.compare ba bb <= 0 && Bits.compare bb bc <= 0)
          || Bits.compare ba bc <= 0))

(* ---------- the local k-hop check vs the list-based reference ---------- *)

(* [Props.is_k_hop_coloring] as it was before it became a depth-bounded
   BFS: full-graph distances from every node, then the sorted list of the
   nodes within k hops.  O(n·(n+m)); kept as the oracle. *)
let reference_is_k_hop_coloring g k labeling =
  let ok = ref true in
  Graph.iter_nodes g ~f:(fun v ->
      List.iter
        (fun u -> if Label.equal (labeling u) (labeling v) then ok := false)
        (Props.k_hop_neighbors g v k));
  !ok

(* Small graphs of the shapes the checker meets: G(n, p) without the
   connectivity patch (so disconnected graphs and n = 0/1 occur), cycles,
   trees and grids. *)
let gen_khop_graph st =
  let module G = QCheck.Gen in
  match G.int_bound 3 st with
  | 0 ->
    let n = G.int_bound 12 st and p = G.float_bound_inclusive 0.6 st in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if G.float_bound_exclusive 1.0 st < p then edges := (u, v) :: !edges
      done
    done;
    Printf.sprintf "gnp n=%d p=%.2f" n p, Graph.unlabeled ~n ~edges:!edges
  | 1 ->
    let n = G.int_range 3 12 st in
    Printf.sprintf "cycle:%d" n, Gen.cycle n
  | 2 ->
    let n = G.int_range 1 12 st and seed = G.int_bound 1000 st in
    Printf.sprintf "tree n=%d seed=%d" n seed, Gen.random_tree ~seed n
  | _ ->
    let w = G.int_range 1 4 st and h = G.int_range 1 4 st in
    Printf.sprintf "grid:%dx%d" w h, Gen.grid w h

(* A palette of c colors dealt round-robin over a shuffled node order:
   small c makes conflicts common, c >= n makes the labeling unique. *)
let gen_khop_labels n st =
  let c = QCheck.Gen.int_range 1 (n + 1) st in
  let perm = Array.init n Fun.id in
  QCheck.Gen.shuffle_a perm st;
  Array.map (fun x -> x mod c) perm

let prop_khop_matches_reference =
  QCheck.Test.make ~name:"k-hop check agrees with the list-based reference"
    ~count:500
    (QCheck.make
       ~print:(fun ((name, _), labels) ->
         Printf.sprintf "%s labels=[%s]" name
           (String.concat ";" (Array.to_list (Array.map string_of_int labels))))
       (fun st ->
         let ((_, g) as gc) = gen_khop_graph st in
         gc, gen_khop_labels (Graph.n g) st))
    (fun ((_, g), labels) ->
      let labeling v = Label.Int labels.(v) in
      List.for_all
        (fun k ->
          Props.is_k_hop_coloring g k labeling
          = reference_is_k_hop_coloring g k labeling)
        [ 0; 1; 2; 3 ])

(* Two nodes a <> b at distance d share a label, every other label is
   unique: the check must fail iff k >= d (never, if b is unreachable). *)
let prop_khop_planted_conflict =
  QCheck.Test.make ~name:"planted conflict at distance d fails iff k >= d"
    ~count:500
    (QCheck.make
       ~print:(fun (gc, a, b) -> Printf.sprintf "%s a=%d b=%d" (fst gc) a b)
       (fun st ->
         let ((_, g) as gc) = gen_khop_graph st in
         let n = Graph.n g in
         if n < 2 then gc, 0, 0
         else
           let a = QCheck.Gen.int_bound (n - 1) st in
           gc, a, (a + 1 + QCheck.Gen.int_bound (n - 2) st) mod n))
    (fun ((_, g), a, b) ->
      QCheck.assume (a <> b);
      let d = (Props.bfs_distances g a).(b) in
      let labeling v = Label.Int (if v = b then a else v) in
      List.for_all
        (fun k -> Props.is_k_hop_coloring g k labeling = (k < d))
        [ 0; 1; 2; 3 ])

let gen_code_bits =
  QCheck.make
    ~print:(fun l -> Bits.to_string (Bits.of_list l))
    QCheck.Gen.(list_size (int_bound Bits.code_max_length) bool)

let prop_code_roundtrip =
  QCheck.Test.make ~name:"Bits.of_code (Bits.to_code b) = b" ~count:300
    gen_code_bits (fun l ->
      let b = Bits.of_list l in
      Bits.equal (Bits.of_code (Bits.to_code b)) b
      && (Bits.length b = Bits.code_max_length
         || Bits.equal
              (Bits.of_code (Bits.append_code (Bits.to_code b) true))
              (Bits.append b true)))

(* Half the pairs share a length, so the lexicographic tie-break is
   exercised as often as the length-first order. *)
let gen_code_pair =
  let open QCheck.Gen in
  let* a = list_size (int_bound Bits.code_max_length) bool in
  let* same = bool in
  let+ b =
    if same then list_repeat (List.length a) bool
    else list_size (int_bound Bits.code_max_length) bool
  in
  a, b

let prop_code_order =
  QCheck.Test.make ~name:"numeric order on codes = Bits.compare" ~count:300
    (QCheck.make
       ~print:(fun (a, b) ->
         Bits.to_string (Bits.of_list a) ^ " " ^ Bits.to_string (Bits.of_list b))
       gen_code_pair)
    (fun (a, b) ->
      let a = Bits.of_list a and b = Bits.of_list b in
      Int.compare (Bits.to_code a) (Bits.to_code b) = Bits.compare a b)

let test_code_limits () =
  let longest = Bits.zero Bits.code_max_length in
  Alcotest.check_raises "to_code past the limit"
    (Invalid_argument "Bits.to_code: too long") (fun () ->
      ignore (Bits.to_code (Bits.append longest false)));
  Alcotest.check_raises "append_code past the limit"
    (Invalid_argument "Bits.append_code: overflow") (fun () ->
      ignore (Bits.append_code (Bits.to_code longest) true));
  Alcotest.(check int) "empty is code 1" 1 (Bits.to_code Bits.empty)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_connected_simple;
      prop_lift_always_product;
      prop_bits_order_total;
      prop_code_roundtrip;
      prop_code_order;
    ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]))
      [ prop_khop_matches_reference; prop_khop_planted_conflict ]

let () =
  Alcotest.run "anonet_graph"
    [
      ( "bits",
        [
          Alcotest.test_case "roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "order" `Quick test_bits_order;
          Alcotest.test_case "prefix" `Quick test_bits_prefix;
          Alcotest.test_case "ints" `Quick test_bits_int;
          Alcotest.test_case "concat/take" `Quick test_bits_concat_take;
          Alcotest.test_case "code limits" `Quick test_code_limits;
        ] );
      ( "label",
        [
          Alcotest.test_case "order & encode" `Quick test_label_order_and_encode;
          Alcotest.test_case "projections" `Quick test_label_projections;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "ports" `Quick test_graph_ports;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "relabel" `Quick test_graph_relabel;
          Alcotest.test_case "permute ports" `Quick test_permute_ports;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic families" `Quick test_generators;
          Alcotest.test_case "circulant/lollipop/caterpillar/barbell" `Quick
            test_new_families;
          Alcotest.test_case "random families" `Quick test_random_generators;
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
        ] );
      ( "lift",
        [
          Alcotest.test_case "figure 2 cycles" `Quick test_lift_figure2;
          Alcotest.test_case "lift is product" `Quick test_lift_is_product;
          Alcotest.test_case "identity lift disconnected" `Quick
            test_identity_lift_disconnected;
        ] );
      ( "iso",
        [
          Alcotest.test_case "positive" `Quick test_iso_positive;
          Alcotest.test_case "negative" `Quick test_iso_negative;
          Alcotest.test_case "labels respected" `Quick test_iso_labels_respected;
        ] );
      ( "encode",
        [
          Alcotest.test_case "injective" `Quick test_encode_injective;
          Alcotest.test_case "order sensitivity" `Quick test_encode_order_sensitivity;
        ] );
      "dot", [ Alcotest.test_case "exports" `Quick test_dot_export ];
      ( "graph-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_graph_io_roundtrip;
          Alcotest.test_case "parsing" `Quick test_graph_io_parsing;
          Alcotest.test_case "files" `Quick test_graph_io_files;
        ] );
      ( "props",
        [
          Alcotest.test_case "distances" `Quick test_props_distances;
          Alcotest.test_case "coloring checks" `Quick test_props_coloring_checks;
          Alcotest.test_case "histogram" `Quick test_props_histogram;
        ] );
      "properties", qcheck_tests;
    ]
