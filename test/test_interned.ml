(* Tests for the view-interning subsystem (Interned), the canonical
   encoding, and their agreement with naive structural references
   (Naive_view, built from the definition) — including under the domain
   pool. *)

open Anonet_graph
open Anonet_views
module Pool = Anonet_parallel.Pool

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* ---------- naive structural references ---------- *)

(* A naive view interned node by node: no memo, no level-by-level build. *)
let rec intern (t : Naive_view.t) =
  Interned.node t.Naive_view.mark (List.map intern t.Naive_view.children)

(* Universal-cover truncations and classes built naively: boxed trees,
   sort_uniq, a linear find per node. *)
let naive_uc_truncation g ~root ~depth =
  let rec subtree v ~parent d =
    Naive_view.node (Graph.label g v)
      (if d = 1 then []
       else
         Array.to_list (Graph.neighbors g v)
         |> List.filter (fun u -> u <> parent)
         |> List.map (fun u -> subtree u ~parent:v (d - 1)))
  in
  Naive_view.node (Graph.label g root)
    (if depth = 1 then []
     else
       Array.to_list (Graph.neighbors g root)
       |> List.map (fun u -> subtree u ~parent:root (depth - 1)))

let naive_uc_classes g d =
  let n = Graph.n g in
  let trees = Array.init n (fun v -> naive_uc_truncation g ~root:v ~depth:d) in
  let distinct = List.sort_uniq Naive_view.compare (Array.to_list trees) in
  let index t =
    let rec find i = function
      | [] -> assert false
      | x :: rest -> if Naive_view.compare x t = 0 then i else find (i + 1) rest
    in
    find 0 distinct
  in
  Array.map index trees

let sign c = Stdlib.compare c 0

(* ---------- interning basics ---------- *)

let test_intern_identity () =
  let a = Interned.node (Label.Int 1) [ Interned.leaf (Label.Int 2) ] in
  let b = Interned.node (Label.Int 1) [ Interned.leaf (Label.Int 2) ] in
  check "same id" true (Interned.id a = Interned.id b);
  check "physically equal" true (a == b);
  check "equal" true (Interned.equal a b);
  check_int "compare 0" 0 (Interned.compare a b);
  let c1 = Interned.leaf (Label.Int 1) and c2 = Interned.leaf (Label.Int 2) in
  check "sorted children" true
    (Interned.equal (Interned.node Label.Unit [ c1; c2 ])
       (Interned.node Label.Unit [ c2; c1 ]))

let test_intern_size_depth () =
  let g = Gen.c6_figure1 () in
  let i = Interned.of_graph g ~root:0 ~depth:3 in
  check_int "size 1+2+4" 7 (Interned.size i);
  check_int "depth" 3 (Interned.depth i);
  check_int "leaf size" 1 (Interned.size (Interned.leaf Label.Unit));
  check_int "leaf depth" 1 (Interned.depth (Interned.leaf Label.Unit))

let test_intern_stats_move () =
  let before = Interned.stats () in
  (* A fresh structure (unique marks) must miss; re-interning it must hit. *)
  let mk () =
    Interned.node (Label.Str "stats-probe")
      [ Interned.leaf (Label.Int 123456); Interned.leaf (Label.Int 654321) ]
  in
  let a = mk () in
  let b = mk () in
  check "re-intern is the same node" true (a == b);
  let after = Interned.stats () in
  check "misses advanced" true (after.Interned.misses > before.Interned.misses);
  check "hits advanced" true (after.Interned.hits > before.Interned.hits);
  check "nodes grew" true (after.Interned.nodes > before.Interned.nodes)

let test_knowledge_shares_table () =
  (* The knowledge A*'s nodes exchange is the same interned
     representation: a view decoded from its DAG label, as a receiver
     rebuilds it, is the very handle [of_graph] interned. *)
  let g = Gen.label_with_ints (Gen.petersen ()) in
  let i = Interned.of_graph g ~root:3 ~depth:5 in
  let label = Interned.to_label i in
  (* A structurally equal copy misses the identity-keyed decode cache. *)
  let copy : Label.t = Marshal.from_string (Marshal.to_string label []) 0 in
  check_int "same id across APIs" (Interned.id i)
    (Interned.id (Interned.of_label copy))

(* ---------- interned views vs the naive oracle ---------- *)

let test_of_graph_matches_naive () =
  List.iter
    (fun g ->
      for d = 1 to 6 do
        let fast = Interned.of_graph g ~root:0 ~depth:d in
        let naive = Naive_view.of_graph g ~root:0 ~depth:d in
        check "of_graph = naive (structural)" true (Interned.equal fast (intern naive));
        check_string "of_graph = naive (bytes)" (Naive_view.to_string naive)
          (Interned.to_string fast)
      done)
    [ Gen.path 5; Gen.c6_figure1 (); Gen.label_with_ints (Gen.petersen ());
      Gen.grid 3 3; Gen.star 4 ]

let test_oracle_figure1 () =
  (* The oracle itself, against Figure 1 written out by hand: L_3(u0) in
     the C6 colored (1,2,3,1,2,3). *)
  let leaf m = { Naive_view.mark = Label.Int m; children = [] } in
  let node m children = { Naive_view.mark = Label.Int m; children } in
  let figure =
    node 1 [ node 2 [ leaf 1; leaf 3 ]; node 3 [ leaf 1; leaf 2 ] ]
  in
  let v = Naive_view.of_graph (Gen.c6_figure1 ()) ~root:0 ~depth:3 in
  check_int "naive view = Figure 1" 0 (Naive_view.compare figure v);
  check_int "7 vertices" 7 (Naive_view.size v);
  check_string "rendering"
    "1\n├── 2\n│   ├── 1\n│   └── 3\n└── 3\n    ├── 1\n    └── 2\n"
    (Naive_view.to_string v)

let test_truncate_matches_naive () =
  let g = Gen.label_with_ints (Gen.petersen ()) in
  let v = Interned.of_graph g ~root:0 ~depth:7 in
  let naive = Naive_view.of_graph g ~root:0 ~depth:7 in
  for d = 1 to 7 do
    check_string "truncate = naive truncate"
      (Naive_view.to_string (Naive_view.truncate naive ~depth:d))
      (Interned.to_string (Interned.truncate v ~depth:d))
  done

let test_size_k8_depth16_closed_form () =
  (* The unfolded tree has ~5.5e12 vertices: only a size kept per shared
     node can answer. *)
  let k8 = Gen.label_with_ints (Gen.complete 8) in
  let v = Interned.of_graph k8 ~root:0 ~depth:16 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  (* Every node of K8 has degree 7: size = 1 + 7 + ... + 7^15. *)
  check_int "closed form (7^16 - 1) / 6" ((pow 7 16 - 1) / 6) (Interned.size v);
  check_int "depth 16" 16 (Interned.depth v)

(* ---------- Universal_cover on the existing families ---------- *)

let test_uc_classes_match_naive () =
  List.iter
    (fun g ->
      for d = 1 to 6 do
        let fast = Universal_cover.classes_at_depth g d in
        let naive = naive_uc_classes g d in
        check "UC classes = naive" true (fast = naive)
      done)
    [ Gen.path 5; Gen.c6_figure1 (); Gen.petersen (); Gen.grid 3 3;
      Gen.star 4; Gen.random_connected ~seed:8 8 0.3 ]

let test_uc_truncation_matches_naive () =
  List.iter
    (fun g ->
      for d = 1 to 6 do
        Graph.iter_nodes g ~f:(fun root ->
            check_string "UC truncation = naive"
              (Naive_view.to_string (naive_uc_truncation g ~root ~depth:d))
              (Interned.to_string (Universal_cover.truncation g ~root ~depth:d)))
      done)
    [ Gen.path 5; Gen.c6_figure1 (); Gen.petersen (); Gen.star 4;
      Gen.random_connected ~seed:8 8 0.3 ]

(* ---------- canonical encoding ---------- *)

let test_encode_canonical () =
  let g = Gen.label_with_ints (Gen.petersen ()) in
  let direct = Encode.to_string g ~order:(Array.init (Graph.n g) (fun i -> i)) in
  check_string "canonical = to_string(identity)" direct (Encode.canonical g);
  check_string "canonical again" direct (Encode.canonical g);
  let g' = Graph.map_labels g (fun l -> l) in
  check_string "updated graph encodes identically (same structure)" direct
    (Encode.canonical g')

(* ---------- domain-pool safety ---------- *)

(* Each domain interns into its own arena, so handles mean nothing across
   domains: every task renders its view inside itself, and the renderings
   must match the calling domain's byte for byte. *)
let test_parallel_interning_matches_sequential () =
  let g = Gen.label_with_ints (Gen.petersen ()) in
  let n = Graph.n g in
  let roots = Array.init (4 * n) (fun i -> i mod n) in
  let render v = Interned.to_string (Interned.of_graph g ~root:v ~depth:8) in
  let seq = Array.map render roots in
  let par = Pool.map ~domains:4 render roots in
  Array.iteri
    (fun i s -> check_string "byte-identical rendering" seq.(i) s)
    par

let test_parallel_uc_classes_match_sequential () =
  let graphs =
    [| Gen.path 5; Gen.c6_figure1 (); Gen.petersen (); Gen.grid 3 3;
       Gen.random_connected ~seed:21 9 0.3; Gen.star 4; Gen.cycle 7;
       Gen.label_with_ints (Gen.petersen ()) |]
  in
  let seq = Array.map (fun g -> Universal_cover.classes_at_depth g 6) graphs in
  let par = Pool.map ~domains:4 (fun g -> Universal_cover.classes_at_depth g 6) graphs in
  Array.iteri (fun i c -> check "pool classes = sequential" true (c = seq.(i))) par

(* ---------- qcheck properties ---------- *)

let arb_seeded =
  QCheck.make
    ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" s n p)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 10) (float_bound_inclusive 0.5))

(* Random connected graphs with uneven degrees, marked [v mod k] for
   k = 1..3 so that siblings often share a mark and the canonical order
   has to look below it. *)
let arb_marked =
  QCheck.make
    ~print:(fun (s, n, p, k) -> Printf.sprintf "seed=%d n=%d p=%f k=%d" s n p k)
    QCheck.Gen.(
      quad (int_bound 10_000) (int_range 2 10) (float_bound_inclusive 0.5)
        (int_range 1 3))

let prop_interned_matches_naive =
  QCheck.Test.make
    ~name:"Interned.of_graph = naive view (to_string, size, truncate, compare)"
    ~count:60 arb_marked (fun (seed, n, p, k) ->
      let g =
        Graph.relabel (Gen.random_connected ~seed n p) (fun v -> Label.Int (v mod k))
      in
      let u = seed mod Graph.n g and v = (seed / 7) mod Graph.n g in
      List.for_all
        (fun d ->
          let iu = Interned.of_graph g ~root:u ~depth:d in
          let iv = Interned.of_graph g ~root:v ~depth:d in
          let nu = Naive_view.of_graph g ~root:u ~depth:d in
          let nv = Naive_view.of_graph g ~root:v ~depth:d in
          String.equal (Interned.to_string iu) (Naive_view.to_string nu)
          && Interned.size iu = Naive_view.size nu
          && sign (Interned.compare iu iv) = sign (Naive_view.compare nu nv)
          && sign (Interned.compare iv iu) = sign (Naive_view.compare nv nu)
          && List.for_all
               (fun d' ->
                 String.equal
                   (Interned.to_string (Interned.truncate iu ~depth:d'))
                   (Naive_view.to_string (Naive_view.truncate nu ~depth:d')))
               (List.init d (fun i -> i + 1)))
        [ 1; 2; 3; 4; 5; 6 ])

(* The view side is the naive view tree (Naive_view). *)
let prop_interned_compare_agrees =
  QCheck.Test.make ~name:"Interned.compare = View.compare (sign)" ~count:80
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let d = 1 + (seed mod 5) in
      let u = seed mod Graph.n g and v = (seed / 7) mod Graph.n g in
      let iu = Interned.of_graph g ~root:u ~depth:d in
      let iv = Interned.of_graph g ~root:v ~depth:d in
      let nu = Naive_view.of_graph g ~root:u ~depth:d in
      let nv = Naive_view.of_graph g ~root:v ~depth:d in
      sign (Interned.compare iu iv) = sign (Naive_view.compare nu nv)
      && sign (Interned.compare iv iu) = sign (Naive_view.compare nv nu))

let prop_intern_of_graph_consistent =
  QCheck.Test.make ~name:"intern (naive of_graph) = Interned.of_graph" ~count:80
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let d = 1 + (seed mod 5) in
      let root = seed mod Graph.n g in
      Interned.equal
        (intern (Naive_view.of_graph g ~root ~depth:d))
        (Interned.of_graph g ~root ~depth:d))

let prop_truncate_coherent =
  QCheck.Test.make ~name:"Interned.truncate = of_graph at lower depth" ~count:60
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let deep = Interned.of_graph g ~root:(seed mod Graph.n g) ~depth:7 in
      let d = 1 + (seed mod 7) in
      Interned.equal
        (Interned.truncate deep ~depth:d)
        (Interned.of_graph g ~root:(seed mod Graph.n g) ~depth:(min d 7)))

let prop_parallel_byte_identical =
  QCheck.Test.make ~name:"4-domain interning byte-identical to sequential" ~count:15
    arb_seeded (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let gn = Graph.n g in
      let roots = Array.init gn (fun v -> v) in
      let seq =
        Array.map
          (fun v -> Interned.to_string (Interned.of_graph g ~root:v ~depth:6))
          roots
      in
      let par =
        Pool.map ~domains:4
          (fun v -> Interned.to_string (Interned.of_graph g ~root:v ~depth:6))
          roots
      in
      Array.for_all2 String.equal seq par)

let qcheck_tests =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
    prop_interned_matches_naive
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_interned_compare_agrees; prop_intern_of_graph_consistent;
         prop_truncate_coherent;
         prop_parallel_byte_identical ]

let () =
  Alcotest.run "anonet_interned"
    [
      ( "intern",
        [
          Alcotest.test_case "identity & canonicalization" `Quick test_intern_identity;
          Alcotest.test_case "memoized size/depth" `Quick test_intern_size_depth;
          Alcotest.test_case "stats counters" `Quick test_intern_stats_move;
          Alcotest.test_case "knowledge shares the table" `Quick
            test_knowledge_shares_table;
        ] );
      ( "view-fast-path",
        [
          Alcotest.test_case "of_graph = naive" `Quick test_of_graph_matches_naive;
          Alcotest.test_case "naive oracle = Figure 1" `Quick test_oracle_figure1;
          Alcotest.test_case "truncate = naive" `Quick test_truncate_matches_naive;
          Alcotest.test_case "K8 depth-16 size closed form" `Quick
            test_size_k8_depth16_closed_form;
        ] );
      ( "universal-cover",
        [ Alcotest.test_case "classes = naive on families" `Quick
            test_uc_classes_match_naive;
          Alcotest.test_case "truncation = naive on families" `Quick
            test_uc_truncation_matches_naive ] );
      ( "encode",
        [ Alcotest.test_case "canonical = to_string(identity)" `Quick
            test_encode_canonical ] );
      ( "pool",
        [
          Alcotest.test_case "4-domain interning = sequential" `Quick
            test_parallel_interning_matches_sequential;
          Alcotest.test_case "4-domain UC classes = sequential" `Quick
            test_parallel_uc_classes_match_sequential;
        ] );
      "properties", qcheck_tests;
    ]
