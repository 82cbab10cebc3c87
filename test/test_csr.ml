(* Tests for the CSR graph core: the flat offsets/adjacency representation
   must be observationally identical to the legacy per-node adjacency-list
   semantics — same neighbor order, same ports, same degrees, the same
   reverse-edge slots — and label updates must keep the adjacency.  On top, the end-to-end solve/derandomize text
   must stay byte-identical when the same job runs concurrently on 2 or 4
   domains, as `anonet serve --jobs 2/4` workers run it, on fixed and
   random graphs: concurrent runs share each domain's executor scratch,
   and each job interns its views into an arena of its own, so a leak
   between them would surface here. *)

open Anonet_graph
module Job = Anonet_net.Job
module Runner = Anonet_net.Runner
module Pool = Anonet_parallel.Pool

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* The reference model: the pre-CSR representation kept one int array per
   node, the neighbor list sorted ascending; a port was an index into it. *)
let reference_adjacency n edges =
  let buckets = Array.make (max 1 n) [] in
  List.iter
    (fun (u, v) ->
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    edges;
  Array.init n (fun v -> Array.of_list (List.sort Int.compare buckets.(v)))

(* Simple-graph edge sampler (deterministic in [seed]; ~30% density, so
   small instances cover empty nodes, leaves and dense nodes alike). *)
let random_edges ~seed n =
  let r = Prng.create seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.int r 100 < 30 then edges := (u, v) :: !edges
    done
  done;
  !edges

(* The observational-equivalence core: every accessor, flat or not, must
   agree with the reference model built from the same edge list. *)
let agree name g edges =
  let n = Graph.n g in
  let ref_adj = reference_adjacency n edges in
  let off = Graph.offsets g and adj = Graph.adjacency g in
  check_int (name ^ ": num_edges") (List.length edges) (Graph.num_edges g);
  check_int (name ^ ": offsets length") (n + 1) (Array.length off);
  check_int (name ^ ": total slots") (2 * List.length edges) off.(n);
  check (name ^ ": ports sorted") true (Graph.ports_sorted g);
  check (name ^ ": edge set") true
    (List.sort_uniq compare edges = List.sort compare (Graph.edges g));
  for v = 0 to n - 1 do
    let expect = ref_adj.(v) in
    let d = Array.length expect in
    check_int (Printf.sprintf "%s: degree %d" name v) d (Graph.degree g v);
    check_int (Printf.sprintf "%s: slice width %d" name v) d (off.(v + 1) - off.(v));
    Alcotest.(check (array int))
      (Printf.sprintf "%s: neighbors %d" name v)
      expect (Graph.neighbors g v);
    Array.iteri
      (fun p u ->
        check_int (Printf.sprintf "%s: neighbor %d.%d" name v p) u
          (Graph.neighbor g v p);
        check_int (Printf.sprintf "%s: slot %d.%d" name v p) u (adj.(off.(v) + p));
        check_int (Printf.sprintf "%s: port_to %d->%d" name v u) p
          (Graph.port_to g v u);
        check (Printf.sprintf "%s: has_edge %d-%d" name v u) true
          (Graph.has_edge g v u))
      expect;
    let folded =
      List.rev (Graph.fold_neighbors g v ~init:[] ~f:(fun acc u -> u :: acc))
    in
    check (Printf.sprintf "%s: fold order %d" name v) true
      (Array.to_list expect = folded);
    let iterated = ref [] in
    Graph.iter_neighbors g v ~f:(fun u -> iterated := u :: !iterated);
    check (Printf.sprintf "%s: iter order %d" name v) true
      (Array.to_list expect = List.rev !iterated);
    (* One non-neighbor probe per node: port_to must raise, has_edge deny. *)
    let non_neighbor =
      List.find_opt
        (fun w -> w <> v && not (Array.exists (fun u -> u = w) expect))
        (List.init n (fun i -> i))
    in
    Option.iter
      (fun w ->
        check (Printf.sprintf "%s: no edge %d-%d" name v w) false
          (Graph.has_edge g v w);
        check (Printf.sprintf "%s: no port %d->%d" name v w) true
          (match Graph.port_to g v w with
           | _ -> false
           | exception Not_found -> true))
      non_neighbor
  done

let fixed_graphs =
  [ "petersen", Gen.petersen ();
    "cycle-7", Gen.cycle 7;
    "grid-3x4", Gen.grid 3 4;
    "star-6", Gen.star 6;
    "path-2", Gen.path 2;
  ]

let test_fixed_graphs_agree () =
  List.iter (fun (name, g) -> agree name g (Graph.edges g)) fixed_graphs

let test_empty_and_singleton () =
  agree "empty" (Graph.unlabeled ~n:0 ~edges:[]) [];
  agree "singleton" (Graph.unlabeled ~n:1 ~edges:[]) [];
  agree "two-isolated" (Graph.unlabeled ~n:2 ~edges:[]) []

let qcheck_csr_agrees =
  QCheck.Test.make ~name:"CSR = legacy adjacency on random graphs" ~count:60
    QCheck.(pair (int_range 2 30) (int_range 1 10_000))
    (fun (n, seed) ->
      let edges = random_edges ~seed n in
      agree (Printf.sprintf "n%d-seed%d" n seed) (Graph.unlabeled ~n ~edges) edges;
      true)

let reversing_perms g =
  Array.init (Graph.n g) (fun v ->
      let d = Graph.degree g v in
      Array.init d (fun j -> d - 1 - j))

let random_perms ~seed g =
  let r = Prng.create seed in
  Array.init (Graph.n g) (fun v ->
      let p = Array.init (Graph.degree g v) Fun.id in
      Prng.shuffle r p;
      p)

(* [Graph.reverse_slots] against one [port_to] per slot, on the sorted
   graph and on two port permutations of it (the fallback path). *)
let check_reverse_slots name g =
  List.iter
    (fun (variant, g) ->
      let off = Graph.offsets g in
      let expect =
        Array.concat
          (List.init (Graph.n g) (fun v ->
               Array.init (Graph.degree g v) (fun p ->
                   let u = Graph.neighbor g v p in
                   off.(u) + Graph.port_to g u v)))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "%s/%s: reverse slots = port_to table" name variant)
        expect (Graph.reverse_slots g))
    [ "sorted", g;
      "reversed", Graph.permute_ports g (reversing_perms g);
      "shuffled", Graph.permute_ports g (random_perms ~seed:(Graph.n g) g) ]

let test_reverse_slots () =
  List.iter (fun (name, g) -> check_reverse_slots name g) fixed_graphs;
  check_reverse_slots "empty" (Graph.unlabeled ~n:0 ~edges:[]);
  check_reverse_slots "two-isolated" (Graph.unlabeled ~n:2 ~edges:[]);
  List.iter
    (fun seed ->
      let n = 5 + (seed mod 20) in
      check_reverse_slots (Printf.sprintf "n%d-seed%d" n seed)
        (Graph.unlabeled ~n ~edges:(random_edges ~seed n)))
    (List.init 20 (fun i -> 100 + i))

(* ---------- functional updates: stable adjacency ---------- *)

let test_label_updates_keep_adjacency () =
  let g = Gen.petersen () in
  let g1 = Graph.relabel g (fun v -> Label.Int v) in
  let g2 = Graph.with_labels g (Array.make 10 (Label.Int 9)) in
  let g3 = Graph.map_labels g (fun l -> l) in
  (* label updates share the structure, only the labels move *)
  Graph.iter_nodes g ~f:(fun v ->
      List.iter
        (fun (name, g') ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s keeps neighbors of %d" name v)
            (Graph.neighbors g v) (Graph.neighbors g' v))
        [ "relabel", g1; "with_labels", g2; "map_labels", g3 ];
      check "relabel applied" true (Label.equal (Graph.label g1 v) (Label.Int v));
      check "with_labels applied" true
        (Label.equal (Graph.label g2 v) (Label.Int 9)))

let test_permute_ports_semantics () =
  let g = Gen.petersen () in
  let gp = Graph.permute_ports g (reversing_perms g) in
  check "reversed ports are unsorted" false (Graph.ports_sorted gp);
  Graph.iter_nodes g ~f:(fun v ->
      let d = Graph.degree g v in
      for j = 0 to d - 1 do
        check_int
          (Printf.sprintf "port %d.%d reversed" v j)
          (Graph.neighbor g v (d - 1 - j))
          (Graph.neighbor gp v j)
      done;
      (* port_to falls back to a linear scan on unsorted ports and must
         still find every neighbor — and only neighbors. *)
      Graph.iter_neighbors g v ~f:(fun u ->
          check_int
            (Printf.sprintf "port_to %d->%d on unsorted" v u)
            u
            (Graph.neighbor gp v (Graph.port_to gp v u))))

let test_encode_streaming_vs_sorting () =
  (* A sorted graph encodes through the streaming CSR walk; the same graph
     with permuted ports falls back to the materialize-and-sort path.  The
     two must agree byte-for-byte (port numbering is not observable in the
     encoding), on fixed and random graphs. *)
  let graphs =
    fixed_graphs
    @ List.map
        (fun seed ->
          ( Printf.sprintf "random-%d" seed,
            Gen.random_connected ~seed 13 0.3 ))
        [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, g) ->
      let identity = Array.init (Graph.n g) (fun i -> i) in
      check_string
        (name ^ ": canonical = to_string identity")
        (Encode.to_string g ~order:identity)
        (Encode.canonical g);
      let gp = Graph.permute_ports g (reversing_perms g) in
      check_string
        (name ^ ": streaming = sorting path")
        (Encode.canonical g) (Encode.canonical gp))
    graphs

(* ---------- solve/derandomize byte-identity across serve --jobs ---------- *)

(* The job on the calling domain, then [jobs] copies of it at once on
   [jobs] domains — one graph per copy, built from the spec. *)
let check_jobs_invariant name kind pairs =
  let job = { Job.kind; pairs } in
  let base = Runner.execute job in
  check_int (name ^ ": sequential exit code") 0 base.Runner.code;
  List.iter
    (fun jobs ->
      Array.iter
        (fun o ->
          check_int (Printf.sprintf "%s: exit code at --jobs %d" name jobs)
            base.Runner.code o.Runner.code;
          check_string (Printf.sprintf "%s: stdout at --jobs %d" name jobs)
            base.Runner.out o.Runner.out;
          check_string (Printf.sprintf "%s: stderr at --jobs %d" name jobs)
            base.Runner.err o.Runner.err)
        (Pool.map ~domains:jobs (fun () -> Runner.execute job) (Array.make jobs ())))
    [ 2; 4 ]

let test_solve_byte_identity () =
  check_jobs_invariant "solve mis/petersen" Job.Solve
    [ "problem", "mis"; "graph", "petersen"; "seed", "3" ];
  check_jobs_invariant "solve 2hop/random" Job.Solve
    [ "problem", "2hop"; "graph", "random:12,0.3,5"; "seed", "7" ];
  check_jobs_invariant "solve mis/gnp" Job.Solve
    [ "problem", "mis"; "graph", "gnp:60,4,2"; "seed", "9" ]

let test_derandomize_byte_identity () =
  check_jobs_invariant "derandomize a-infinity/c6" Job.Derandomize
    [ "problem", "mis"; "graph", "cycle:6"; "colors", "mod:3" ];
  check_jobs_invariant "derandomize a-star/c6" Job.Derandomize
    [ "problem", "mis"; "graph", "cycle:6"; "colors", "mod:3";
      "method", "a-star";
    ]

let () =
  Alcotest.run "csr"
    [
      ( "layout",
        [
          Alcotest.test_case "fixed graphs agree with reference" `Quick
            test_fixed_graphs_agree;
          Alcotest.test_case "empty and singleton graphs" `Quick
            test_empty_and_singleton;
          QCheck_alcotest.to_alcotest qcheck_csr_agrees;
          Alcotest.test_case "reverse slots = port_to table" `Quick
            test_reverse_slots;
        ] );
      ( "updates",
        [
          Alcotest.test_case "label updates keep adjacency" `Quick
            test_label_updates_keep_adjacency;
          Alcotest.test_case "permute_ports semantics" `Quick
            test_permute_ports_semantics;
          Alcotest.test_case "streaming encode = sorting encode" `Quick
            test_encode_streaming_vs_sorting;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "solve across --jobs" `Quick
            test_solve_byte_identity;
          Alcotest.test_case "derandomize across --jobs" `Quick
            test_derandomize_byte_identity;
        ] );
    ]
