(* Quickstart: the library in five minutes.

   1. Build an anonymous network (a labeled graph).
   2. Run a randomized anonymous algorithm on it (Las-Vegas 2-hop coloring).
   3. Inspect local views (Figure 1 of the paper).
   4. Derandomize: solve MIS deterministically given the 2-hop coloring,
      via the generic A* construction of Theorem 1.

   Run with:  dune exec examples/quickstart.exe
*)

open Anonet_graph
module Problem = Anonet_problems.Problem
module Catalog = Anonet_problems.Catalog
module Las_vegas = Anonet_runtime.Las_vegas
module Executor = Anonet_runtime.Executor
module Bundles = Anonet_algorithms.Bundles

let () =
  (* --- 1. An anonymous ring of 6 nodes ------------------------------ *)
  let g = Gen.cycle 6 in
  Printf.printf "network: the anonymous 6-cycle (%d nodes, %d edges)\n\n"
    (Graph.n g) (Graph.num_edges g);

  (* --- 2. Randomized 2-hop coloring --------------------------------- *)
  let report =
    match
      Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm g ~seed:2024 ()
    with
    | Ok r -> r
    | Error m -> failwith m
  in
  let colors = report.Las_vegas.outcome.Executor.outputs in
  Printf.printf "stage 1 — Las-Vegas 2-hop coloring (%d rounds, %d messages):\n"
    report.Las_vegas.outcome.Executor.rounds
    report.Las_vegas.outcome.Executor.messages;
  Array.iteri
    (fun v c -> Printf.printf "  node %d: color %s\n" v (Label.to_string c))
    colors;
  assert (Props.is_k_hop_coloring g 2 (fun v -> colors.(v)));
  Printf.printf "  (verified: a proper 2-hop coloring)\n\n";

  (* --- 3. Local views (Figure 1) ------------------------------------- *)
  let colored = Problem.attach_coloring g colors in
  Printf.printf "depth-3 local view of node 0 in the colored ring:\n%s\n"
    (Anonet_views.Interned.to_string
       (Anonet_views.Interned.of_graph colored ~root:0 ~depth:3));

  (* --- 4. Deterministic MIS via the generic derandomization ---------- *)
  Printf.printf "stage 2 — deterministic MIS via A* (Theorem 1):\n";
  (match Anonet.A_star.solve ~gran:Bundles.mis colored () with
   | Error m -> failwith m
   | Ok outcome ->
     Array.iteri
       (fun v o ->
         Printf.printf "  node %d: %s\n" v
           (if Label.equal o (Label.Bool true) then "IN the MIS" else "out"))
       outcome.Executor.outputs;
     assert (Catalog.mis.Problem.is_valid_output g outcome.Executor.outputs);
     Printf.printf
       "  (verified: independent and maximal; computed in %d rounds with no \
        random bits)\n"
       outcome.Executor.rounds)
