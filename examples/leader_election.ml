(* Why leader election is excluded: GRAN and the mock cases.

   The paper restricts attention to problems *genuinely* solvable by
   randomized anonymous algorithms.  Leader election is the canonical
   excluded problem: by Angluin's lifting argument, a Las-Vegas algorithm
   electing a leader on a graph G would also have to elect one on every
   product of G — but a product has several indistinguishable copies of
   each node, so any "leader" view is occupied by m > 1 nodes at once.

   This example makes the argument concrete and executable:

   1. On a non-prime colored graph (the C6 of Figure 1), nodes 0 and 3
      have identical infinite views, so *no* deterministic-from-views
      procedure can separate them — an elected leader view would elect 2.
   2. Any output labeling produced by a derandomized (A∞-style) procedure
      assigns equal labels to same-view nodes; we exhibit this.
   3. On a *prime* instance, views are faithful aliases (Corollary 1) and
      leader election is trivially solvable deterministically — electing
      the node with the smallest view.  Primality is exactly what the
      2-hop coloring cannot guarantee: a coloring can be lifted along any
      product, which is why "elect a leader" stays outside GRAN while
      MIS/coloring/matching are inside.

   Run with:  dune exec examples/leader_election.exe
*)

open Anonet_graph
open Anonet_views

let () =
  print_endline "=== 1. same views, no leader ===============================";
  let c6 = Gen.c6_figure1 () in
  let vg = View_graph.of_graph_exn c6 in
  Printf.printf
    "colored C6: %d nodes but only %d distinct infinite views\n"
    (Graph.n c6) (Graph.n vg.View_graph.graph);
  let classes = vg.View_graph.map in
  Printf.printf "view classes: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int classes)));
  (* nodes 0 and 3 share a class: indistinguishable forever *)
  assert (classes.(0) = classes.(3));
  print_endline
    "nodes 0 and 3 are indistinguishable at every depth — any deterministic\n\
     rule that elects node 0 elects node 3 too: leader election fails.\n";

  print_endline "=== 2. derandomized outputs respect view classes ===========";
  (match Anonet.A_infinity.solve ~gran:Anonet_algorithms.Bundles.coloring
           (Anonet_problems.Problem.attach_coloring (Gen.cycle 6)
              (Array.init 6 (fun v -> Label.Int ((v mod 3) + 1))))
           ()
   with
   | Error m -> failwith m
   | Ok r ->
     Array.iteri
       (fun v o -> Printf.printf "  node %d (class %d) -> %s\n" v classes.(v)
           (Label.to_string o))
       r.Anonet.A_infinity.outputs;
     Array.iteri
       (fun u cu ->
         Array.iteri
           (fun v cv ->
             if cu = cv then
               assert (Label.equal r.Anonet.A_infinity.outputs.(u)
                         r.Anonet.A_infinity.outputs.(v)))
           classes)
       classes;
     print_endline "  (same class ⇒ same output, verified)\n");

  print_endline "=== 3. on prime instances a leader is free =================";
  let prime = Gen.label_with_ints (Gen.petersen ()) in
  assert (Prime.is_prime prime);
  (* smallest depth-n view = unique node: an executable election *)
  let n = Graph.n prime in
  let views = Array.init n (fun v -> Interned.of_graph prime ~root:v ~depth:n) in
  let leader = ref 0 in
  for v = 1 to n - 1 do
    if Interned.compare views.(v) views.(!leader) < 0 then leader := v
  done;
  (* the minimum is unique because views are faithful aliases *)
  Array.iteri
    (fun v view ->
      if v <> !leader then assert (not (Interned.equal view views.(!leader))))
    views;
  Printf.printf
    "uniquely-labeled Petersen graph is prime: node %d has the smallest\n\
     depth-n view and wins a deterministic election.\n" !leader;
  print_endline
    "\nThe catch: no anonymous algorithm can *make* a graph prime — a 2-hop\n\
     coloring always lifts to products (Fact 1), so GRAN rightly excludes\n\
     leader election while containing MIS, coloring, and matching."
