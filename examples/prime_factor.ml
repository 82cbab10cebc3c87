(* Figure 2, reconstructed: factors, products, and prime factors.

   The paper's Figure 2 shows the labeled 12-cycle factoring onto the
   labeled 6-cycle, which factors onto the labeled triangle — and the
   triangle is prime.  This example rebuilds that chain with the library's
   lift machinery, computes the view graphs (= unique prime factors,
   Lemma 3), verifies each factorizing map, checks Norris' depth bound
   (Theorem 3) along the way, and emits a Graphviz rendering.

   Run with:  dune exec examples/prime_factor.exe
*)

open Anonet_graph
open Anonet_views

let describe name g =
  let vg = View_graph.of_graph_exn g in
  let prime = Graph.n vg.View_graph.graph = Graph.n g in
  Printf.printf "%-14s %2d nodes | prime factor: %d nodes | prime: %-5b | %s\n"
    name (Graph.n g)
    (Graph.n vg.View_graph.graph)
    prime
    (Printf.sprintf "views stabilize at depth %d <= n (Norris)"
       vg.View_graph.stable_view_depth);
  assert (Refinement.norris_bound_holds g);
  vg

let () =
  print_endline "=== the Figure-2 chain: C3 ⪯ C6 ⪯ C12 ===============";
  let c12 = Lift.c12_over_c6 () in
  let c6 = c12.Lift.base in
  let c6_lift = Lift.c6_over_c3 () in
  let c3 = c6_lift.Lift.base in

  (* Verify the explicit factorizing maps f : C12 -> C6 and g : C6 -> C3. *)
  (match Factor.check ~product:c12.Lift.graph ~factor:c6 ~map:c12.Lift.map with
   | Ok () -> print_endline "f : C12 -> C6 is a factorizing map   ✓"
   | Error m -> failwith m);
  (match Factor.check ~product:c6_lift.Lift.graph ~factor:c3 ~map:c6_lift.Lift.map with
   | Ok () -> print_endline "g : C6  -> C3 is a factorizing map   ✓"
   | Error m -> failwith m);
  Printf.printf "multiplicities: |C12| = %d x |C6|, |C6| = %d x |C3|\n\n"
    (Option.get (Factor.multiplicity ~product:c12.Lift.graph ~factor:c6))
    (Option.get (Factor.multiplicity ~product:c6_lift.Lift.graph ~factor:c3));

  let vg12 = describe "C12 (colored)" c12.Lift.graph in
  let vg6 = describe "C6 (colored)" c6 in
  let vg3 = describe "C3 (colored)" c3 in

  (* Lemma 3: all three share the same unique prime factor — the triangle. *)
  assert (Iso.equal vg12.View_graph.graph vg6.View_graph.graph);
  assert (Iso.equal vg6.View_graph.graph vg3.View_graph.graph);
  print_endline "\nall three have the *same* prime factor (Lemma 3)     ✓";

  (* Lemma 4 / Corollary 1: in the prime C3, views are faithful aliases. *)
  assert (Prime.aliases_faithful c3);
  print_endline "depth-n views are faithful aliases in the prime C3   ✓";

  (* Contrast: the paper notes the *uncolored* C12 has two distinct prime
     factors (C3 and C4) — uniqueness needs the 2-hop coloring. *)
  let uc12 = Gen.cycle 12 and uc3 = Gen.cycle 3 and uc4 = Gen.cycle 4 in
  let map3 = Array.init 12 (fun v -> v mod 3) in
  let map4 = Array.init 12 (fun v -> v mod 4) in
  assert (Factor.is_factorizing ~product:uc12 ~factor:uc3 ~map:map3);
  assert (Factor.is_factorizing ~product:uc12 ~factor:uc4 ~map:map4);
  print_endline
    "but the *uncolored* C12 factors onto both C3 and C4: without a 2-hop";
  print_endline "coloring the prime factor is not unique (Section 2.3.1) ✓";

  (* Dump a Graphviz rendering of the C12 -> C6 factorization. *)
  let dot =
    Dot.of_factorization ~name:"figure2" ~product:c12.Lift.graph ~factor:c6
      ~map:c12.Lift.map ()
  in
  let path = Filename.temp_file "figure2" ".dot" in
  Out_channel.with_open_text path (fun oc -> output_string oc dot);
  Printf.printf "\nGraphviz rendering of the C12 -> C6 factorization: %s\n" path
