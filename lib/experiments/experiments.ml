(* The experiment harness: one executable experiment per figure/theorem
   of the paper, as indexed in DESIGN.md and recorded in EXPERIMENTS.md.
   Each experiment computes a structured [output] (typed rows + the
   historical text rendering) and asserts its invariants; printing lives
   in [render].  Shared by bench/main.exe and the `anonet experiments`
   CLI command. *)

open Anonet_graph
open Anonet_views
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Catalog = Anonet_problems.Catalog
module Executor = Anonet_runtime.Executor
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx
module Bundles = Anonet_algorithms.Bundles
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events
open Anonet

module Pool = Anonet_parallel.Pool

type row = {
  experiment : string;
  label : string;
  fields : (string * Events.value) list;
  line : string;
}

type output = {
  id : string;
  title : string;
  prelude : string;
  rows : row list;
  coda : string;
}

let row ~experiment ~label ?(fields = []) line = { experiment; label; fields; line }

let banner title =
  Printf.sprintf "\n=== %s %s\n" title (String.make (max 0 (72 - String.length title)) '=')

(* Row fan-out: graph-family rows are independent, so [domains] domains
   can compute them concurrently — each task returns its finished row(s)
   (asserts included), and the rows merge in input order regardless of
   completion order, keeping the output identical to a sequential run.
   Each task interns into an arena of its own (a row's views never leave
   it), whichever domain runs it. *)
let fan_out ~domains (tasks : (unit -> 'a) list) : 'a list =
  Array.to_list
    (Pool.map ~domains Anonet_views.Interned.with_arena (Array.of_list tasks))

let colored_instance g colors = Problem.attach_coloring g colors

let c6_instance () =
  colored_instance (Gen.cycle 6) (Array.init 6 (fun v -> Label.Int ((v mod 3) + 1)))

let prime_instance g = colored_instance g (Array.init (Graph.n g) (fun v -> Label.Int v))

let cycle_mod_colors n k =
  colored_instance (Gen.cycle n) (Array.init n (fun v -> Label.Int (v mod k)))

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — local views                                          *)
(* ------------------------------------------------------------------ *)

let exp_f1 ~ctx:_ ~domains:_ () =
  let title = "F1  Figure 1: depth-d local views of the labeled C6" in
  let g = Gen.c6_figure1 () in
  let prelude =
    banner title
    ^ Printf.sprintf "the figure itself — L_3(u0) in C6 colored (1,2,3,1,2,3):\n%s\n"
        (View.to_string (View.of_graph g ~root:0 ~depth:3))
    ^ Printf.sprintf "%5s | %12s | %17s\n" "depth" "tree size" "distinct subtrees"
  in
  let rows =
    List.map
      (fun d ->
        let v = View.of_graph g ~root:0 ~depth:d in
        let k = Anonet_views.Interned.of_graph g ~root:0 ~depth:d in
        let size = View.size v in
        let distinct = List.length (Anonet_views.Interned.subtrees k) in
        row ~experiment:"f1"
          ~label:(Printf.sprintf "depth-%d" d)
          ~fields:
            [ "depth", Events.Int d;
              "tree_size", Events.Int size;
              "distinct_subtrees", Events.Int distinct;
            ]
          (Printf.sprintf "%5d | %12d | %17d\n" d size distinct))
      [ 1; 2; 3; 4; 6; 8; 10; 12 ]
  in
  { id = "f1"; title; prelude; rows;
    coda =
      "shape: tree size grows as 2^d (views unfold exponentially); distinct\n\
       subtrees stay <= 3 per level (the 3 view classes of C6).\n";
  }

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 — factor chain                                         *)
(* ------------------------------------------------------------------ *)

let exp_f2 ~ctx:_ ~domains:_ () =
  let title = "F2  Figure 2: the C3 <= C6 <= C12 factor chain and beyond" in
  let c12 = Lift.c12_over_c6 () in
  let c6l = Lift.c6_over_c3 () in
  assert (Factor.is_factorizing ~product:c12.Lift.graph ~factor:c12.Lift.base
            ~map:c12.Lift.map);
  assert (Factor.is_factorizing ~product:c6l.Lift.graph ~factor:c6l.Lift.base
            ~map:c6l.Lift.map);
  let prelude =
    banner title
    ^ Printf.sprintf "%-18s | %3s | %5s | %6s | %s\n" "graph" "n" "|V*|" "prime?"
        "prime factor iso to C3?"
  in
  let c3 = c6l.Lift.base in
  let show name g =
    let vg = View_graph.of_graph_exn g in
    let vstar = Graph.n vg.View_graph.graph in
    let prime = vstar = Graph.n g in
    let iso = Iso.equal vg.View_graph.graph c3 in
    row ~experiment:"f2" ~label:name
      ~fields:
        [ "n", Events.Int (Graph.n g);
          "prime_factor_nodes", Events.Int vstar;
          "prime", Events.Bool prime;
          "prime_iso_c3", Events.Bool iso;
        ]
      (Printf.sprintf "%-18s | %3d | %5d | %6b | %b\n" name (Graph.n g) vstar
         prime iso)
  in
  (* generalization: iterated random 2-lifts of C3 *)
  let rec tower g k =
    if k = 0 then []
    else begin
      let l = Lift.random ~seed:(100 + k) g ~k:2 in
      l.Lift.graph :: tower l.Lift.graph (k - 1)
    end
  in
  let rows =
    [ show "C3 (colored)" c3;
      show "C6 (colored)" c6l.Lift.graph;
      show "C12 (colored)" c12.Lift.graph;
    ]
    @ List.mapi
        (fun i g -> show (Printf.sprintf "2^%d-lift of C3" (i + 1)) g)
        (tower c3 3)
  in
  { id = "f2"; title; prelude; rows;
    coda =
      "shape: every product in the tower keeps the same 3-node prime factor\n\
       (Lemma 3: the prime factor of a 2-hop colored graph is unique).\n";
  }

(* ------------------------------------------------------------------ *)
(* F3: Figure 3 / Theorem 1 — A*                                       *)
(* ------------------------------------------------------------------ *)

let exp_f3 ~ctx:_ ~domains () =
  let title = "F3  Figure 3 / Theorem 1: the deterministic algorithm A*" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-14s | %-14s | %6s | %8s | %6s\n" "instance" "problem"
        "rounds" "messages" "valid?"
  in
  let run name inst bundle () =
    let pname = bundle.Gran.problem.Problem.name in
    let label = Printf.sprintf "%s/%s" name pname in
    match A_star.solve ~gran:bundle inst () with
    | Error m ->
      row ~experiment:"f3" ~label
        ~fields:[ "error", Events.String m ]
        (Printf.sprintf "%-14s | %-14s | failed: %s\n" name pname m)
    | Ok outcome ->
      let valid =
        bundle.Gran.problem.Problem.is_valid_output
          (Problem.strip_coloring inst) outcome.Executor.outputs
      in
      row ~experiment:"f3" ~label
        ~fields:
          [ "rounds", Events.Int outcome.Executor.rounds;
            "messages", Events.Int outcome.Executor.messages;
            "valid", Events.Bool valid;
          ]
        (Printf.sprintf "%-14s | %-14s | %6d | %8d | %6b\n" name pname
           outcome.Executor.rounds outcome.Executor.messages valid)
  in
  let rows =
    fan_out ~domains
      (List.concat_map
         (fun (name, inst) ->
           [ run name inst Bundles.mis; run name inst Bundles.coloring ])
         [ "c3-prime", prime_instance (Gen.cycle 3);
           "p3-prime", prime_instance (Gen.path 3);
           "star3-prime", prime_instance (Gen.star 3);
           "c6/3colors", c6_instance ();
           "c12/3colors", cycle_mod_colors 12 3;
         ]
      @ [ run "c6/3colors" (c6_instance ()) Bundles.two_hop_coloring ])
  in
  { id = "f3"; title; prelude; rows;
    coda =
      "shape: round counts track the phase where the first successful\n\
       simulation exists (the paper's z+1), not |V| — c6 and c12 with the\n\
       same 3-color view graph behave alike.\n";
  }

(* ------------------------------------------------------------------ *)
(* T2: Theorem 2 — A∞, cost tracks |V*| not |V|                        *)
(* ------------------------------------------------------------------ *)

let exp_t2 ~ctx:_ ~domains () =
  let title = "T2  Theorem 2: A_infinity — cost tracks |V*|, not |V|" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-16s | %4s | %5s | %10s | %9s | %6s\n" "instance" "|V|"
        "|V*|" "sim length" "search st" "valid?"
  in
  let run name inst () =
    match A_infinity.solve ~gran:Bundles.mis inst () with
    | Error m ->
      row ~experiment:"t2" ~label:name
        ~fields:[ "error", Events.String m ]
        (Printf.sprintf "%-16s | failed: %s\n" name m)
    | Ok r ->
      let valid =
        Catalog.mis.Problem.is_valid_output (Problem.strip_coloring inst)
          r.A_infinity.outputs
      in
      let vstar = Graph.n r.A_infinity.view_graph.View_graph.graph in
      let sim_len =
        Bit_assignment.max_length r.A_infinity.found.Min_search.assignment
      in
      let states = r.A_infinity.found.Min_search.states_explored in
      row ~experiment:"t2" ~label:name
        ~fields:
          [ "n", Events.Int (Graph.n inst);
            "vstar", Events.Int vstar;
            "sim_length", Events.Int sim_len;
            "states_explored", Events.Int states;
            "valid", Events.Bool valid;
          ]
        (Printf.sprintf "%-16s | %4d | %5d | %10d | %9d | %6b\n" name
           (Graph.n inst) vstar sim_len states valid)
  in
  let rows =
    fan_out ~domains
      [ run "c6/3colors" (c6_instance ());
        run "c12/3colors" (cycle_mod_colors 12 3);
        run "c24/3colors" (cycle_mod_colors 24 3);
        run "c48/3colors" (cycle_mod_colors 48 3);
        run "c8/4colors" (cycle_mod_colors 8 4);
        run "c16/4colors" (cycle_mod_colors 16 4);
        run "c3-prime" (prime_instance (Gen.cycle 3));
        run "k4-prime" (prime_instance (Gen.complete 4));
        run "p5-prime" (prime_instance (Gen.path 5));
      ]
  in
  { id = "t2"; title; prelude; rows;
    coda =
      "shape: growing |V| at fixed |V*| leaves the search cost flat (all\n\
       3-color rows explore identical state counts); growing |V*| increases\n\
       it (see A1 for the exponential).\n";
  }

(* ------------------------------------------------------------------ *)
(* T3: Theorem 3 — Norris                                              *)
(* ------------------------------------------------------------------ *)

let exp_t3 ~ctx:_ ~domains () =
  let title = "T3  Theorem 3 (Norris): view stabilization depth <= n" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-20s | %4s | %12s | %8s\n" "family" "n" "stable depth"
        "depth<=n"
  in
  let show name g () =
    let d = Norris.stable_view_depth g in
    let within = d <= max 1 (Graph.n g) in
    row ~experiment:"t3" ~label:name
      ~fields:
        [ "n", Events.Int (Graph.n g);
          "stable_depth", Events.Int d;
          "within_bound", Events.Bool within;
        ]
      (Printf.sprintf "%-20s | %4d | %12d | %8b\n" name (Graph.n g) d within)
  in
  let rows =
    fan_out ~domains
      (List.map (fun n -> show (Printf.sprintf "path-%d" n) (Gen.path n))
         [ 3; 5; 9; 17; 33 ]
      @ List.map
          (fun n -> show (Printf.sprintf "cycle-%d (uncolored)" n) (Gen.cycle n))
          [ 6; 12; 24 ]
      @ List.map
          (fun k ->
            show
              (Printf.sprintf "c24/%d colors" k)
              (Graph.relabel (Gen.cycle 24) (fun v -> Label.Int (v mod k))))
          [ 3; 4; 6; 8 ]
      @ List.map
          (fun seed ->
            show (Printf.sprintf "G(12,.25) seed %d" seed)
              (Gen.random_connected ~seed 12 0.25))
          [ 1; 2; 3 ]
      @ [ show "grid 4x4" (Gen.grid 4 4);
          show "petersen" (Gen.petersen ());
          show "hypercube-4" (Gen.hypercube 4);
        ])
  in
  { id = "t3"; title; prelude; rows;
    coda =
      "shape: stabilization is far below the worst-case n on most graphs\n\
       (paths are the extremal family: depth ~ n/2), matching Norris' bound.\n";
  }

(* ------------------------------------------------------------------ *)
(* L: Lemmas 2-4 — factors and prime factors                           *)
(* ------------------------------------------------------------------ *)

let exp_lemmas ~ctx:_ ~domains () =
  let title = "L   Lemmas 2-4: view graphs are factors; prime factor unique" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-22s | %2s | %6s | %10s | %12s | %7s\n"
        "base (prime-labeled)" "k" "|lift|" "factor ok?" "same prime?" "lift ok?"
  in
  let rows =
    fan_out ~domains
      (List.map
         (fun (name, base, k, seed) () ->
           let l = Lift.random ~seed base ~k in
           let vg_b = View_graph.of_graph_exn base in
           let vg_l = View_graph.of_graph_exn l.Lift.graph in
           let factor_ok =
             Factor.is_factorizing ~product:l.Lift.graph
               ~factor:vg_l.View_graph.graph ~map:vg_l.View_graph.map
           in
           let same_prime = Iso.equal vg_b.View_graph.graph vg_l.View_graph.graph in
           let bits =
             Array.init (Graph.n base) (fun v -> Bits.of_int ~width:8 (v * 37 mod 256))
           in
           let lifted =
             Lifting.run ~solver:Anonet_algorithms.Rand_mis.algorithm
               ~product:l.Lift.graph ~factor:base ~map:l.Lift.map ~bits
           in
           row ~experiment:"lemmas"
             ~label:(Printf.sprintf "%s/k%d" name k)
             ~fields:
               [ "k", Events.Int k;
                 "lift_nodes", Events.Int (Graph.n l.Lift.graph);
                 "factor_ok", Events.Bool factor_ok;
                 "same_prime", Events.Bool same_prime;
                 "lift_ok", Events.Bool lifted.Lifting.agree;
               ]
             (Printf.sprintf "%-22s | %2d | %6d | %10b | %12b | %7b\n" name k
                (Graph.n l.Lift.graph) factor_ok same_prime lifted.Lifting.agree))
      [ "cycle-5", Gen.label_with_ints (Gen.cycle 5), 2, 11;
        "cycle-5", Gen.label_with_ints (Gen.cycle 5), 4, 12;
        "petersen", Gen.label_with_ints (Gen.petersen ()), 2, 13;
        "wheel-5", Gen.label_with_ints (Gen.wheel 5), 3, 14;
        "K4", Gen.label_with_ints (Gen.complete 4), 3, 15;
        "ham(6,.4)", Gen.label_with_ints (Gen.random_hamiltonian ~seed:9 6 0.4), 2, 16;
      ])
  in
  { id = "lemmas"; title; prelude; rows;
    coda =
      "columns: the view-graph map is a factorizing map (Lemma 2); lift and\n\
       base share one prime factor (Lemma 3); executions lift (lifting lemma).\n";
  }

(* ------------------------------------------------------------------ *)
(* A1: ablation — search cost vs |V*|                                  *)
(* ------------------------------------------------------------------ *)

let exp_a1 ~ctx ~domains:_ () =
  let title = "A1  ablation: minimal-simulation search cost vs |V*|" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-16s | %5s | %10s | %10s | %9s\n" "solver" "|V*|"
        "sim length" "search st" "time (s)"
  in
  (* Rows stay sequential — they report wall-clock time, which fanning
     them out would distort. *)
  let search solver name g =
    let t0 = Unix.gettimeofday () in
    let label = Printf.sprintf "%s/%d" name (Graph.n g) in
    match
      Min_search.minimal_successful ~ctx ~solver g
        ~base:(Bit_assignment.empty (Graph.n g)) ~max_len:24 ()
    with
    | None ->
      row ~experiment:"a1" ~label
        ~fields:
          [ "solver", Events.String name;
            "vstar", Events.Int (Graph.n g);
            "found", Events.Bool false;
          ]
        (Printf.sprintf "%-16s | %5d |      none within 24 rounds\n" name
           (Graph.n g))
    | Some f ->
      let dt = Unix.gettimeofday () -. t0 in
      let sim_len = Bit_assignment.max_length f.Min_search.assignment in
      row ~experiment:"a1" ~label
        ~fields:
          [ "solver", Events.String name;
            "vstar", Events.Int (Graph.n g);
            "sim_length", Events.Int sim_len;
            "states_explored", Events.Int f.Min_search.states_explored;
            "time_s", Events.Float dt;
          ]
        (Printf.sprintf "%-16s | %5d | %10d | %10d | %9.3f\n" name (Graph.n g)
           sim_len f.Min_search.states_explored dt)
  in
  let instance k = Gen.label_with_ints (if k = 2 then Gen.path 2 else Gen.cycle k) in
  let rows =
    List.map
      (fun k -> search Anonet_algorithms.Rand_mis.algorithm "mis" (instance k))
      [ 2; 3; 4; 5; 6 ]
    @ List.map
        (fun k ->
          search Anonet_algorithms.Rand_coloring.algorithm "coloring" (instance k))
        [ 2; 3; 4; 5; 6 ]
    @ List.map
        (fun k ->
          search Anonet_algorithms.Rand_two_hop.algorithm "2-hop-coloring"
            (instance k))
        [ 2; 3; 4 ]
  in
  { id = "a1"; title; prelude; rows;
    coda =
      "shape: exponential growth in |V*| — the inherent price of the generic\n\
       construction (the paper disregards complexity; Theorem 1 is about\n\
       computability).  Deeper solvers (2-hop coloring) pay more per node.\n";
  }

(* ------------------------------------------------------------------ *)
(* A2: ablation — coloring granularity                                 *)
(* ------------------------------------------------------------------ *)

let exp_a2 ~ctx ~domains:_ () =
  let title = "A2  ablation: coloring granularity vs view graph size vs cost" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-18s | %5s | %10s | %9s\n" "instance" "|V*|" "search st"
        "time (s)"
  in
  let rows =
    List.map
      (fun k ->
        let inst = cycle_mod_colors 12 k in
        let label = Printf.sprintf "c12/%dcolors" k in
        let t0 = Unix.gettimeofday () in
        match A_infinity.solve ~ctx ~gran:Bundles.mis inst ~max_len:24 () with
        | Error m ->
          row ~experiment:"a2" ~label
            ~fields:[ "error", Events.String m ]
            (Printf.sprintf "c12/%-2d colors     | failed: %s\n" k m)
        | Ok r ->
          let dt = Unix.gettimeofday () -. t0 in
          let vstar = Graph.n r.A_infinity.view_graph.View_graph.graph in
          let states = r.A_infinity.found.Min_search.states_explored in
          row ~experiment:"a2" ~label
            ~fields:
              [ "colors", Events.Int k;
                "vstar", Events.Int vstar;
                "states_explored", Events.Int states;
                "time_s", Events.Float dt;
              ]
            (Printf.sprintf "c12/%-2d colors     | %5d | %10d | %9.3f\n" k vstar
               states dt))
      [ 3; 4; 6 ]
  in
  { id = "a2"; title; prelude; rows;
    coda =
      "shape: a coarser 2-hop coloring gives a smaller view graph and an\n\
       exponentially cheaper derandomization — fewer colors are better for\n\
       the generic stage (the paper: the number of colors is immaterial).\n";
  }

(* ------------------------------------------------------------------ *)
(* A3: ablation — decoupled vs direct                                  *)
(* ------------------------------------------------------------------ *)

let exp_a3 ~ctx:_ ~domains () =
  let title = "A3  ablation: decoupled pipeline vs direct randomized algorithm" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-12s | %-10s | %13s | %21s\n" "network" "problem"
        "direct rounds" "decoupled (s1 + s2)"
  in
  let families =
    [ "cycle-6", Gen.cycle 6;
      "path-7", Gen.path 7;
      "petersen", Gen.petersen ();
      "grid-3x3", Gen.grid 3 3;
      "random-10", Gen.random_connected ~seed:4 10 0.3;
    ]
  in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let avg f = List.fold_left (fun a x -> a +. f x) 0.0 seeds /. float_of_int (List.length seeds) in
  let make_row (name, g) (pname, bundle, specific) () =
    let direct =
      avg (fun seed ->
          match Las_vegas.solve bundle.Gran.solver g ~seed () with
          | Ok r -> float_of_int r.Las_vegas.outcome.Executor.rounds
          | Error f -> failwith f.Las_vegas.message)
    in
    let s1 = ref 0.0 and s2 = ref 0.0 in
    List.iter
      (fun seed ->
        match
          Decouple.solve ~gran:bundle g ~seed
            ~stage_two:(Decouple.Specific specific) ()
        with
        | Error m -> failwith m
        | Ok r ->
          assert (
            bundle.Gran.problem.Problem.is_valid_output g r.Decouple.outputs);
          s1 := !s1 +. float_of_int r.Decouple.coloring_rounds;
          s2 := !s2 +. float_of_int r.Decouple.stage_two_rounds)
      seeds;
    let k = float_of_int (List.length seeds) in
    row ~experiment:"a3"
      ~label:(Printf.sprintf "%s/%s" name pname)
      ~fields:
        [ "direct_rounds", Events.Float direct;
          "stage1_rounds", Events.Float (!s1 /. k);
          "stage2_rounds", Events.Float (!s2 /. k);
        ]
      (Printf.sprintf "%-12s | %-10s | %13.1f | %9.1f + %-9.1f\n" name pname
         direct (!s1 /. k) (!s2 /. k))
  in
  let rows =
    fan_out ~domains
      (List.concat_map
         (fun family ->
           List.map (make_row family)
             [ "mis", Bundles.mis, Anonet_algorithms.Det_from_two_hop.mis;
               "coloring", Bundles.coloring,
               Anonet_algorithms.Det_from_two_hop.coloring;
               "matching", Bundles.maximal_matching,
               Anonet_algorithms.Det_from_two_hop.matching;
             ])
         families)
  in
  { id = "a3"; title; prelude; rows;
    coda =
      "shape: the decoupled pipeline pays a constant-factor overhead — the\n\
       2-hop coloring stage dominates; the problem-specific deterministic\n\
       stage costs about as much as the direct randomized algorithm.\n";
  }

(* ------------------------------------------------------------------ *)
(* A4: ablation — 2-hop palette reduction                              *)
(* ------------------------------------------------------------------ *)

let exp_a4 ~ctx:_ ~domains () =
  let title = "A4  ablation: Las-Vegas palette vs greedy 2-hop recoloring" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-12s | %3s | %9s | %14s | %14s\n" "network" "maxdeg"
        "bound" "LV colors" "reduced colors"
  in
  let distinct outputs =
    Array.to_list outputs |> List.sort_uniq Label.compare |> List.length
  in
  let rows =
    fan_out ~domains
      (List.map
         (fun (name, g) () ->
           let lv =
             match
               Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm g ~seed:47 ()
             with
             | Ok r -> r.Las_vegas.outcome.Executor.outputs
             | Error f -> failwith f.Las_vegas.message
           in
           let reduced =
             match
               Decouple.solve ~gran:Bundles.two_hop_coloring g ~seed:47
                 ~stage_two:
                   (Decouple.Specific
                      Anonet_algorithms.Det_from_two_hop.two_hop_recoloring)
                 ()
             with
             | Ok r -> r.Decouple.outputs
             | Error m -> failwith m
           in
           assert (Props.is_k_hop_coloring g 2 (fun v -> reduced.(v)));
           let dmax = Graph.max_degree g in
           row ~experiment:"a4" ~label:name
             ~fields:
               [ "maxdeg", Events.Int dmax;
                 "bound", Events.Int ((dmax * dmax) + 1);
                 "lv_colors", Events.Int (distinct lv);
                 "reduced_colors", Events.Int (distinct reduced);
               ]
             (Printf.sprintf "%-12s | %6d | %9d | %14d | %14d\n" name dmax
                ((dmax * dmax) + 1) (distinct lv) (distinct reduced)))
      [ "cycle-12", Gen.cycle 12;
        "path-12", Gen.path 12;
        "petersen", Gen.petersen ();
        "grid-4x4", Gen.grid 4 4;
        "star-8", Gen.star 8;
        "random-14", Gen.random_connected ~seed:10 14 0.25;
      ])
  in
  { id = "a4"; title; prelude; rows;
    coda =
      "shape: the Las-Vegas stage hands out one bitstring color per view\n\
       class (often ~n of them); greedy reduction brings the palette within\n\
       the maxdeg^2+1 bound (minimizing further is NP-complete, McCormick [35]).\n";
  }

(* ------------------------------------------------------------------ *)
(* E1: extension — the stone-age model (Section 1.3)                   *)
(* ------------------------------------------------------------------ *)

let exp_e1 ~ctx:_ ~domains () =
  let title = "E1  extension: 2-hop coloring in the stone-age FSM model" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-12s | %6s | %7s | %12s | %12s | %6s\n" "network"
        "maxdeg" "palette" "mis rounds" "2hop rounds" "valid?"
  in
  let rows =
    fan_out ~domains
      (List.map
         (fun (name, g) () ->
           let d = Graph.max_degree g in
           let palette = (d * d) + 1 in
           let module E = Anonet_stoneage.Engine in
           let mis_rounds =
             match E.run Anonet_stoneage.Mis.machine g ~seed:3 ~max_rounds:100_000 with
             | Ok o ->
               assert (
                 Anonet_problems.Catalog.mis.Problem.is_valid_output g o.E.outputs);
               o.E.rounds
             | Error e -> failwith (Format.asprintf "%a" E.pp_failure e)
           in
           let two_hop =
             match
               E.run (Anonet_stoneage.Two_hop.make ~palette) g ~seed:4
                 ~max_rounds:1_000_000
             with
             | Ok o -> o
             | Error e -> failwith (Format.asprintf "%a" E.pp_failure e)
           in
           let valid =
             Anonet_problems.Catalog.two_hop_coloring.Problem.is_valid_output g
               two_hop.E.outputs
           in
           assert valid;
           row ~experiment:"e1" ~label:name
             ~fields:
               [ "maxdeg", Events.Int d;
                 "palette", Events.Int palette;
                 "mis_rounds", Events.Int mis_rounds;
                 "two_hop_rounds", Events.Int two_hop.E.rounds;
                 "valid", Events.Bool valid;
               ]
             (Printf.sprintf "%-12s | %6d | %7d | %12d | %12d | %6b\n" name d
                palette mis_rounds two_hop.E.rounds valid))
      [ "cycle-8", Gen.cycle 8;
        "path-9", Gen.path 9;
        "petersen", Gen.petersen ();
        "grid-3x3", Gen.grid 3 3;
        "star-6", Gen.star 6;
        "random-10", Gen.random_connected ~seed:6 10 0.3;
      ])
  in
  { id = "e1"; title; prelude; rows;
    coda =
      "shape: even anonymous finite state machines with one-two-many\n\
       counting compute 2-hop colorings (the paper's Section 1.3 claim);\n\
       round counts scale with the palette (the flag relay is\n\
       time-multiplexed over it).\n";
  }

(* ------------------------------------------------------------------ *)
(* E2: extension — asynchronous execution (α-synchronizer)             *)
(* ------------------------------------------------------------------ *)

let exp_e2 ~ctx:_ ~domains () =
  let title = "E2  extension: the α-synchronizer on adversarial schedules" in
  let prelude =
    banner title
    ^ Printf.sprintf "%-22s | %8s | %15s | %s\n" "scheduler" "events"
        "virtual rounds" "outputs = sync?"
  in
  let module Async = Anonet_runtime.Async in
  let g = Gen.petersen () in
  let tape = Anonet_runtime.Tape.random ~seed:2024 in
  let algo = Anonet_algorithms.Rand_two_hop.algorithm in
  let sync =
    match Anonet_runtime.Executor.run algo g ~tape ~max_rounds:2000 with
    | Ok o -> o
    | Error e -> failwith (Format.asprintf "%a" Anonet_runtime.Executor.pp_failure e)
  in
  let rows =
    fan_out ~domains
      (List.map
         (fun (name, scheduler) () ->
           match Async.run algo g ~tape ~scheduler ~max_events:2_000_000 with
           | Error e -> failwith (Format.asprintf "%a" Async.pp_failure e)
           | Ok { Async.outputs; events; virtual_rounds } ->
             let same =
               Array.for_all2 Label.equal outputs sync.Anonet_runtime.Executor.outputs
             in
             assert same;
             row ~experiment:"e2" ~label:name
               ~fields:
                 [ "events", Events.Int events;
                   "virtual_rounds", Events.Int virtual_rounds;
                   "matches_sync", Events.Bool same;
                 ]
               (Printf.sprintf "%-22s | %8d | %15d | %b\n" name events
                  virtual_rounds same))
         [ "fifo", Async.Fifo;
           "random<=5", Async.Random_delay { seed = 3; max_delay = 5 };
           "random<=20", Async.Random_delay { seed = 4; max_delay = 20 };
           "starve node 0 (x12)", Async.Skewed { seed = 5; max_delay = 12; slow_node = 0 };
         ])
  in
  { id = "e2"; title; prelude; rows;
    coda =
      "shape: the synchronizer reproduces the synchronous outputs exactly\n\
       under every adversarial schedule — all results transfer to\n\
       asynchronous networks.\n";
  }

(* ------------------------------------------------------------------ *)
(* R1: robustness — retransmission under seeded message loss           *)
(* ------------------------------------------------------------------ *)

let exp_r1 ~ctx:_ ~domains () =
  let title = "R1  robustness: retransmission wrapper under seeded message loss" in
  let module Faults = Anonet_runtime.Faults in
  let module Retransmit = Anonet_runtime.Retransmit in
  let trials = 20 in
  let losses = [ 0.0; 0.1; 0.2; 0.3 ] in
  let petersen = Gen.petersen () in
  let leader_instance = Graph.relabel petersen (fun _ -> Label.Int 10) in
  let cases =
    [ "2hop/petersen", petersen, Anonet_algorithms.Rand_two_hop.algorithm,
      Catalog.two_hop_coloring;
      "mis/petersen", petersen, Anonet_algorithms.Rand_mis.algorithm, Catalog.mis;
      "leader/petersen", leader_instance,
      Anonet_algorithms.Monte_carlo_leader.make ~id_bits:24,
      Anonet_algorithms.Monte_carlo_leader.problem;
    ]
  in
  let prelude =
    banner title
    ^ Printf.sprintf "%-16s | %4s | %7s | %11s | %9s\n" "algorithm" "loss"
        "success" "mean rounds" "inflation"
  in
  (* One task per algorithm case, returning its whole four-row block; the
     per-loss loop stays sequential inside the task because the inflation
     column divides by the loss-0 mean. *)
  let rows =
    List.concat
      (fan_out ~domains
         (List.map
            (fun (name, g, algo, problem) () ->
              let wrapped = Retransmit.wrap algo in
              let base_mean = ref 0.0 in
              List.map
                (fun loss ->
                  let successes = ref 0 and rounds_sum = ref 0 in
                  for t = 1 to trials do
                    let tape = Anonet_runtime.Tape.random ~seed:(Prng.hash2 9000 t) in
                    let run_ctx =
                      Run_ctx.make
                        ~faults:(Faults.with_loss loss ~seed:(Prng.hash2 9100 t)) ()
                    in
                    match
                      Executor.run ~ctx:run_ctx wrapped g ~tape
                        ~max_rounds:(64 * (Graph.n g + 4))
                    with
                    | Ok o when problem.Problem.is_valid_output g o.Executor.outputs ->
                      incr successes;
                      rounds_sum := !rounds_sum + o.Executor.rounds
                    | Ok _ | Error _ -> ()
                  done;
                  (* The wrapper is transparent on a loss-free network: every
                     trial must succeed at loss 0 (the Monte-Carlo leader's tie
                     probability is ~n²/2²⁴, invisible at 20 fixed seeds). *)
                  assert (loss > 0.0 || !successes = trials);
                  let mean =
                    if !successes = 0 then nan
                    else float_of_int !rounds_sum /. float_of_int !successes
                  in
                  if loss = 0.0 then base_mean := mean;
                  row ~experiment:"r1"
                    ~label:(Printf.sprintf "%s/loss%.2f" name loss)
                    ~fields:
                      [ "loss", Events.Float loss;
                        "successes", Events.Int !successes;
                        "trials", Events.Int trials;
                        "mean_rounds", Events.Float mean;
                        "inflation", Events.Float (mean /. !base_mean);
                      ]
                    (Printf.sprintf "%-16s | %4.2f | %4d/%2d | %11.1f | %8.2fx\n"
                       name loss !successes trials mean (mean /. !base_mean)))
                losses)
            cases))
  in
  { id = "r1"; title; prelude; rows;
    coda =
      "shape: the retransmission wrapper keeps the success rate at (or near)\n\
       100% across loss rates — each lost message only delays its inner\n\
       round — at the price of round inflation growing with the loss rate.\n\
       Unwrapped algorithms lose messages for good: the synchronous port\n\
       semantics silently feeds the receiver a null (see the fault-model\n\
       section of DESIGN.md), and the α-synchronizer outright deadlocks.\n";
  }

(* ------------------------------------------------------------------ *)
(* R2: robustness — degradation curves under an adaptive adversary     *)
(* ------------------------------------------------------------------ *)

let exp_r2 ~ctx:_ ~domains () =
  let title = "R2  robustness: degradation curves under an adaptive adversary" in
  let module Adversary = Anonet_runtime.Adversary in
  let trials = 8 in
  let strengths = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let prelude =
    banner title
    ^ Printf.sprintf "%-14s | %8s | %7s | %11s\n" "algorithm" "strength"
        "success" "mean rounds"
  in
  (* An eavesdropper biasing its corruption budget toward the
     highest-entropy links, at tamper probability [strength]; each trial
     reseeds the adversary so the curves average over target schedules. *)
  let adversary ~strength ~trial =
    Adversary.eavesdropper 3 ~strength ~seed:(Prng.hash2 9300 trial)
  in
  (* A trial is a thunk returning [Some rounds] on a valid stabilization,
     [None] otherwise.  Tampered payloads may be rejected outright by an
     algorithm's message decoder ([Invalid_argument]) — that is the
     degradation being measured, so it counts as a plain failure. *)
  let c6 = Gen.cycle 6 in
  let las_vegas_case algo problem ~strength trial () =
    let run_ctx = Run_ctx.make ~adversary:(adversary ~strength ~trial) () in
    match
      Las_vegas.solve ~ctx:run_ctx algo c6
        ~seed:(Prng.hash2 9400 trial) ~attempts:4 ~divergence:4.0 ()
    with
    | Ok r when problem.Problem.is_valid_output c6 r.Las_vegas.outcome.Executor.outputs
      -> Some r.Las_vegas.outcome.Executor.rounds
    | Ok _ | Error _ -> None
    | exception Invalid_argument _ -> None
  in
  let a_star_case ~strength trial () =
    let run_ctx = Run_ctx.make ~adversary:(adversary ~strength ~trial) () in
    let inst = c6_instance () in
    match A_star.solve ~ctx:run_ctx ~gran:Bundles.mis inst () with
    | Ok o
      when Bundles.mis.Gran.problem.Problem.is_valid_output
             (Problem.strip_coloring inst) o.Executor.outputs ->
      Some o.Executor.rounds
    | Ok _ | Error _ -> None
    | exception Invalid_argument _ -> None
  in
  let cases =
    [ "2hop/c6",
      (fun ~strength trial ->
        las_vegas_case Anonet_algorithms.Rand_two_hop.algorithm
          Catalog.two_hop_coloring ~strength trial);
      "mis/c6",
      (fun ~strength trial ->
        las_vegas_case Anonet_algorithms.Rand_mis.algorithm Catalog.mis
          ~strength trial);
      "a-star/c6", (fun ~strength trial -> a_star_case ~strength trial);
    ]
  in
  (* One task per (algorithm, strength) point: the points are independent,
     so the whole grid fans out across the domains. *)
  let rows =
    fan_out ~domains
      (List.concat_map
         (fun (name, case) ->
           List.map
             (fun strength () ->
               let outcomes =
                 List.init trials (fun t -> case ~strength (t + 1) ())
               in
               let successes = List.length (List.filter Option.is_some outcomes) in
               (* A strength-0 adversary never tampers: the curves must
                  start from a clean 100% baseline. *)
               assert (strength > 0.0 || successes = trials);
               let mean =
                 if successes = 0 then nan
                 else
                   float_of_int
                     (List.fold_left
                        (fun acc o -> acc + Option.value ~default:0 o)
                        0 outcomes)
                   /. float_of_int successes
               in
               row ~experiment:"r2"
                 ~label:(Printf.sprintf "%s/strength%.2f" name strength)
                 ~fields:
                   [ "strength", Events.Float strength;
                     "successes", Events.Int successes;
                     "trials", Events.Int trials;
                     "mean_rounds", Events.Float mean;
                   ]
                 (Printf.sprintf "%-14s | %8.2f | %4d/%2d | %11.1f\n" name
                    strength successes trials mean))
             strengths)
         cases)
  in
  { id = "r2"; title; prelude; rows;
    coda =
      "shape: success rates decay monotonically (in expectation) with the\n\
       adversary's tamper probability, and the rounds-to-stabilize of the\n\
       surviving runs inflate — the randomized algorithms degrade\n\
       gracefully (fresh coins eventually dodge the budgeted adversary)\n\
       while the deterministic A* falls off a cliff once tampered\n\
       simulations stop validating.\n";
  }

(* ------------------------------------------------------------------ *)
(* AVG: average case — seeded random ensembles at scale                *)
(* ------------------------------------------------------------------ *)

(* Greedy mex coloring of the 2-hop ball, scanned in node-index order on
   the CSR slices directly — O(sum_v deg(v)^2), no neighbor-set
   materialization — so it reaches ensemble sizes the exact machinery
   never could (minimizing chi_2 is NP-complete; the greedy value is the
   standard upper bound, always within maxdeg^2 + 1).  Valid by
   construction: distance <= 2 is symmetric, so when v picks its color
   every earlier node in its ball has already been marked. *)
let greedy_two_hop_palette g =
  let n = Graph.n g in
  let color = Array.make (max 1 n) (-1) in
  (* [seen.(c) = v] iff color [c] occurs in v's 2-hop ball: a timestamp
     per color instead of a clear per node. *)
  let seen = Array.make (max 1 n) (-1) in
  let mark v u = if u <> v && color.(u) >= 0 then seen.(color.(u)) <- v in
  let palette = ref 0 in
  for v = 0 to n - 1 do
    Graph.iter_neighbors g v ~f:(fun u ->
        mark v u;
        Graph.iter_neighbors g u ~f:(mark v));
    let c = ref 0 in
    while seen.(!c) = v do incr c done;
    color.(v) <- !c;
    if !c >= !palette then palette := !c + 1
  done;
  assert (Props.is_k_hop_coloring g 2 (fun v -> Label.Int color.(v)));
  !palette

(* Ensemble sizes: n = 10^3 and 10^4 by default — run_all regenerates
   EXPERIMENTS.md, so the default must stay CI-sized.  ANONET_AVG_NS
   (comma-separated) overrides, and the generators/executor stream at
   any of them: ANONET_AVG_NS=100000,1000000 reproduces the full sweep
   of the paper-scale ensembles (minutes, not hours; see BENCH.md's
   huge-graphs group for the per-phase throughput). *)
let avg_sizes () =
  match Sys.getenv_opt "ANONET_AVG_NS" with
  | None | Some "" -> [ 1_000; 10_000 ]
  | Some s -> List.map int_of_string (String.split_on_char ',' s)

let exp_avg ~ctx:_ ~domains () =
  let title =
    "AVG average case: Norris depth, greedy 2-hop palette, MIS rounds on \
     random ensembles"
  in
  let prelude =
    banner title
    ^ Printf.sprintf "%-14s | %7s | %7s | %12s | %12s | %11s\n" "ensemble" "n"
        "samples" "norris depth" "2hop palette" "mis rounds"
  in
  let families =
    [ "gnp-avgdeg8",
      (fun ~seed n ->
        let p = if n <= 1 then 0.0 else 8.0 /. float_of_int (n - 1) in
        Gen.random_connected ~seed n p);
      "regular-d8", (fun ~seed n -> Gen.random_regular ~seed n 8);
    ]
  in
  let samples_at n = if n <= 1_000 then 5 else if n <= 10_000 then 3 else 2 in
  let stats xs =
    let k = float_of_int (List.length xs) in
    ( List.fold_left (fun a x -> a +. float_of_int x) 0.0 xs /. k,
      List.fold_left max min_int xs )
  in
  let rows =
    fan_out ~domains
      (List.concat_map
         (fun n ->
           List.map
             (fun (name, gen) () ->
               let samples = samples_at n in
               let measure seed =
                 let g = gen ~seed n in
                 let depth = Norris.stable_view_depth g in
                 let palette = greedy_two_hop_palette g in
                 let rounds =
                   match
                     Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm g
                       ~seed:(Prng.hash2 9500 seed) ()
                   with
                   | Ok r ->
                     assert (
                       Catalog.mis.Problem.is_valid_output g
                         r.Las_vegas.outcome.Executor.outputs);
                     r.Las_vegas.outcome.Executor.rounds
                   | Error f -> failwith f.Las_vegas.message
                 in
                 depth, palette, rounds
               in
               let ms = List.init samples (fun s -> measure (s + 1)) in
               let depth_mean, depth_max = stats (List.map (fun (d, _, _) -> d) ms) in
               let pal_mean, pal_max = stats (List.map (fun (_, p, _) -> p) ms) in
               let r_mean, r_max = stats (List.map (fun (_, _, r) -> r) ms) in
               row ~experiment:"avg"
                 ~label:(Printf.sprintf "%s/n%d" name n)
                 ~fields:
                   [ "ensemble", Events.String name;
                     "n", Events.Int n;
                     "samples", Events.Int samples;
                     "norris_depth_mean", Events.Float depth_mean;
                     "norris_depth_max", Events.Int depth_max;
                     "two_hop_palette_mean", Events.Float pal_mean;
                     "two_hop_palette_max", Events.Int pal_max;
                     "mis_rounds_mean", Events.Float r_mean;
                     "mis_rounds_max", Events.Int r_max;
                   ]
                 (Printf.sprintf
                    "%-14s | %7d | %7d | %6.1f / %3d | %6.1f / %3d | %6.1f / %2d\n"
                    name n samples depth_mean depth_max pal_mean pal_max r_mean
                    r_max))
             families)
         (avg_sizes ()))
  in
  { id = "avg"; title; prelude; rows;
    coda =
      "shape: on random ensembles every average-case statistic sits far\n\
       below its worst case — views stabilize at depth O(1)-ish (vs the\n\
       Norris bound n), the greedy 2-hop palette stays near the ball size\n\
       (vs maxdeg^2+1), and MIS stabilizes in O(log n)-ish rounds.  The\n\
       sweep streams: ANONET_AVG_NS=100000,1000000 runs the same rows at\n\
       paper scale through the CSR builder and the flat executor.\n";
  }

(* ------------------------------------------------------------------ *)
(* Registry and drivers                                                *)
(* ------------------------------------------------------------------ *)

let registry :
    (string
    * (string * (ctx:Run_ctx.t -> domains:int -> unit -> output)))
    list =
  [ "f1", ("Figure 1: depth-d local views", exp_f1);
    "f2", ("Figure 2: factor chain", exp_f2);
    "f3", ("Figure 3 / Theorem 1: A*", exp_f3);
    "t2", ("Theorem 2: A_infinity", exp_t2);
    "t3", ("Theorem 3: Norris", exp_t3);
    "lemmas", ("Lemmas 2-4 + lifting lemma", exp_lemmas);
    "a1", ("ablation: search cost vs |V*|", exp_a1);
    "a2", ("ablation: coloring granularity", exp_a2);
    "a3", ("ablation: decoupled vs direct", exp_a3);
    "a4", ("ablation: palette reduction", exp_a4);
    "e1", ("extension: stone-age model", exp_e1);
    "e2", ("extension: asynchronous execution", exp_e2);
    "r1", ("robustness: retransmission under message loss", exp_r1);
    "r2", ("robustness: degradation under an adaptive adversary", exp_r2);
    "avg", ("average case: random ensembles at scale", exp_avg);
  ]

let all = List.map (fun (id, (descr, _)) -> (id, descr)) registry

let render oc out =
  output_string oc out.prelude;
  List.iter (fun r -> output_string oc r.line) out.rows;
  output_string oc out.coda

(* Every row doubles as an ["experiment.row"] event, so an NDJSON stream
   of a harness run carries the whole series machine-readably. *)
let emit_rows ~ctx out =
  let obs = Run_ctx.obs ctx in
  List.iter
    (fun r ->
      Obs.eventf obs "experiment.row" (fun () ->
          ("experiment", Events.String r.experiment)
          :: ("label", Events.String r.label)
          :: r.fields))
    out.rows;
  out

let run ?(ctx = Run_ctx.default) ?(domains = 1) id =
  match List.assoc_opt (String.lowercase_ascii id) registry with
  | None ->
    Error
      (Printf.sprintf "unknown experiment %S (known: %s)" id
         (String.concat ", " (List.map fst registry)))
  | Some (_, f) ->
    let id = String.lowercase_ascii id in
    Ok
      (emit_rows ~ctx
         (Obs.span (Run_ctx.obs ctx) ("experiment." ^ id) (fun () ->
              f ~ctx ~domains ())))

let run_all ?(ctx = Run_ctx.default) ?domains () =
  List.map
    (fun (id, _) ->
      match run ~ctx ?domains id with Ok o -> o | Error m -> failwith m)
    registry

