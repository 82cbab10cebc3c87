(* The experiment harness and benchmark suite.

   The paper (PODC 2014) is a theory paper: its "evaluation" consists of
   three constructions (Figure 1: local views; Figure 2: factor/product
   chain; Figure 3: the deterministic algorithm A✱) and the theorems they
   support.  This harness regenerates, for every figure and theorem, an
   executable experiment whose series EXPERIMENTS.md records:

     F1  Figure 1   — depth-d local views of the labeled C6
     F2  Figure 2   — the C3 ⪯ C6 ⪯ C12 factor chain, generalized to lifts
     F3  Figure 3   — A*  (Theorem 1): deterministic solutions of Π^c
     T2  Theorem 2  — A∞: derandomization cost tracks |V*|, not |V|
     T3  Theorem 3  — Norris: view stabilization depth <= n
     L   Lemmas 2-4 — view graphs are factors; prime factors are unique
     A1  ablation   — minimal-simulation search cost vs |V*| (exponential)
     A2  ablation   — coloring granularity vs view graph size vs cost
     A3  ablation   — decoupled pipeline vs direct randomized algorithm

   After the harness, Bechamel micro-benchmarks time the core operations
   (one group per experiment id).

   Run with:  dune exec bench/main.exe                    (harness + timings)
              dune exec bench/main.exe -- harness         (harness only)
              dune exec bench/main.exe -- bench           (timings only)
              dune exec bench/main.exe -- bench-json PATH (timings + pool
                                          scaling, written to PATH as JSON)
*)

open Anonet_graph
open Anonet_views
module Gran = Anonet_problems.Gran
module Problem = Anonet_problems.Problem
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx
module Bundles = Anonet_algorithms.Bundles
module Pool = Anonet_parallel.Pool
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics
open Anonet

let header title =
  Printf.printf "\n=== %s %s\n" title (String.make (max 0 (72 - String.length title)) '=')

let colored_instance g colors = Problem.attach_coloring g colors

let c6_instance () =
  colored_instance (Gen.cycle 6) (Array.init 6 (fun v -> Label.Int ((v mod 3) + 1)))

let cycle_mod_colors n k =
  colored_instance (Gen.cycle n) (Array.init n (fun v -> Label.Int (v mod k)))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* [rounds] rounds of [algo] on [g] through [Executor.run], the driver
   behind `anonet solve`; the rounds actually run (fewer if every node
   output earlier).  Fails when the algorithm has no flat companion, so a
   silent run on the boxed machine cannot pass. *)
let flat_rounds ~name algo g ~rounds =
  if Option.is_none (Anonet_runtime.Algorithm.find_flat algo) then
    failwith (Printf.sprintf "huge: %s has no flat path" name);
  match
    Anonet_runtime.Executor.run algo g
      ~tape:(Anonet_runtime.Tape.random ~seed:1)
      ~max_rounds:rounds
  with
  | Ok o -> o.Anonet_runtime.Executor.rounds
  | Error (Anonet_runtime.Executor.Max_rounds_exceeded r) -> r
  | Error f -> failwith (Format.asprintf "huge: %a" Anonet_runtime.Executor.pp_failure f)

(* The catalog solvers the huge-graph rows and [huge-smoke] run, by CLI
   problem name. *)
let huge_solver = function
  | "mis" -> Anonet_algorithms.Rand_mis.algorithm
  | "coloring" -> Anonet_algorithms.Rand_coloring.algorithm
  | "matching" -> Anonet_algorithms.Rand_matching.algorithm
  | "2hop" -> Anonet_algorithms.Rand_two_hop.algorithm
  | p ->
    invalid_arg
      (Printf.sprintf "huge: unknown problem %S (want mis, coloring, matching or 2hop)"
         p)

let bench_tests () =
  let c6 = Gen.c6_figure1 () in
  let c6i = c6_instance () in
  let c12i = cycle_mod_colors 12 3 in
  let pet = Gen.label_with_ints (Gen.petersen ()) in
  let lift = Lift.random ~seed:3 pet ~k:3 in
  let fig1 =
    Test.make_grouped ~name:"fig1-views"
      [
        Test.make ~name:"view-depth3-c6"
          (Staged.stage (fun () -> View.of_graph c6 ~root:0 ~depth:3));
        Test.make ~name:"view-depth8-c6"
          (Staged.stage (fun () -> View.of_graph c6 ~root:0 ~depth:8));
        Test.make ~name:"knowledge-depth12-c6"
          (Staged.stage (fun () -> Anonet_views.Interned.of_graph c6 ~root:0 ~depth:12));
      ]
  in
  let fig2 =
    Test.make_grouped ~name:"fig2-factors"
      [
        Test.make ~name:"view-graph-c12"
          (Staged.stage (fun () -> View_graph.of_graph_exn c12i));
        Test.make ~name:"view-graph-petersen-lift30"
          (Staged.stage (fun () -> View_graph.of_graph_exn lift.Lift.graph));
        Test.make ~name:"refinement-petersen"
          (Staged.stage (fun () -> Refinement.run pet));
        Test.make ~name:"iso-petersen" (Staged.stage (fun () -> Iso.equal pet pet));
      ]
  in
  let fig3 =
    Test.make_grouped ~name:"fig3-derandomization"
      [
        Test.make ~name:"a-star-mis-c6"
          (Staged.stage (fun () ->
               match A_star.solve ~gran:Bundles.mis c6i () with
               | Ok _ -> ()
               | Error m -> failwith m));
        Test.make ~name:"a-infinity-mis-c6"
          (Staged.stage (fun () ->
               match A_infinity.solve ~gran:Bundles.mis c6i () with
               | Ok _ -> ()
               | Error m -> failwith m));
        Test.make ~name:"a-infinity-mis-c12"
          (Staged.stage (fun () ->
               match A_infinity.solve ~gran:Bundles.mis c12i () with
               | Ok _ -> ()
               | Error m -> failwith m));
      ]
  in
  let searches =
    Test.make_grouped ~name:"ablate-bits"
      (List.map
         (fun k ->
           let g = Gen.label_with_ints (if k = 2 then Gen.path 2 else Gen.cycle k) in
           Test.make ~name:(Printf.sprintf "min-search-mis-k%d" k)
             (Staged.stage (fun () ->
                  Min_search.minimal_successful
                    ~solver:Anonet_algorithms.Rand_mis.algorithm g
                    ~base:(Bit_assignment.empty k) ~max_len:16 ())))
         [ 2; 3; 4; 5 ])
  in
  let pipeline =
    Test.make_grouped ~name:"decouple"
      [
        Test.make ~name:"direct-rand-mis-petersen"
          (Staged.stage (fun () ->
               Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm (Gen.petersen ())
                 ~seed:5 ()));
        Test.make ~name:"decoupled-mis-petersen"
          (Staged.stage (fun () ->
               Decouple.solve ~gran:Bundles.mis (Gen.petersen ()) ~seed:5
                 ~stage_two:(Decouple.Specific Anonet_algorithms.Det_from_two_hop.mis)
                 ()));
        Test.make ~name:"recolor-2hop-petersen"
          (Staged.stage (fun () ->
               Decouple.solve ~gran:Bundles.two_hop_coloring (Gen.petersen ())
                 ~seed:5
                 ~stage_two:
                   (Decouple.Specific
                      Anonet_algorithms.Det_from_two_hop.two_hop_recoloring)
                 ()));
      ]
  in
  let substrates =
    let tape = Anonet_runtime.Tape.random ~seed:11 in
    Test.make_grouped ~name:"substrates"
      [
        Test.make ~name:"sync-2hop-petersen"
          (Staged.stage (fun () ->
               Anonet_runtime.Executor.run Anonet_algorithms.Rand_two_hop.algorithm
                 (Gen.petersen ()) ~tape ~max_rounds:2000));
        Test.make ~name:"async-2hop-petersen"
          (Staged.stage (fun () ->
               Anonet_runtime.Async.run Anonet_algorithms.Rand_two_hop.algorithm
                 (Gen.petersen ()) ~tape
                 ~scheduler:(Anonet_runtime.Async.Random_delay { seed = 3; max_delay = 5 })
                 ~max_events:2_000_000));
        Test.make ~name:"stoneage-mis-petersen"
          (Staged.stage (fun () ->
               Anonet_stoneage.Engine.run Anonet_stoneage.Mis.machine
                 (Gen.petersen ()) ~seed:3 ~max_rounds:100_000));
        Test.make ~name:"stoneage-2hop-petersen"
          (Staged.stage (fun () ->
               Anonet_stoneage.Engine.run
                 (Anonet_stoneage.Two_hop.make ~palette:10)
                 (Gen.petersen ()) ~seed:4 ~max_rounds:1_000_000));
      ]
  in
  let views_intern =
    (* The interning bugfix, measured directly: structural-vs-shared
       traversal of the same view value.  [naive_size] replicates the
       pre-interning [View.size] (walks the unfolded tree, ~5.6M vertices
       for the hypercube at depth 12); the shared rows walk the in-memory
       DAG (a few hundred nodes).  CI asserts the structural/shared ratio
       stays >= 10x. *)
    let hc4 = Gen.label_with_ints (Gen.hypercube 4) in
    let v12 = View.of_graph hc4 ~root:0 ~depth:12 in
    let rec naive_size (t : View.t) =
      1 + List.fold_left (fun s c -> s + naive_size c) 0 t.View.children
    in
    let k8 = Gen.label_with_ints (Gen.complete 8) in
    let pet = Gen.label_with_ints (Gen.petersen ()) in
    let c12i = cycle_mod_colors 12 3 in
    let vg = View_graph.of_graph_exn c12i in
    Test.make_grouped ~name:"views-intern"
      [
        Test.make ~name:"size-structural-hc4-d12"
          (Staged.stage (fun () -> naive_size v12));
        Test.make ~name:"size-shared-hc4-d12"
          (Staged.stage (fun () -> View.size v12));
        Test.make ~name:"of-graph-hc4-d12"
          (Staged.stage (fun () -> View.of_graph hc4 ~root:0 ~depth:12));
        Test.make ~name:"intern-of-graph-k8-d16"
          (Staged.stage (fun () -> Interned.of_graph k8 ~root:0 ~depth:16));
        Test.make ~name:"uc-classes-petersen-d8"
          (Staged.stage (fun () -> Universal_cover.classes_at_depth pet 8));
        Test.make ~name:"encode-stream-c12"
          (Staged.stage (fun () -> View_graph.encoding vg));
      ]
  in
  let faults =
    (* The retransmission wrapper's overhead: the loss-0 row against
       sync-2hop-petersen of the substrates group isolates the pure
       wrapper cost (acks + windows on a fault-free network); the loss-20
       row adds the actual recovery work.  A fresh injector per run —
       injectors are stateful. *)
    let tape = Anonet_runtime.Tape.random ~seed:11 in
    let module Faults = Anonet_runtime.Faults in
    let wrapped =
      Anonet_runtime.Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm
    in
    Test.make_grouped ~name:"faults"
      [
        Test.make ~name:"retransmit-2hop-petersen-loss0"
          (Staged.stage (fun () ->
               Anonet_runtime.Executor.run wrapped (Gen.petersen ()) ~tape
                 ~max_rounds:2000));
        Test.make ~name:"retransmit-2hop-petersen-loss20"
          (Staged.stage
             (let ctx = Run_ctx.make ~faults:(Faults.with_loss 0.2 ~seed:7) () in
              fun () ->
                Anonet_runtime.Executor.run ~ctx wrapped (Gen.petersen ()) ~tape
                  ~max_rounds:2000));
      ]
  in
  let a_star_phases =
    (* The incremental phase engine, measured end to end: each pair runs
       the same derandomization warm (cross-phase search/simulation cache
       on, the default) and cold (cache off — every phase restarts its
       Update-Bits BFS from level 0).  CI asserts warm/cold >= 2x on the
       2hop-c6 pair, the deepest phase schedule of the family.  The
       instances are the C6/C12 cycle family of Figures 1-2; Petersen
       with unique colors is prime, so its generic Update-Bits search
       branches on all 10 nodes per round and blows the state budget
       long before the first successful extension — the inherent
       exponential the ablate-bits group already measures. *)
    let solve ?incremental gran inst () =
      match A_star.solve ~gran inst ?incremental () with
      | Ok _ -> ()
      | Error m -> failwith m
    in
    Test.make_grouped ~name:"a-star-phases"
      [
        Test.make ~name:"warm-mis-c6" (Staged.stage (solve Bundles.mis c6i));
        Test.make ~name:"cold-mis-c6"
          (Staged.stage (solve ~incremental:false Bundles.mis c6i));
        Test.make ~name:"warm-2hop-c6"
          (Staged.stage (solve Bundles.two_hop_coloring c6i));
        Test.make ~name:"cold-2hop-c6"
          (Staged.stage (solve ~incremental:false Bundles.two_hop_coloring c6i));
        Test.make ~name:"warm-mis-c12" (Staged.stage (solve Bundles.mis c12i));
        Test.make ~name:"cold-mis-c12"
          (Staged.stage (solve ~incremental:false Bundles.mis c12i));
      ]
  in
  let core_pruning =
    (* The core-guided pruning ablation: the same workloads with the
       sensitivity cores + cross-level subsumption on (the default) and
       off.  Wall-clock complements the states-explored ratios in the
       JSON's [search_states] section — pruning pays a sensitivity probe
       per expanded entry, so the time win is smaller than the state win
       but must not invert it.  Fixtures: the two largest ablate-bits
       searches, and the deepest a-star-phases schedule end to end.  A
       last row times the [Exactly] search A*'s Update-Bits runs, on a
       graph whose states recur level after level, so levels 5..8 replay
       their recorded children. *)
    let min_search ~pruning g () =
      ignore
        (Min_search.minimal_successful
           ~solver:Anonet_algorithms.Rand_mis.algorithm g
           ~base:(Bit_assignment.empty (Graph.n g))
           ~pruning ~max_len:16 ())
    in
    let k4 = Gen.label_with_ints (Gen.cycle 4) in
    let k5 = Gen.label_with_ints (Gen.cycle 5) in
    let a_star ~pruning () =
      match A_star.solve ~gran:Bundles.two_hop_coloring c6i ~pruning () with
      | Ok _ -> ()
      | Error m -> failwith m
    in
    let grid24 = Gen.label_with_ints (Gen.grid 2 4) in
    let resumable_exactly8 () =
      let t =
        Min_search.Resumable.create ~solver:Anonet_algorithms.Rand_mis.algorithm
          grid24 ~base:(Bit_assignment.empty 8) ()
      in
      ignore (Min_search.Resumable.extend t ~len:8)
    in
    Test.make_grouped ~name:"core-pruning"
      [
        Test.make ~name:"min-search-mis-k4-pruned"
          (Staged.stage (min_search ~pruning:true k4));
        Test.make ~name:"min-search-mis-k4-exhaustive"
          (Staged.stage (min_search ~pruning:false k4));
        Test.make ~name:"min-search-mis-k5-pruned"
          (Staged.stage (min_search ~pruning:true k5));
        Test.make ~name:"min-search-mis-k5-exhaustive"
          (Staged.stage (min_search ~pruning:false k5));
        Test.make ~name:"a-star-2hop-c6-pruned"
          (Staged.stage (a_star ~pruning:true));
        Test.make ~name:"a-star-2hop-c6-exhaustive"
          (Staged.stage (a_star ~pruning:false));
        Test.make ~name:"resumable-exactly8-mis-grid2x4"
          (Staged.stage resumable_exactly8);
      ]
  in
  let huge_graphs =
    (* Million-node-scale graph machinery, measured at n = 10^5 where
       bechamel still gets several samples per quota.  The build row
       turns a materialized edge list into the CSR layout; the generate
       rows measure the streaming emitters end to end (no edge list at
       all), and the execute rows the round driver's per-round throughput
       over the CSR layout, one per flat companion. *)
    let hn = 100_000 in
    let hp = 8.0 /. float_of_int (hn - 1) in
    (* The fixtures (a 10^5-node graph plus its materialized edge list,
       ~25 MB) are forced lazily, not built here: resident in the major
       heap they would tax every GC slice paid by the nanosecond-scale
       rows of the other groups — bechamel measures groups in list order
       and this group runs last, so forcing on first use keeps the rest
       of the suite exactly as heavy as before this group existed. *)
    let fixtures =
      lazy
        (let hg = Gen.random_connected ~seed:1 hn hp in
         hg, Graph.edges hg, Array.make hn Label.Unit)
    in
    let execute problem =
      Test.make ~name:(Printf.sprintf "execute-10rounds-%s-gnp-1e5" problem)
        (Staged.stage (fun () ->
             let hg, _, _ = Lazy.force fixtures in
             flat_rounds ~name:problem (huge_solver problem) hg ~rounds:10))
    in
    Test.make_grouped ~name:"huge-graphs"
      [
        Test.make ~name:"build-csr-gnp-1e5"
          (Staged.stage (fun () ->
               let _, hedges, hlabels = Lazy.force fixtures in
               Graph.create ~n:hn ~edges:hedges ~labels:hlabels));
        Test.make ~name:"generate-gnp-1e5"
          (Staged.stage (fun () -> Gen.random_connected ~seed:1 hn hp));
        Test.make ~name:"generate-regular-d8-1e5"
          (Staged.stage (fun () -> Gen.random_regular ~seed:2 hn 8));
        execute "mis";
        execute "coloring";
        execute "matching";
        execute "2hop";
      ]
  in
  let validation =
    (* The local k-hop check under every validator (solve outputs, mod:K
       colorings, colored-variant instances).  A unique labelling has no
       conflict to stop at, so each run scans every node's 2-ball — the
       check's worst case at this size.  Each fixture is built just before
       its row is measured and dropped after it (a [uniq] resource), so it
       neither taxes the other groups' GC slices nor lands in a sample. *)
    let khop tag n =
      Test.make_with_resource ~name:("khop2-unique-gnp-" ^ tag) Test.uniq
        ~allocate:(fun () ->
          let g = Gen.random_connected ~seed:1 n (8.0 /. float_of_int (n - 1)) in
          g, Array.init n (fun v -> Label.Int v))
        ~free:ignore
        (Staged.stage (fun (g, labels) ->
             assert (Props.is_k_hop_coloring g 2 (fun v -> labels.(v)))))
    in
    Test.make_grouped ~name:"validation"
      [ khop "1e4" 10_000; khop "1e5" 100_000 ]
  in
  ( Test.make_grouped ~name:"anonet"
      [
        fig1;
        fig2;
        fig3;
        searches;
        pipeline;
        substrates;
        views_intern;
        faults;
        a_star_phases;
        core_pruning;
      ],
    Test.make_grouped ~name:"anonet" [ huge_graphs; validation ] )

(* Bechamel samples a test at 1, 2, 3, ... runs per sample until its
   quota is spent, and the OLS fit needs several samples to report an r².
   The 10^5-node rows take up to ~0.7 s a run (2hop), so four samples
   cost 10 runs: they get a quota of their own instead of the 0.4 s that
   suits everything else (and would give them one sample each). *)
let analyze_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg quota = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~stabilize:true () in
  let quick, large = bench_tests () in
  let raw = Benchmark.all (cfg 0.4) instances quick in
  Hashtbl.iter (Hashtbl.replace raw) (Benchmark.all (cfg 8.0) instances large);
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  (Analyze.merge ols instances results, instances)

let run_benchmarks () =
  header "Bechamel micro-benchmarks (monotonic clock per run)";
  let results, instances = analyze_benchmarks () in
  List.iter (fun v -> Bechamel_notty.Unit.add v (Measure.unit v)) instances;
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol img)

(* ------------------------------------------------------------------ *)
(* JSON telemetry: bench-json PATH                                     *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/inf literals; a measurement that failed to fit maps to
   null so downstream tooling sees "missing", not a parse error. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* Flatten the merged OLS table: one (test, ns/run, r²) row per bechamel
   test, sorted by name for stable diffs. *)
let ols_rows results =
  Hashtbl.fold
    (fun _measure by_test acc ->
      Hashtbl.fold
        (fun name ols acc ->
          let ns_per_run =
            match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
          in
          let r_square =
            match Analyze.OLS.r_square ols with Some r -> r | None -> nan
          in
          (name, ns_per_run, r_square) :: acc)
        by_test acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* Domain counts the pool-scaling rows time: 1, 2 and 4, but none beyond
   what the host recommends — a 4-domain row on a 2-core host times
   oversubscription, not scaling. *)
let scaling_domains () =
  List.filter (fun d -> d <= Domain.recommended_domain_count ()) [ 1; 2; 4 ]

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Wall-clock scaling of Pool.map on a batch of independent replicas of
   the hot workloads (the ablate-bits searches and the decouple pipeline
   rows), and of the experiment harness's row fan-out (every experiment,
   rows spread over the domains as `anonet experiments --jobs N` does).
   Each (workload, domains) cell is the median of [samples] runs after
   one warm-up run: a single batch of millisecond tasks is too short to
   time once.  Every run spawns and joins its own domains, so a row
   includes the domain spawn (about 0.15 ms per domain on a 2-core
   host).  Speedups only materialize on multicore hosts — the JSON
   records [domains_available] so a 1-core CI row is read as what it
   is. *)
let pool_scaling_rows () =
  let k5 = Gen.label_with_ints (Gen.cycle 5) in
  let k4 = Gen.label_with_ints (Gen.cycle 4) in
  let min_search g () =
    ignore
      (Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
         g
         ~base:(Bit_assignment.empty (Graph.n g))
         ~max_len:16 ())
  in
  let batch_size = 8 in
  let batched task =
    let batch = Array.make batch_size task in
    fun domains -> ignore (Pool.map ~domains (fun f -> f ()) batch)
  in
  let workloads =
    [ "ablate-bits", "min-search-mis-k5", batched (min_search k5);
      "ablate-bits", "min-search-mis-k4", batched (min_search k4);
      ( "decouple", "direct-rand-mis-petersen",
        batched (fun () ->
            ignore
              (Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm
                 (Gen.petersen ()) ~seed:5 ())) );
      ( "decouple", "decoupled-mis-petersen",
        batched (fun () ->
            ignore
              (Decouple.solve ~gran:Bundles.mis (Gen.petersen ()) ~seed:5
                 ~stage_two:
                   (Decouple.Specific Anonet_algorithms.Det_from_two_hop.mis)
                 ())) );
      ( "experiments", "row-fan-out-all",
        fun domains -> ignore (Anonet_experiments.Experiments.run_all ~domains ()) );
    ]
  in
  let samples = 5 in
  List.concat_map
    (fun (group, name, run) ->
      let time domains =
        run domains (* warm up: page in the code paths once *);
        median
          (List.init samples (fun _ ->
               let t0 = Unix.gettimeofday () in
               run domains;
               Unix.gettimeofday () -. t0))
      in
      let t1 = time 1 in
      List.map
        (fun domains ->
          let t = if domains = 1 then t1 else time domains in
          (group, name, domains, t, t1 /. t))
        (scaling_domains ()))
    workloads

(* Allocation telemetry: GC word deltas per run of the hot workloads, the
   direct measure the flat-memory representations optimize.  [minor_words]
   counts all allocation (the flat hot paths' target metric);
   [major_words] counts what survives or is allocated large.  Measured
   over [iters] runs after one warm-up so per-process caches (layouts,
   interned views, candidate memos) don't pollute the per-run figure. *)
let alloc_rows () =
  let k5 = Gen.label_with_ints (Gen.cycle 5) in
  let k4 = Gen.label_with_ints (Gen.cycle 4) in
  let min_search g () =
    ignore
      (Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
         g
         ~base:(Bit_assignment.empty (Graph.n g))
         ~max_len:16 ())
  in
  let c6i = c6_instance () in
  let workloads =
    [ "ablate-bits", "min-search-mis-k4", 20, min_search k4;
      "ablate-bits", "min-search-mis-k5", 5, min_search k5;
      ( "a-star-phases", "warm-mis-c6", 20,
        fun () ->
          match A_star.solve ~gran:Bundles.mis c6i () with
          | Ok _ -> ()
          | Error m -> failwith m );
      ( "a-star-phases", "cold-mis-c6", 20,
        fun () ->
          match A_star.solve ~gran:Bundles.mis c6i ~incremental:false () with
          | Ok _ -> ()
          | Error m -> failwith m );
      ( "decouple", "direct-rand-mis-petersen", 20,
        fun () ->
          ignore
            (Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm (Gen.petersen ())
               ~seed:5 ()) );
    ]
  in
  List.map
    (fun (group, name, iters, task) ->
      task () (* warm up: layouts, interned arenas, candidate memos *);
      (* [Gc.minor_words] reads the exact per-domain allocation counter;
         [quick_stat.minor_words] is only refreshed at GC slices, so a
         workload too small to trigger a minor collection would read 0. *)
      let m0 = Gc.minor_words () in
      let s0 = Gc.quick_stat () in
      for _ = 1 to iters do
        task ()
      done;
      let m1 = Gc.minor_words () in
      let s1 = Gc.quick_stat () in
      let per d = d /. float_of_int iters in
      ( group, name,
        per (m1 -. m0),
        per (s1.Gc.major_words -. s0.Gc.major_words) ))
    workloads

(* Search-effort telemetry for the core-guided pruning ablation: exact
   [states_explored] counts with pruning on and off over the ablate-bits
   fixture family.  Deterministic — these are state-space sizes, not
   timings — so CI can assert the reduction ratio (>= 2x on k4/k5)
   without a host guard. *)
let search_states_rows () =
  List.map
    (fun k ->
      let g =
        Gen.label_with_ints (if k = 2 then Gen.path 2 else Gen.cycle k)
      in
      let states ~pruning =
        match
          Min_search.minimal_successful
            ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty k) ~pruning
            ~max_len:16 ()
        with
        | Some f -> f.Min_search.states_explored
        | None -> failwith (Printf.sprintf "min-search-mis-k%d found nothing" k)
      in
      let pruned = states ~pruning:true in
      let exhaustive = states ~pruning:false in
      ( Printf.sprintf "min-search-mis-k%d" k,
        pruned, exhaustive,
        float_of_int exhaustive /. float_of_int pruned ))
    [ 2; 3; 4; 5 ]

(* One-shot wall-clock rows for the graph sizes bechamel cannot sample
   repeatedly: build (streaming generate into the CSR builder) and a
   10-round rand_mis run through the round driver at n = 10^5 and 10^6.
   Single measurements — at seconds per run the sampling noise is far
   below the 2-orders-of-magnitude effects these rows exist to witness. *)
let huge_one_shot ~problem ~tag ~n ~avg_degree ~seed ~rounds =
  let p = avg_degree /. float_of_int (n - 1) in
  let t0 = Unix.gettimeofday () in
  let g = Gen.random_connected ~seed n p in
  let build_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let rounds_run = flat_rounds ~name:problem (huge_solver problem) g ~rounds in
  let sim_s = Unix.gettimeofday () -. t1 in
  (tag, n, Graph.num_edges g, build_s, rounds_run, sim_s)

let huge_rows () =
  [
    huge_one_shot ~problem:"mis" ~tag:"gnp-1e5" ~n:100_000 ~avg_degree:8.0 ~seed:1
      ~rounds:10;
    huge_one_shot ~problem:"mis" ~tag:"gnp-1e6" ~n:1_000_000 ~avg_degree:8.0 ~seed:1
      ~rounds:10;
  ]

(* A metrics snapshot of the instrumented pipeline — a Las-Vegas solve,
   an A_infinity derandomization and a warm A* derandomization against a
   live registry — so BENCH.json records the work performed (rounds,
   messages, attempts, search states, phase-cache traffic) next to the
   timings.  [Metrics.render_json] is a complete single-line
   JSON object; it embeds verbatim as the "metrics" value. *)
let metrics_snapshot_json () =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let ctx = Run_ctx.make ~obs () in
  (match
     Las_vegas.solve_msg ~ctx Anonet_algorithms.Rand_mis.algorithm (Gen.petersen ())
       ~seed:5 ()
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  (match A_infinity.solve ~ctx ~gran:Bundles.mis (cycle_mod_colors 12 3) () with
  | Ok _ -> ()
  | Error m -> failwith m);
  (* An A* derandomization with the warm phase engine, so the snapshot
     carries the cache.search counter family next to search.* . *)
  (match A_star.solve ~ctx ~gran:Bundles.mis (c6_instance ()) () with
  | Ok _ -> ()
  | Error m -> failwith m);
  (* Process-total view-interning counts (the cache.view counter family)
     join the snapshot; published exactly once per registry, right before
     it.  These solves run outside any job, in this domain's default
     arena, so the cache.view.nodes gauge counts their views. *)
  Interned.publish_metrics obs;
  String.trim (Metrics.render_json (Metrics.snapshot registry))

(* The commit the snapshot describes, for the bench/history trajectory.
   Best-effort: outside a git checkout (a release tarball) the field is
   "unknown" and the history step simply isn't used. *)
let git_short_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic, line with
    | Unix.WEXITED 0, sha when sha <> "" -> sha
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let run_bench_json ?history path =
  header "Bechamel micro-benchmarks -> JSON telemetry";
  let results, _instances = analyze_benchmarks () in
  let tests = ols_rows results in
  Printf.printf "measured %d tests; timing pool scaling (domains %s)...\n%!"
    (List.length tests)
    (String.concat "/" (List.map string_of_int (scaling_domains ())));
  let scaling = pool_scaling_rows () in
  Printf.printf "measuring GC allocation deltas...\n%!";
  let allocs = alloc_rows () in
  Printf.printf "counting search states (pruning ablation)...\n%!";
  let search_states = search_states_rows () in
  Printf.printf "timing huge graphs (one-shot, n = 1e5 / 1e6)...\n%!";
  let huge = huge_rows () in
  let sha = git_short_sha () in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  (* Schema 5 adds the "huge" array (one-shot build/simulate wall clock at
     n = 10^5/10^6); schema 4 added "search_states".  Readers that ignore
     unknown keys — the regression gate among them — stay compatible with
     mixed-schema histories. *)
  Buffer.add_string buf "  \"schema\": \"anonet-bench/5\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"commit\": \"%s\",\n" (json_escape sha));
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_at\": \"%s\",\n" (iso8601_now ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"domains_available\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"metrics\": %s,\n" (metrics_snapshot_json ()));
  Buffer.add_string buf "  \"tests\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s }%s\n"
           (json_escape name) (json_float ns) (json_float r2)
           (if i = List.length tests - 1 then "" else ",")))
    tests;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"pool_scaling\": [\n";
  List.iteri
    (fun i (group, name, domains, wall_s, speedup) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"group\": \"%s\", \"workload\": \"%s\", \"domains\": %d, \
            \"wall_s\": %s, \"speedup_vs_1\": %s }%s\n"
           (json_escape group) (json_escape name) domains (json_float wall_s)
           (json_float speedup)
           (if i = List.length scaling - 1 then "" else ",")))
    scaling;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"allocs\": [\n";
  List.iteri
    (fun i (group, name, minor, major) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"group\": \"%s\", \"workload\": \"%s\", \
            \"minor_words_per_run\": %s, \"major_words_per_run\": %s }%s\n"
           (json_escape group) (json_escape name) (json_float minor)
           (json_float major)
           (if i = List.length allocs - 1 then "" else ",")))
    allocs;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"search_states\": [\n";
  List.iteri
    (fun i (name, pruned, exhaustive, ratio) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"workload\": \"%s\", \"states_pruned\": %d, \
            \"states_exhaustive\": %d, \"ratio\": %s }%s\n"
           (json_escape name) pruned exhaustive (json_float ratio)
           (if i = List.length search_states - 1 then "" else ",")))
    search_states;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"huge\": [\n";
  List.iteri
    (fun i (tag, n, m, build_s, rounds, sim_s) ->
      let per_round_ns =
        if rounds > 0 then sim_s *. 1e9 /. float_of_int rounds else nan
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"workload\": \"%s\", \"nodes\": %d, \"edges\": %d, \
            \"build_s\": %s, \"sim_rounds\": %d, \"sim_s\": %s, \
            \"ns_per_round\": %s }%s\n"
           (json_escape tag) n m (json_float build_s) rounds
           (json_float sim_s) (json_float per_round_ns)
           (if i = List.length huge - 1 then "" else ",")))
    huge;
  Buffer.add_string buf "  ]\n";
  Buffer.add_string buf "}\n";
  let contents = Buffer.contents buf in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d tests, %d pool-scaling rows)\n" path
    (List.length tests) (List.length scaling);
  (* Append the snapshot to the persistent bench trajectory: one
     BENCH_<shortsha>.json per commit, so successive PRs accumulate a
     comparable series that the CI regression gate diffs against. *)
  match history with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let hpath = Filename.concat dir (Printf.sprintf "BENCH_%s.json" sha) in
    let oc = open_out hpath in
    output_string oc contents;
    close_out oc;
    Printf.printf "appended history snapshot %s\n" hpath

let run_harness () =
  List.iter
    (Anonet_experiments.Experiments.render stdout)
    (Anonet_experiments.Experiments.run_all ())

(* CI smoke for the million-node pipeline: generate a seeded G(n, p) with
   the given average degree, run a fixed number of rounds of [problem]'s
   solver (mis, coloring or matching) through the round driver, and emit
   one JSON line — run under `ulimit -v` and a wall-clock cap by the
   workflow.  Exits non-zero if the solver has no flat companion or the
   graph comes out empty, so a silent run on the boxed machine cannot
   pass. *)
let run_huge_smoke ~problem n avg_degree seed rounds =
  let (tag, n, m, build_s, rounds_run, sim_s) =
    huge_one_shot ~problem
      ~tag:
        ((if problem = "mis" then "" else problem ^ "-")
        ^ Printf.sprintf "gnp-n%d-d%g" n avg_degree)
      ~n ~avg_degree ~seed ~rounds
  in
  if m < n - 1 then failwith "huge-smoke: generated graph is too sparse";
  if rounds_run < 1 then failwith "huge-smoke: no rounds executed";
  Printf.printf
    "{ \"workload\": \"%s\", \"nodes\": %d, \"edges\": %d, \"build_s\": %s, \
     \"sim_rounds\": %d, \"sim_s\": %s }\n"
    (json_escape tag) n m (json_float build_s) rounds_run (json_float sim_s)

let () =
  match Array.to_list Sys.argv with
  | _ :: "harness" :: _ -> run_harness ()
  | _ :: "bench" :: _ -> run_benchmarks ()
  | _ :: "bench-json" :: path :: "--history" :: dir :: _ ->
    run_bench_json ~history:dir path
  | _ :: "bench-json" :: path :: _ -> run_bench_json path
  | _ :: "bench-json" :: [] ->
    prerr_endline "usage: main.exe bench-json PATH [--history DIR]";
    exit 2
  | _ :: "huge-smoke" :: n :: deg :: seed :: rounds :: rest ->
    let problem = match rest with p :: _ -> p | [] -> "mis" in
    run_huge_smoke ~problem (int_of_string n) (float_of_string deg)
      (int_of_string seed) (int_of_string rounds)
  | _ :: "huge-smoke" :: _ ->
    prerr_endline
      "usage: main.exe huge-smoke N AVG_DEGREE SEED ROUNDS \
       [mis|coloring|matching|2hop]";
    exit 2
  | _ ->
    run_harness ();
    run_benchmarks ()
