(* Tests for the incremental phase engine: Min_search.Resumable warm
   starts against cold searches (a fresh handle per target), A*'s
   cross-phase search/simulation
   cache (value identity, eviction), and the round-major budget parity.
   The value checks also run as concurrent replicas on 2- and 4-domain pools,
   as server workers run searches side by side. *)

open Anonet_graph
open Anonet
module Problem = Anonet_problems.Problem
module Bundles = Anonet_algorithms.Bundles
module Executor = Anonet_runtime.Executor
module Run_ctx = Anonet_runtime.Run_ctx
module Pool = Anonet_parallel.Pool
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let colored_instance g colors = Problem.attach_coloring g colors

let c6_instance () =
  colored_instance (Gen.cycle 6) (Array.init 6 (fun v -> Label.Int ((v mod 3) + 1)))

let prime_instance g = colored_instance g (Array.init (Graph.n g) (fun v -> Label.Int v))

(* [f] run as [domains] concurrent replicas. *)
let concurrently ~domains f = Pool.map ~domains f (Array.make domains ())

(* [check ~domains (f ())] on the calling domain, then on each result of
   [f] run as concurrent replicas on 2- and 4-domain pools.  The checks
   stay on the calling domain: Alcotest's assertion log is not
   domain-safe. *)
let with_pool_sizes f check =
  check ~domains:1 (f ());
  List.iter
    (fun domains -> Array.iter (check ~domains) (concurrently ~domains f))
    [ 2; 4 ]

let bits_testable =
  Alcotest.testable
    (fun fmt b -> Format.pp_print_string fmt (Bits.to_string b))
    (fun a b -> String.equal (Bits.to_string a) (Bits.to_string b))

(* found-by-found equality between a warm and a cold search result *)
let check_found_equal name warm cold =
  match warm, cold with
  | None, None -> ()
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: warm and cold disagree on existence" name
  | Some (w : Min_search.found), Some (c : Min_search.found) ->
    Array.iteri
      (fun v bits ->
        Alcotest.check bits_testable
          (Printf.sprintf "%s: assignment node %d" name v)
          bits w.Min_search.assignment.(v))
      c.Min_search.assignment;
    check (name ^ ": sim success") c.Min_search.sim.Simulation.successful
      w.Min_search.sim.Simulation.successful;
    check_int (name ^ ": sim rounds") c.Min_search.sim.Simulation.rounds_run
      w.Min_search.sim.Simulation.rounds_run;
    check (name ^ ": sim outputs") true
      (w.Min_search.sim.Simulation.outputs = c.Min_search.sim.Simulation.outputs);
    check_int (name ^ ": states explored") c.Min_search.states_explored
      w.Min_search.states_explored

(* ---------- Resumable = cold, phase for phase ---------- *)

let search_fixtures () =
  let base_p3 =
    (* a partially prescribed base, so free/prescribed paths both run *)
    let b = Bit_assignment.empty 3 in
    b.(0) <- Bits.of_string "01";
    b
  in
  [ "path2-mis", Gen.label_with_ints (Gen.path 2), Bit_assignment.empty 2, 7;
    "cycle3-mis", Gen.label_with_ints (Gen.cycle 3), Bit_assignment.empty 3, 7;
    "cycle4-mis", Gen.label_with_ints (Gen.cycle 4), Bit_assignment.empty 4, 6;
    "path3-mis-base01", Gen.label_with_ints (Gen.path 3), base_p3, 6;
  ]

(* One handle extended through every length next to a fresh handle per
   length: (len, warm, cold, cumulative states, level) after each extend. *)
let resumable_vs_cold ~solver g ~base ~max_len () =
  let handle = Min_search.Resumable.create ~solver g ~base () in
  let lo = max 1 (Bit_assignment.max_length base) in
  List.init (max 0 (max_len - lo + 1)) (fun i ->
      let len = lo + i in
      let warm = Min_search.Resumable.extend handle ~len in
      let cold = Cold.exactly ~solver g ~base ~len in
      ( len,
        warm,
        cold,
        Min_search.Resumable.states_explored handle,
        Min_search.Resumable.level handle ))

let check_resumable_matches_cold ~name runs =
  List.iter
    (fun (len, warm, cold, states, level) ->
      let name = Printf.sprintf "%s len=%d" name len in
      check_found_equal name warm cold;
      (match cold with
       | Some c ->
         check_int (name ^ ": cumulative states") c.Min_search.states_explored
           states
       | None -> ());
      check (name ^ ": level <= len") true (level <= len))
    runs

let test_resumable_equals_cold () =
  List.iter
    (fun (name, g, base, max_len) ->
      with_pool_sizes
        (resumable_vs_cold ~solver:Anonet_algorithms.Rand_mis.algorithm g ~base
           ~max_len)
        (fun ~domains ->
          check_resumable_matches_cold
            ~name:(Printf.sprintf "%s/domains=%d" name domains)))
    (search_fixtures ())

let prop_resumable_equals_cold =
  QCheck.Test.make ~name:"resumable = cold on random graphs, pools 1/2/4"
    ~count:15
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed 4 0.5) in
      with_pool_sizes
        (resumable_vs_cold ~solver:Anonet_algorithms.Rand_mis.algorithm g
           ~base:(Bit_assignment.empty 4) ~max_len:5)
        (fun ~domains:_ ->
          check_resumable_matches_cold ~name:(Printf.sprintf "seed=%d" seed));
      true)

(* extend must refuse to shrink, whether the deeper target found a
   success or proved there is none *)
let test_resumable_backward_extend () =
  let g = Gen.label_with_ints (Gen.cycle 3) in
  let handle () =
    Min_search.Resumable.create ~solver:Anonet_algorithms.Rand_mis.algorithm g
      ~base:(Bit_assignment.empty 3) ()
  in
  let min_len =
    match
      Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
        g ~base:(Bit_assignment.empty 3) ~max_len:16 ()
    with
    | Some f -> Bit_assignment.max_length f.Min_search.assignment
    | None -> Alcotest.fail "no minimal assignment on cycle-3"
  in
  check "fixture minimal length >= 2" true (min_len >= 2);
  List.iter
    (fun (name, len, succeeds) ->
      let h = handle () in
      check (name ^ ": extend result") succeeds
        (Option.is_some (Min_search.Resumable.extend h ~len));
      let level = Min_search.Resumable.level h in
      check (name ^ ": advanced") true (level >= 1);
      (* the same target again, as the next node class of a phase asks *)
      let states = Min_search.Resumable.states_explored h in
      check (name ^ ": same target again") succeeds
        (Option.is_some (Min_search.Resumable.extend h ~len:level));
      check_int (name ^ ": repeat costs no states") states
        (Min_search.Resumable.states_explored h);
      Alcotest.check_raises (name ^ ": backward extend rejected")
        (Invalid_argument "Min_search.Resumable.extend: target below explored level")
        (fun () -> ignore (Min_search.Resumable.extend h ~len:(level - 1))))
    [ "after a success", 4, true; "after no success", min_len - 1, false ]

(* ---------- A* warm = cold, whole solves ---------- *)

let a_star_instances () =
  [ "c6/3colors", c6_instance ();
    "c3-prime", prime_instance (Gen.cycle 3);
    "p3-prime", prime_instance (Gen.path 3);
    "p1", prime_instance (Gen.path 1);
    "star3-prime", prime_instance (Gen.star 3);
  ]

let solve_outcome ?ctx ?incremental ?search_cache_cap ~gran inst =
  match A_star.solve ?ctx ~gran inst ?incremental ?search_cache_cap () with
  | Ok outcome -> outcome
  | Error m -> failwith m

let check_same_outcome name (a : Executor.outcome) (b : Executor.outcome) =
  check_int (name ^ ": rounds") a.Executor.rounds b.Executor.rounds;
  check (name ^ ": outputs") true (a.Executor.outputs = b.Executor.outputs)

let check_a_star_warm_equals_cold ~name ~gran inst =
  let cold = solve_outcome ~incremental:false ~gran inst in
  let warm = solve_outcome ~gran inst in
  check_same_outcome (name ^ " seq") cold warm;
  Array.iter
    (check_same_outcome (name ^ " pool4") cold)
    (concurrently ~domains:4 (fun () -> solve_outcome ~gran inst))

let test_a_star_warm_equals_cold () =
  List.iter
    (fun gran ->
      List.iter
        (fun (name, inst) ->
          check_a_star_warm_equals_cold
            ~name:
              (Printf.sprintf "%s on %s" gran.Anonet_problems.Gran.problem.Problem.name
                 name)
            ~gran inst)
        (a_star_instances ()))
    [ Bundles.mis; Bundles.coloring ]

let test_a_star_warm_equals_cold_two_hop () =
  (* the deep case: long phase schedule, most frontier reuse *)
  check_a_star_warm_equals_cold ~name:"2hop on c6" ~gran:Bundles.two_hop_coloring
    (c6_instance ())

let prop_a_star_warm_equals_cold =
  QCheck.Test.make ~name:"A* warm = cold on random colored instances" ~count:10
    (QCheck.make
       ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" seed n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 4) (float_bound_inclusive 0.4)))
    (fun (seed, n, p) ->
      let g = Gen.random_connected ~seed n p in
      let inst =
        match
          Anonet_runtime.Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm g
            ~seed:(seed + 13) ()
        with
        | Error m -> failwith m
        | Ok r ->
          colored_instance g r.Anonet_runtime.Las_vegas.outcome.Executor.outputs
      in
      check_a_star_warm_equals_cold
        ~name:(Printf.sprintf "seed=%d n=%d" seed n)
        ~gran:Bundles.mis inst;
      true)

(* ---------- cache accounting and the eviction path ---------- *)

let counters_after ?incremental ?search_cache_cap ~gran inst =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let outcome =
    solve_outcome ~ctx:(Run_ctx.make ~obs ()) ?incremental ?search_cache_cap
      ~gran inst
  in
  let value name = Metrics.counter_value (Metrics.counter registry name) in
  outcome, value

let test_a_star_cache_counters () =
  let outcome, value = counters_after ~gran:Bundles.mis (c6_instance ()) in
  let cold = solve_outcome ~incremental:false ~gran:Bundles.mis (c6_instance ()) in
  check_same_outcome "counters run" cold outcome;
  check "some hits" true (value "cache.search.hits" > 0);
  check "some misses" true (value "cache.search.misses" > 0);
  check "levels were resumed" true (value "cache.search.resumed_levels" > 0);
  check "states counted" true (value "search.states_explored" > 0);
  check "sims counted" true (value "sim.runs" > 0)

let test_a_star_warm_saves_states () =
  (* The cross-phase frontier reuse on the deepest phase schedule of the
     a-star-phases bench family, counted in states rather than timed:
     restarting every phase's search must explore at least twice the
     states that resuming it does. *)
  let states incremental =
    let _, value =
      counters_after ~incremental ~gran:Bundles.two_hop_coloring (c6_instance ())
    in
    value "search.states_explored"
  in
  let warm = states true and cold = states false in
  check
    (Printf.sprintf "2hop on c6: cold states (%d) >= 2 x warm states (%d)" cold
       warm)
    true
    (cold >= 2 * warm)

let test_a_star_eviction_path () =
  (* cap 1 on an instance whose classes select different candidates:
     every phase alternates entries through the one slot, so the warm
     path keeps evicting and recreating — and must stay value-identical
     to the cold path throughout. *)
  let inst = prime_instance (Gen.path 3) in
  let outcome, value = counters_after ~search_cache_cap:1 ~gran:Bundles.mis inst in
  let cold = solve_outcome ~incremental:false ~gran:Bundles.mis inst in
  check_same_outcome "eviction run" cold outcome;
  check "evictions happened" true (value "cache.search.evictions" > 0);
  check "misses happened" true (value "cache.search.misses" > 1)

(* ---------- budget parity, concurrently on pools of 1/2/4 ---------- *)

let test_budget_parity () =
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let max_states = 50 in
  let explored_at_raise () =
    let registry = Metrics.create () in
    let obs = Obs.make ~metrics:registry () in
    let ctx = Run_ctx.make ~obs () in
    (try
       ignore
         (Cold.exactly ~ctx ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty 4) ~max_states ~len:12);
       Alcotest.fail "expected Search_limit_exceeded"
     with Min_search.Search_limit_exceeded -> ());
    Metrics.counter_value (Metrics.counter registry "search.states_explored")
  in
  let seq = explored_at_raise () in
  check_int "sequential counts one past the budget" (max_states + 1) seq;
  List.iter
    (fun domains ->
      Array.iter
        (check_int (Printf.sprintf "domains=%d matches sequential" domains) seq)
        (concurrently ~domains explored_at_raise))
    [ 2; 4 ]

(* A state expanded again past the base replays its recorded children:
   no transition runs.  Under the last-coin algorithm every level's
   frontier is all [2^n] states.  Level 1 steps the root; level 2 expands
   the level-1 states once; level 3 expands them again and records their
   children; from level 4 on every entry replays — the levels still
   explore their states, but the flat companion's [round] never runs. *)
let test_replay_steps_nothing () =
  let g = Gen.path 3 in
  let t =
    Min_search.Resumable.create ~solver:Recurring.algorithm g
      ~base:(Bit_assignment.empty 3) ()
  in
  check "no success at level 3" true (Min_search.Resumable.extend t ~len:3 = None);
  let stepped = Atomic.get Recurring.rounds in
  let explored = Min_search.Resumable.states_explored t in
  check "levels 1..3 stepped" true (stepped > 0);
  check "no success at level 8" true (Min_search.Resumable.extend t ~len:8 = None);
  check_int "levels 4..8 ran no transition" stepped (Atomic.get Recurring.rounds);
  check_int "levels 4..8 explored 2^3 children of 2^3 entries each"
    (explored + (5 * 8 * 8))
    (Min_search.Resumable.states_explored t)

let () =
  Alcotest.run "incremental"
    [
      ( "resumable",
        [
          Alcotest.test_case "warm = cold on fixtures, pools 1/2/4" `Quick
            test_resumable_equals_cold;
          Alcotest.test_case "backward extend rejected" `Quick
            test_resumable_backward_extend;
          Alcotest.test_case "replayed levels step nothing" `Quick
            test_replay_steps_nothing;
          QCheck_alcotest.to_alcotest prop_resumable_equals_cold;
        ] );
      ( "a-star-cache",
        [
          Alcotest.test_case "warm = cold on fixtures, seq + pool4" `Slow
            test_a_star_warm_equals_cold;
          Alcotest.test_case "warm = cold on the 2hop solver" `Slow
            test_a_star_warm_equals_cold_two_hop;
          Alcotest.test_case "cache counters live" `Quick
            test_a_star_cache_counters;
          Alcotest.test_case "warm explores half the states of cold" `Quick
            test_a_star_warm_saves_states;
          Alcotest.test_case "eviction path stays identical" `Quick
            test_a_star_eviction_path;
          QCheck_alcotest.to_alcotest prop_a_star_warm_equals_cold;
        ] );
      ( "budget",
        [
          Alcotest.test_case "states at raise identical at jobs 1/2/4" `Quick
            test_budget_parity;
        ] );
    ]
