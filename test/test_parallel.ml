(* Tests for the multicore execution layer: [Pool.map] itself, and the
   concurrency that remains once a job runs on one domain — independent
   Las-Vegas solves and minimal-simulation searches running side by side
   on their own domains, as server workers and experiment rows run them.
   The equivalence tests run one call on the calling domain and again as
   concurrent replicas on 1, 2 and 4 domains, and
   demand identical results, down to attempt counts, state counters and
   error strings: per-domain executor scratch must not leak between
   concurrent runs. *)

open Anonet_graph
open Anonet
module Pool = Anonet_parallel.Pool
module Las_vegas = Anonet_runtime.Las_vegas
module Executor = Anonet_runtime.Executor
module Faults = Anonet_runtime.Faults
module Retransmit = Anonet_runtime.Retransmit
module Run_ctx = Anonet_runtime.Run_ctx
module Experiments = Anonet_experiments.Experiments

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let pool_sizes = [ 1; 2; 4 ]

(* [f] run as [domains] concurrent replicas. *)
let concurrently ~domains f = Pool.map ~domains f (Array.make domains ())

(* ---------- Pool.map itself ---------- *)

let test_pool_map_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.map: domains < 1")
    (fun () -> ignore (Pool.map ~domains:0 Fun.id [| 1 |]))

let test_pool_map_order () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "map %d items on %d domains" n domains)
            (Array.map (fun i -> i * i) input)
            (Pool.map ~domains (fun i -> i * i) input))
        [ 0; 1; 7; 100 ])
    pool_sizes

let test_pool_map_each_index_once () =
  List.iter
    (fun domains ->
      let n = 200 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      ignore (Pool.map ~domains (fun i -> Atomic.incr hits.(i)) (Array.init n Fun.id));
      Array.iteri
        (fun i a ->
          check_int (Printf.sprintf "index %d on %d domains" i domains) 1
            (Atomic.get a))
        hits)
    pool_sizes

let test_pool_map_propagates_exception () =
  List.iter
    (fun domains ->
      let ran = Atomic.make 0 in
      match
        Pool.map ~domains
          (fun i ->
            Atomic.incr ran;
            if i = 13 then failwith "boom-13")
          (Array.init 50 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
        check_string "first failure re-raised" "boom-13" m;
        (* in order on one domain, so nothing after the failure runs;
           concurrent participants skip the indices they claim after it *)
        if domains = 1 then check_int "stops at the failure" 14 (Atomic.get ran))
    pool_sizes

(* ---------- experiment row fan-out = sequential run ---------- *)

let test_experiment_fan_out () =
  (* Rows computed on two domains merge in input order: the same output,
     typed fields included, as the sequential run.  Explicit [~domains],
     so the fan-out happens even on a 1-core host. *)
  List.iter
    (fun id ->
      match Experiments.run id, Experiments.run ~domains:2 id with
      | Ok seq, Ok par ->
        check (id ^ ": has rows") true (seq.Experiments.rows <> []);
        check (id ^ ": rows at 2 domains = sequential") true (seq = par)
      | Error m, _ | _, Error m -> Alcotest.fail m)
    [ "t3"; "f3"; "lemmas"; "e1" ]

(* ---------- concurrent Las-Vegas solves = calling domain ---------- *)

let equivalence_graphs =
  [ "cycle-6", Gen.cycle 6;
    "cycle-7", Gen.cycle 7;
    "petersen", Gen.petersen ();
    "random-9", Gen.random_connected ~seed:5 9 0.3;
    "random-11", Gen.random_connected ~seed:8 11 0.25;
  ]

let report_equal (a : Las_vegas.report) (b : Las_vegas.report) =
  a.Las_vegas.attempts = b.Las_vegas.attempts
  && a.Las_vegas.seed_used = b.Las_vegas.seed_used
  && a.Las_vegas.rounds_spent = b.Las_vegas.rounds_spent
  && a.Las_vegas.outcome.Executor.rounds = b.Las_vegas.outcome.Executor.rounds
  && a.Las_vegas.outcome.Executor.messages = b.Las_vegas.outcome.Executor.messages
  && Array.for_all2 Label.equal a.Las_vegas.outcome.Executor.outputs
       b.Las_vegas.outcome.Executor.outputs

let check_lv_equivalent name solve =
  let sequential = solve () in
  List.iter
    (fun domains ->
      Array.iter
        (fun parallel ->
          match sequential, parallel with
          | Ok a, Ok b ->
            check
              (Printf.sprintf "%s: identical report (%d domains)" name domains)
              true (report_equal a b)
          | Error a, Error b ->
            check
              (Printf.sprintf "%s: identical failure reason (%d domains)" name
                 domains)
              true
              (a.Las_vegas.reason = b.Las_vegas.reason);
            check_string
              (Printf.sprintf "%s: identical error (%d domains)" name domains)
              a.Las_vegas.message b.Las_vegas.message
          | Ok _, Error f ->
            Alcotest.fail
              (Printf.sprintf "%s: sequential Ok but %d domains Error %s" name
                 domains f.Las_vegas.message)
          | Error f, Ok _ ->
            Alcotest.fail
              (Printf.sprintf "%s: sequential Error %s but %d domains Ok" name
                 f.Las_vegas.message domains))
        (concurrently ~domains solve))
    pool_sizes

let test_lv_equivalence_easy () =
  (* Default budgets: the first attempt almost always succeeds; every
     concurrent replica must agree on attempt 1 and its outcome. *)
  List.iter
    (fun (name, g) ->
      check_lv_equivalent name (fun () ->
          Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm g ~seed:7 ()))
    equivalence_graphs

let test_lv_equivalence_forced_retries () =
  (* A starvation budget forces several failed attempts before the
     backoff escalates far enough: every replica must charge exactly the
     same failed budgets and stop at the same attempt. *)
  List.iter
    (fun (name, g) ->
      check_lv_equivalent (name ^ "/tight") (fun () ->
          Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm g ~seed:3
            ~max_rounds:1 ~attempts:25 ()))
    equivalence_graphs

let test_lv_equivalence_no_success_error () =
  (* A hopeless budget (1, 2, then 4 rounds): every attempt fails, and the
     no-success error string must match the sequential one verbatim. *)
  check_lv_equivalent "no-success" (fun () ->
      Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
        ~seed:2 ~max_rounds:1 ~attempts:3 ())

let test_lv_equivalence_under_faults () =
  (* A lossy fault plan (fresh injector per attempt) behind the
     retransmission wrapper: one shared context, concurrent replicas —
     outcomes stay pure functions of the attempt index. *)
  let wrapped = Retransmit.wrap Anonet_algorithms.Rand_mis.algorithm in
  let ctx = Run_ctx.make ~faults:(Faults.with_loss 0.15 ~seed:9) () in
  List.iter
    (fun (name, g) ->
      check_lv_equivalent (name ^ "/faults") (fun () ->
          Las_vegas.solve ~ctx wrapped g ~seed:11 ()))
    [ "cycle-6", Gen.cycle 6; "petersen", Gen.petersen () ]

(* Never outputs: every attempt runs out of rounds. *)
let never : Anonet_runtime.Algorithm.t =
  (module struct
    type state = int

    let name = "never"

    let init ~input:_ ~degree = degree

    let round s ~bit:_ ~inbox:_ = s, Anonet_runtime.Algorithm.silence ~degree:s

    let output _ = None

    let flat = None
  end)

let test_lv_divergence_threshold_clamped () =
  (* Regression: a divergence factor of 1e300 (or infinity) times the base
     budget leaves the integer range, and an unclamped int_of_float would
     wrap the threshold to 0 or below, so the very first attempt that
     runs out of rounds would be declared diverged.  Clamped at
     max_int / 2, the threshold is never reached: three hopeless attempts
     end in No_success, identically on every replica. *)
  List.iter
    (fun divergence ->
      let name = Printf.sprintf "divergence %g" divergence in
      let solve () =
        Las_vegas.solve never (Gen.cycle 6) ~seed:2 ~max_rounds:1 ~attempts:3
          ~divergence ()
      in
      (match solve () with
       | Ok _ -> Alcotest.fail "never must not succeed"
       | Error f ->
         check (name ^ ": no success, not diverged") true
           (f.Las_vegas.reason = Las_vegas.No_success));
      check_lv_equivalent name solve)
    [ 1e300; Float.infinity ]

(* ---------- concurrent Min_search = calling domain ---------- *)

let found_equal (a : Min_search.found) (b : Min_search.found) =
  a.Min_search.states_explored = b.Min_search.states_explored
  && Array.length a.Min_search.assignment = Array.length b.Min_search.assignment
  && Array.for_all2 Bits.equal a.Min_search.assignment b.Min_search.assignment
  && a.Min_search.sim.Simulation.successful = b.Min_search.sim.Simulation.successful
  && a.Min_search.sim.Simulation.rounds_run = b.Min_search.sim.Simulation.rounds_run

let check_search_equivalent name search =
  let sequential = search () in
  List.iter
    (fun domains ->
      Array.iter
        (fun parallel ->
          match sequential, parallel with
          | None, None -> ()
          | Some a, Some b ->
            check
              (Printf.sprintf "%s: identical found (%d domains)" name domains)
              true (found_equal a b)
          | Some _, None | None, Some _ ->
            Alcotest.fail
              (Printf.sprintf "%s: presence differs at %d domains" name domains))
        (concurrently ~domains search))
    pool_sizes

let search_graphs =
  [ "path-2", Gen.label_with_ints (Gen.path 2);
    "cycle-4", Gen.label_with_ints (Gen.cycle 4);
    "cycle-5", Gen.label_with_ints (Gen.cycle 5);
    "random-5", Gen.label_with_ints (Gen.random_connected ~seed:3 5 0.5);
  ]

let test_search_equivalence_round_major () =
  List.iter
    (fun (name, g) ->
      check_search_equivalent (name ^ "/round-major") (fun () ->
          Min_search.minimal_successful
            ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty (Graph.n g))
            ~max_len:16 ()))
    search_graphs

let test_search_equivalence_orders_agree () =
  (* Round-major's minimal assignment, on the calling domain and on four
     concurrent domains, re-checked against the brute-force node-major
     enumeration: all runs must find a successful assignment of the same
     minimal length. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let solver = Anonet_algorithms.Rand_mis.algorithm in
  let base = Bit_assignment.empty 4 in
  let run () =
    Min_search.minimal_successful ~solver g ~base ~max_len:4 ()
  in
  match run (), Search_oracle.node_major_at_most ~solver g ~base ~max_len:4 with
  | Some rm, Some (nm, _) ->
    check_int "orders agree on minimal length"
      (Bit_assignment.max_length rm.Min_search.assignment)
      (Bit_assignment.max_length nm);
    Array.iter
      (function
        | Some rm' -> check "round-major concurrent identical" true (found_equal rm rm')
        | None -> Alcotest.fail "concurrent search lost the assignment")
      (concurrently ~domains:4 run)
  | _ -> Alcotest.fail "sequential search found nothing"

let test_search_equivalence_search_limit () =
  (* When the state budget bites, it must bite identically: every
     concurrent replica raises Search_limit_exceeded on the same
     instance. *)
  let g = Gen.label_with_ints (Gen.cycle 6) in
  let run () =
    match
      Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
        g
        ~base:(Bit_assignment.empty 6)
        ~max_states:40 ~max_len:16 ()
    with
    | _ -> Alcotest.fail "expected Search_limit_exceeded"
    | exception Min_search.Search_limit_exceeded -> ()
  in
  run ();
  List.iter (fun domains -> ignore (concurrently ~domains run)) pool_sizes

(* ---------- Branching_limit_exceeded: typed, on any domain ---------- *)

let test_branching_limit_round_major () =
  (* 25 free bits in round 1 exceeds the 2^24 branching limit: the typed
     exception, carrying the numbers, before any enumeration starts. *)
  let g25 = Gen.label_with_ints (Gen.cycle 25) in
  (match
     Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
       g25
       ~base:(Bit_assignment.empty 25)
       ~max_len:4 ()
   with
   | _ -> Alcotest.fail "expected Branching_limit_exceeded"
   | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
     check_int "free bits" 25 free_bits;
     check_int "limit" 24 limit);
  (* At the boundary itself (24 free bits) branching is allowed; a small
     state budget then stops the (legal but hopeless) enumeration with
     Search_limit_exceeded instead. *)
  let g24 = Gen.label_with_ints (Gen.cycle 24) in
  match
    Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
      g24
      ~base:(Bit_assignment.empty 24)
      ~max_states:100 ~max_len:4 ()
  with
  | _ -> Alcotest.fail "expected Search_limit_exceeded at the boundary"
  | exception Min_search.Search_limit_exceeded -> ()

let test_branching_limit_parallel_agrees () =
  (* A search on a spawned domain raises the same limit with the same
     payload, and [Pool.map] hands it back to the caller. *)
  let g25 = Gen.label_with_ints (Gen.cycle 25) in
  match
    concurrently ~domains:2 (fun () ->
        Min_search.minimal_successful
          ~solver:Anonet_algorithms.Rand_mis.algorithm g25
          ~base:(Bit_assignment.empty 25)
          ~max_len:4 ())
  with
  | _ -> Alcotest.fail "expected Branching_limit_exceeded"
  | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
    check_int "free bits" 25 free_bits;
    check_int "limit" 24 limit

let test_a_infinity_degrades_gracefully () =
  (* Through A_infinity the typed limits come back as Error strings, not
     exceptions.  A prime coloring keeps the view graph at 31 nodes, so
     the search's very first round branches on 31 free bits (limit 24). *)
  let g =
    Anonet_problems.Problem.attach_coloring (Gen.cycle 31)
      (Array.init 31 (fun v -> Label.Int v))
  in
  match A_infinity.solve ~gran:Anonet_algorithms.Bundles.mis g () with
  | Ok _ -> Alcotest.fail "expected a graceful error"
  | Error m ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check "mentions free bits" true (contains m "free bits")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map validates domains" `Quick test_pool_map_invalid;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "run hits each index once" `Quick
            test_pool_map_each_index_once;
          Alcotest.test_case "run propagates exceptions" `Quick
            test_pool_map_propagates_exception;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "row fan-out = sequential" `Quick
            test_experiment_fan_out;
        ] );
      ( "las-vegas",
        [
          Alcotest.test_case "equivalence: default budgets" `Quick
            test_lv_equivalence_easy;
          Alcotest.test_case "equivalence: forced retries" `Quick
            test_lv_equivalence_forced_retries;
          Alcotest.test_case "equivalence: no-success error" `Quick
            test_lv_equivalence_no_success_error;
          Alcotest.test_case "equivalence: under fault plan" `Quick
            test_lv_equivalence_under_faults;
          Alcotest.test_case "divergence threshold clamped" `Quick
            test_lv_divergence_threshold_clamped;
        ] );
      ( "min-search",
        [
          Alcotest.test_case "equivalence: round-major" `Quick
            test_search_equivalence_round_major;
          Alcotest.test_case "equivalence: orders agree" `Quick
            test_search_equivalence_orders_agree;
          Alcotest.test_case "equivalence: search limit" `Quick
            test_search_equivalence_search_limit;
        ] );
      ( "branching-limit",
        [
          Alcotest.test_case "round-major boundary" `Quick
            test_branching_limit_round_major;
          Alcotest.test_case "parallel agrees" `Quick
            test_branching_limit_parallel_agrees;
          Alcotest.test_case "a-infinity degrades gracefully" `Quick
            test_a_infinity_degrades_gracefully;
        ] );
    ]
