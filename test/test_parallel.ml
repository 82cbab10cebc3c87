(* Tests for the multicore execution layer: the domain pool itself, and
   the sequential-equivalence guarantees of the three parallelized hot
   paths — Las-Vegas attempt racing, the sharded minimal-simulation
   search, and (indirectly via those) the experiment row fan-out.  All
   equivalence tests run the same call with no pool and with pools of
   1, 2 and 4 domains and demand identical results, down to attempt
   counts, state counters and error strings. *)

open Anonet_graph
open Anonet
module Pool = Anonet_parallel.Pool
module Las_vegas = Anonet_runtime.Las_vegas
module Executor = Anonet_runtime.Executor
module Faults = Anonet_runtime.Faults
module Retransmit = Anonet_runtime.Retransmit
module Run_ctx = Anonet_runtime.Run_ctx

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let pool_sizes = [ 1; 2; 4 ]

(* ---------- Pool: the combinators themselves ---------- *)

let test_pool_create_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains < 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let test_pool_map_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          check_int (Printf.sprintf "domains reported (%d)" domains) domains
            (Pool.domains p);
          List.iter
            (fun n ->
              let input = Array.init n (fun i -> i) in
              let out = Pool.map p (fun i -> i * i) input in
              Alcotest.(check (array int))
                (Printf.sprintf "map %d items on %d domains" n domains)
                (Array.map (fun i -> i * i) input)
                out)
            [ 0; 1; 7; 100 ]))
    pool_sizes

let test_pool_run_each_index_once () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let n = 200 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.run p ~n (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i a ->
              check_int (Printf.sprintf "index %d on %d domains" i domains) 1
                (Atomic.get a))
            hits))
    pool_sizes

let test_pool_run_propagates_exception () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (match Pool.run p ~n:50 (fun i -> if i = 13 then failwith "boom-13") with
           | () -> Alcotest.fail "expected Failure"
           | exception Failure m ->
             check_string "first failure re-raised" "boom-13" m);
          (* The pool survives a failed job. *)
          let out = Pool.map p (fun i -> i + 1) (Array.init 10 (fun i -> i)) in
          Alcotest.(check (array int))
            "usable after failure"
            (Array.init 10 (fun i -> i + 1))
            out))
    pool_sizes

let test_pool_race_lowest_wins () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (* Several tasks succeed; the lowest index must win even if a
             higher one finishes first. *)
          let result =
            Pool.race p ~n:10 (fun ~stop:_ i ->
                if i = 3 || i = 5 || i = 8 then Some (i * 100) else None)
          in
          check (Printf.sprintf "winner 3 on %d domains" domains) true
            (result = Some (3, 300));
          let nobody = Pool.race p ~n:10 (fun ~stop:_ _ -> None) in
          check "all-None race" true (nobody = None);
          let empty = Pool.race p ~n:0 (fun ~stop:_ _ -> None) in
          check "empty race" true (empty = None)))
    pool_sizes

let test_pool_race_runs_everything_below_winner () =
  (* Sequential-equivalence core: every index below the winner must have
     run to completion (and returned None). *)
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let ran = Array.init 20 (fun _ -> Atomic.make false) in
          let result =
            Pool.race p ~n:20 (fun ~stop:_ i ->
                Atomic.set ran.(i) true;
                if i >= 11 then Some i else None)
          in
          check "winner 11" true (result = Some (11, 11));
          for i = 0 to 11 do
            check
              (Printf.sprintf "index %d ran (%d domains)" i domains)
              true
              (Atomic.get ran.(i))
          done))
    pool_sizes

let test_pool_shutdown () =
  let p = Pool.create ~domains:3 () in
  let out = Pool.map p string_of_int (Array.init 5 (fun i -> i)) in
  Alcotest.(check (array string))
    "before shutdown"
    [| "0"; "1"; "2"; "3"; "4" |]
    out;
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  (match Pool.map p string_of_int [| 1 |] with
   | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
   | exception Invalid_argument _ -> ())

(* ---------- Las-Vegas racing = sequential ---------- *)

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
  let sequential = solve None in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let parallel = solve (Some p) in
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
                 f.Las_vegas.message domains)))
    pool_sizes

let test_lv_equivalence_easy () =
  (* Default budgets: the first attempt almost always succeeds; racing
     must agree on attempt 1 and its outcome. *)
  List.iter
    (fun (name, g) ->
      check_lv_equivalent name (fun pool ->
          Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm g ~seed:7 ~ctx:(Run_ctx.make ?pool ()) ()))
    equivalence_graphs

let test_lv_equivalence_forced_retries () =
  (* A starvation budget forces several failed attempts before the
     backoff escalates far enough: racing must charge exactly the same
     failed budgets and stop at the same attempt. *)
  List.iter
    (fun (name, g) ->
      check_lv_equivalent (name ^ "/tight") (fun pool ->
          Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm g ~seed:3
            ~max_rounds:1 ~attempts:25 ~ctx:(Run_ctx.make ?pool ()) ()))
    equivalence_graphs

let test_lv_equivalence_no_success_error () =
  (* backoff 1.0 with a hopeless budget: every attempt fails, and the
     no-success error string must match the sequential one verbatim. *)
  check_lv_equivalent "no-success" (fun pool ->
      Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
        ~seed:2 ~max_rounds:1 ~backoff:1.0 ~attempts:6 ~ctx:(Run_ctx.make ?pool ()) ())

let test_lv_equivalence_giveup_error () =
  (* The give-up truncation point is budget arithmetic only; both paths
     must cut the schedule at the same attempt and render the same cap
     message. *)
  check_lv_equivalent "giveup" (fun pool ->
      Las_vegas.solve Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
        ~seed:2 ~max_rounds:2 ~giveup:20 ~attempts:10 ~ctx:(Run_ctx.make ?pool ()) ())

let test_lv_equivalence_under_faults () =
  (* A lossy fault plan (fresh injector per attempt) behind the
     retransmission wrapper: outcomes stay pure functions of the attempt
     index, so racing still reconstructs the sequential report. *)
  let wrapped = Retransmit.wrap Anonet_algorithms.Rand_mis.algorithm in
  List.iter
    (fun (name, g) ->
      check_lv_equivalent (name ^ "/faults") (fun pool ->
          Las_vegas.solve
            ~ctx:(Run_ctx.make ~faults:(Faults.with_loss 0.15 ~seed:9) ?pool ())
            wrapped g ~seed:11 ()))
    [ "cycle-6", Gen.cycle 6; "petersen", Gen.petersen () ]

let test_lv_backoff_overflow_clamped () =
  (* Regression: backoff 10 reaches 10^29 * base_rounds long before
     attempt 30 — budgets must clamp at max_int / 2 instead of wrapping
     negative through int_of_float.  With a give-up cap the run must stop
     with the cap message (a wrapped negative budget would either sail
     past the cap or turn the budget arithmetic nonsensical). *)
  let r =
    Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
      ~seed:2 ~max_rounds:1 ~backoff:10.0 ~attempts:30 ~giveup:1000 ()
  in
  (match r with
   | Ok _ -> ()
   | Error m ->
     check "giveup message mentions the cap" true
       (let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        contains m "giving up"));
  (* And without a cap: 30 attempts with clamped budgets must terminate
     (attempt budgets saturate at max_int / 2 — success comes quickly once
     the budget is astronomically generous). *)
  match
    Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
      ~seed:2 ~max_rounds:1 ~backoff:10.0 ~attempts:30 ()
  with
  | Ok r -> check "eventually succeeds" true (r.Las_vegas.attempts >= 1)
  | Error m -> Alcotest.fail ("expected success with clamped budgets: " ^ m)

(* ---------- Min_search sharding = sequential ---------- *)

let found_equal (a : Min_search.found) (b : Min_search.found) =
  a.Min_search.states_explored = b.Min_search.states_explored
  && Array.length a.Min_search.assignment = Array.length b.Min_search.assignment
  && Array.for_all2 Bits.equal a.Min_search.assignment b.Min_search.assignment
  && a.Min_search.sim.Simulation.successful = b.Min_search.sim.Simulation.successful
  && a.Min_search.sim.Simulation.rounds_run = b.Min_search.sim.Simulation.rounds_run

let check_search_equivalent name search =
  let sequential = search None in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let parallel = search (Some p) in
          match sequential, parallel with
          | None, None -> ()
          | Some a, Some b ->
            check
              (Printf.sprintf "%s: identical found (%d domains)" name domains)
              true (found_equal a b)
          | Some _, None | None, Some _ ->
            Alcotest.fail
              (Printf.sprintf "%s: presence differs at %d domains" name domains)))
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
      check_search_equivalent (name ^ "/round-major") (fun pool ->
          Min_search.minimal_successful
            ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty (Graph.n g))
            ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 16) ()))
    search_graphs

let test_search_equivalence_orders_agree () =
  (* Round-major's minimal assignment, sequential and pooled, re-checked
     against the brute-force node-major enumeration: all runs must find a
     successful assignment of the same minimal length. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let solver = Anonet_algorithms.Rand_mis.algorithm in
  let base = Bit_assignment.empty 4 in
  let run pool =
    Min_search.minimal_successful ~solver g ~base ~ctx:(Run_ctx.make ?pool ())
      ~len:(Min_search.At_most 4) ()
  in
  match run None, Search_oracle.node_major_at_most ~solver g ~base ~max_len:4 with
  | Some rm, Some (nm, _) ->
    check_int "orders agree on minimal length"
      (Bit_assignment.max_length rm.Min_search.assignment)
      (Bit_assignment.max_length nm);
    Pool.with_pool ~domains:4 (fun p ->
        match run (Some p) with
        | Some rm' -> check "round-major parallel identical" true (found_equal rm rm')
        | None -> Alcotest.fail "parallel search lost the assignment")
  | _ -> Alcotest.fail "sequential search found nothing"

let test_search_equivalence_search_limit () =
  (* When the state budget bites, it must bite identically: both modes
     raise Search_limit_exceeded on the same instance. *)
  let g = Gen.label_with_ints (Gen.cycle 6) in
  let run pool =
    match
      Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
        g
        ~base:(Bit_assignment.empty 6)
        ~max_states:40 ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 16) ()
    with
    | _ -> Alcotest.fail "expected Search_limit_exceeded"
    | exception Min_search.Search_limit_exceeded -> ()
  in
  run None;
  List.iter
    (fun domains -> Pool.with_pool ~domains (fun p -> run (Some p)))
    pool_sizes

(* ---------- Branching_limit_exceeded: typed, both execution modes ---------- *)

let test_branching_limit_round_major () =
  (* 25 free bits in round 1 exceeds the 2^24 branching limit: the typed
     exception, carrying the numbers, before any enumeration starts. *)
  let g25 = Gen.label_with_ints (Gen.cycle 25) in
  (match
     Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
       g25
       ~base:(Bit_assignment.empty 25)
       ~len:(Min_search.At_most 4) ()
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
      ~max_states:100 ~len:(Min_search.At_most 4) ()
  with
  | _ -> Alcotest.fail "expected Search_limit_exceeded at the boundary"
  | exception Min_search.Search_limit_exceeded -> ()

let test_branching_limit_parallel_agrees () =
  (* The parallel paths enforce the same limits with the same payload. *)
  Pool.with_pool ~domains:2 (fun p ->
      let g25 = Gen.label_with_ints (Gen.cycle 25) in
      (match
         Min_search.minimal_successful
           ~solver:Anonet_algorithms.Rand_mis.algorithm g25
           ~base:(Bit_assignment.empty 25)
           ~ctx:(Run_ctx.make ~pool:p ()) ~len:(Min_search.At_most 4) ()
       with
       | _ -> Alcotest.fail "expected Branching_limit_exceeded"
       | exception Min_search.Branching_limit_exceeded { free_bits; limit } ->
         check_int "free bits" 25 free_bits;
         check_int "limit" 24 limit))

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

(* ---------- QCheck: equivalence on random graphs ---------- *)

let qcheck_lv_equivalence =
  QCheck.Test.make ~name:"las-vegas racing = sequential on random graphs"
    ~count:12
    QCheck.(pair (int_range 4 10) (int_range 1 1000))
    (fun (n, seed) ->
      let g = Gen.random_connected ~seed n 0.35 in
      let solve pool =
        Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm g ~seed
          ~max_rounds:4 ~attempts:15 ~ctx:(Run_ctx.make ?pool ()) ()
      in
      let sequential = solve None in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              match sequential, solve (Some p) with
              | Ok a, Ok b -> report_equal a b
              | Error a, Error b ->
                a.Las_vegas.reason = b.Las_vegas.reason
                && String.equal a.Las_vegas.message b.Las_vegas.message
              | _ -> false))
        [ 2; 4 ])

let qcheck_search_equivalence =
  QCheck.Test.make ~name:"sharded min-search = sequential on random graphs"
    ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed 4 0.5) in
      let search pool =
        Min_search.minimal_successful
          ~solver:Anonet_algorithms.Rand_mis.algorithm g
          ~base:(Bit_assignment.empty 4) ~ctx:(Run_ctx.make ?pool ()) ~len:(Min_search.At_most 6)
          ()
      in
      let sequential = search None in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              match sequential, search (Some p) with
              | None, None -> true
              | Some a, Some b -> found_equal a b
              | _ -> false))
        [ 2; 4 ])

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create validates" `Quick test_pool_create_invalid;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "run hits each index once" `Quick
            test_pool_run_each_index_once;
          Alcotest.test_case "run propagates exceptions" `Quick
            test_pool_run_propagates_exception;
          Alcotest.test_case "race: lowest index wins" `Quick
            test_pool_race_lowest_wins;
          Alcotest.test_case "race: runs everything below winner" `Quick
            test_pool_race_runs_everything_below_winner;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "las-vegas",
        [
          Alcotest.test_case "equivalence: default budgets" `Quick
            test_lv_equivalence_easy;
          Alcotest.test_case "equivalence: forced retries" `Quick
            test_lv_equivalence_forced_retries;
          Alcotest.test_case "equivalence: no-success error" `Quick
            test_lv_equivalence_no_success_error;
          Alcotest.test_case "equivalence: give-up error" `Quick
            test_lv_equivalence_giveup_error;
          Alcotest.test_case "equivalence: under fault plan" `Quick
            test_lv_equivalence_under_faults;
          Alcotest.test_case "backoff overflow clamped" `Quick
            test_lv_backoff_overflow_clamped;
          QCheck_alcotest.to_alcotest qcheck_lv_equivalence;
        ] );
      ( "min-search",
        [
          Alcotest.test_case "equivalence: round-major" `Quick
            test_search_equivalence_round_major;
          Alcotest.test_case "equivalence: orders agree" `Quick
            test_search_equivalence_orders_agree;
          Alcotest.test_case "equivalence: search limit" `Quick
            test_search_equivalence_search_limit;
          QCheck_alcotest.to_alcotest qcheck_search_equivalence;
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
