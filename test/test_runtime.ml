(* Tests for the runtime: tapes, the synchronous executor, incremental
   execution, and the Las-Vegas harness. *)

open Anonet_graph
open Anonet_runtime

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* A tiny deterministic algorithm: output your degree after one round. *)
let degree_reporter : Algorithm.t =
  (module struct
    type state = {
      degree : int;
      out : Label.t option;
    }

    let name = "degree-reporter"

    let init ~input:_ ~degree = { degree; out = None }

    let round s ~bit:_ ~inbox:_ =
      { s with out = Some (Label.Int s.degree) }, Algorithm.silence ~degree:s.degree

    let output s = s.out

    let flat = None
  end)

(* Echo: round 1 send own label; round 2 output the multiset received. *)
let gossip : Algorithm.t =
  (module struct
    type state = {
      degree : int;
      input : Label.t;
      round_no : int;
      out : Label.t option;
    }

    let name = "gossip"

    let init ~input ~degree = { degree; input; round_no = 0; out = None }

    let round s ~bit:_ ~inbox =
      let s = { s with round_no = s.round_no + 1 } in
      if s.round_no = 1 then s, Algorithm.broadcast ~degree:s.degree s.input
      else begin
        let received =
          List.sort Label.compare (List.filter_map Fun.id (Array.to_list inbox))
        in
        { s with out = Some (Label.List received) }, Algorithm.silence ~degree:s.degree
      end

    let output s = s.out

    let flat = None
  end)

(* Bit collector: outputs its first three random bits. *)
let bit_collector : Algorithm.t =
  (module struct
    type state = {
      degree : int;
      bits : Bits.t;
      out : Label.t option;
    }

    let name = "bit-collector"

    let init ~input:_ ~degree = { degree; bits = Bits.empty; out = None }

    let round s ~bit ~inbox:_ =
      let bits = Bits.append s.bits bit in
      let s = { s with bits } in
      let s = if Bits.length bits = 3 then { s with out = Some (Label.Bits bits) } else s in
      s, Algorithm.silence ~degree:s.degree

    let output s = s.out

    let flat = None
  end)

(* A buggy algorithm that revokes its output: must be rejected.  Degree-1
   nodes output at round 1 and change their answer at round 2; other nodes
   stay silent so the execution is still running when the change happens. *)
let revoker : Algorithm.t =
  (module struct
    type state = {
      degree : int;
      round_no : int;
    }

    let name = "revoker"

    let init ~input:_ ~degree = { degree; round_no = 0 }

    let round s ~bit:_ ~inbox:_ =
      { s with round_no = s.round_no + 1 }, Algorithm.silence ~degree:s.degree

    let output s =
      if s.degree = 1 && s.round_no >= 1 then Some (Label.Int s.round_no) else None

    let flat = None
  end)

(* ---------- Tape ---------- *)

let test_tape_random_deterministic () =
  let t1 = Tape.random ~seed:5 and t2 = Tape.random ~seed:5 in
  for node = 0 to 3 do
    for round = 1 to 10 do
      Alcotest.(check (option bool))
        "same seed same bit"
        (Tape.bit t1 ~node ~round)
        (Tape.bit t2 ~node ~round)
    done
  done;
  (* different seeds differ somewhere *)
  let t3 = Tape.random ~seed:6 in
  let differs = ref false in
  for node = 0 to 3 do
    for round = 1 to 10 do
      if Tape.bit t1 ~node ~round <> Tape.bit t3 ~node ~round then differs := true
    done
  done;
  check "different seed differs" true !differs

let test_tape_fixed () =
  let t = Tape.fixed [| Bits.of_string "101"; Bits.of_string "0" |] in
  Alcotest.(check (option bool)) "node0 r1" (Some true) (Tape.bit t ~node:0 ~round:1);
  Alcotest.(check (option bool)) "node0 r2" (Some false) (Tape.bit t ~node:0 ~round:2);
  Alcotest.(check (option bool)) "node0 r4 exhausted" None (Tape.bit t ~node:0 ~round:4);
  Alcotest.(check (option bool)) "node1 r2 exhausted" None (Tape.bit t ~node:1 ~round:2);
  check_int "horizon" 1 (Tape.horizon t ~nodes:2);
  check_int "zero horizon" max_int (Tape.horizon Tape.zero ~nodes:5)

(* The counter-mode tape is splitmix64 seeded per (seed, node, round):
   its bits are fixed, whatever computes them. *)
let test_tape_random_bits_pinned () =
  List.iter
    (fun seed ->
      let t = Tape.random ~seed in
      let bits = Bitvec.create 40 in
      for round = 1 to 12 do
        check "fill succeeds" true (Tape.fill t ~round bits);
        for node = 0 to 39 do
          let expected =
            Prng.bool (Prng.create ((seed * 1_000_003) + (node * 7_919) + round))
          in
          Alcotest.(check (option bool)) "bit" (Some expected) (Tape.bit t ~node ~round);
          check "fill" expected (Bitvec.get bits node)
        done
      done)
    [ 0; 1; 5; 31337; -9 ]

(* ---------- Executor ---------- *)

let test_executor_runs () =
  let g = Gen.star 3 in
  match Executor.run degree_reporter g ~tape:Tape.zero ~max_rounds:5 with
  | Error _ -> Alcotest.fail "should finish"
  | Ok { outputs; rounds; _ } ->
    check_int "one round" 1 rounds;
    check "hub degree" true (Label.equal outputs.(0) (Label.Int 3));
    check "leaf degree" true (Label.equal outputs.(1) (Label.Int 1))

let test_executor_message_delivery () =
  let g = Graph.relabel (Gen.path 3) (fun v -> Label.Int (10 * v)) in
  match Executor.run gossip g ~tape:Tape.zero ~max_rounds:5 with
  | Error _ -> Alcotest.fail "should finish"
  | Ok { outputs; messages; _ } ->
    (* middle node hears both ends *)
    check "middle hears ends" true
      (Label.equal outputs.(1) (Label.List [ Label.Int 0; Label.Int 20 ]));
    check "end hears middle" true (Label.equal outputs.(0) (Label.List [ Label.Int 10 ]));
    check_int "messages = 2 * edges" 4 messages

let test_executor_fixed_tape_feeds_bits () =
  let g = Gen.path 2 in
  let tape = Tape.fixed [| Bits.of_string "101"; Bits.of_string "011" |] in
  match Executor.run bit_collector g ~tape ~max_rounds:5 with
  | Error _ -> Alcotest.fail "should finish"
  | Ok { outputs; _ } ->
    check "node0 bits" true (Label.equal outputs.(0) (Label.Bits (Bits.of_string "101")));
    check "node1 bits" true (Label.equal outputs.(1) (Label.Bits (Bits.of_string "011")))

let test_executor_tape_exhaustion () =
  let g = Gen.path 2 in
  let tape = Tape.fixed [| Bits.of_string "10"; Bits.of_string "01" |] in
  match Executor.run bit_collector g ~tape ~max_rounds:5 with
  | Error (Executor.Tape_exhausted { round }) -> check_int "exhausted at 3" 3 round
  | Ok _ | Error _ -> Alcotest.fail "expected tape exhaustion"

let test_executor_max_rounds () =
  let g = Gen.path 2 in
  (* gossip finishes in 2; give it 1 *)
  match Executor.run gossip g ~tape:Tape.zero ~max_rounds:1 with
  | Error (Executor.Max_rounds_exceeded 1) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected max-rounds failure"

let test_executor_rejects_revocation () =
  let g = Gen.path 3 in
  Alcotest.check_raises "revocation"
    (Invalid_argument "Executor.step: revoker revoked an irrevocable output")
    (fun () -> ignore (Executor.run revoker g ~tape:Tape.zero ~max_rounds:5))

(* ---------- Incremental ---------- *)

(* Searches branch: a state stepped twice from the same parent yields
   two independent children, each what the driver computes for its own
   bits, and the parent is untouched. *)
let test_incremental_persistence () =
  let g = Gen.path 3 in
  let mis = Anonet_algorithms.Rand_mis.algorithm in
  let step e bits =
    fst
      (Executor.Incremental.probe_commit
         (Executor.Incremental.probe_vec e ~bits:(Bitvec.of_bool_array bits)))
  in
  let driven rows =
    (Anonet.Simulation.run ~solver:mis g ~bits:(Array.map Bits.of_string rows))
      .Anonet.Simulation.outputs
  in
  let outputs = Alcotest.(array (option (testable Label.pp Label.equal))) in
  let e0 = Executor.Incremental.start mis g in
  let e1 = step e0 [| true; false; false |] in
  let key1 = Executor.Incremental.dedup_key e1 in
  (* branch: from e1, two different second rounds *)
  let e2a = step e1 [| true; true; true |] in
  let e2b = step e1 [| false; true; false |] in
  let e3a = step e2a [| true; false; true |] in
  let e3b = step e2b [| false; false; false |] in
  Alcotest.check outputs "branch a" (driven [| "111"; "010"; "011" |])
    (Executor.Incremental.outputs e3a);
  Alcotest.check outputs "branch b" (driven [| "100"; "010"; "000" |])
    (Executor.Incremental.outputs e3b);
  check "branches differ" false
    (Executor.Incremental.Key.equal
       (Executor.Incremental.dedup_key e3a)
       (Executor.Incremental.dedup_key e3b));
  check "e1 unchanged" true
    (Executor.Incremental.Key.equal key1 (Executor.Incremental.dedup_key e1));
  Alcotest.check outputs "e1 outputs" (driven [| "1"; "0"; "0" |])
    (Executor.Incremental.outputs e1)

(* A hook-free run on the in-place flat machine allocates nothing per
   node: for every catalog solver, the minor words allocated between the
   driver's notes of round 4 and of its last round (24 at most) stay
   under a small constant per round, on a graph of thousands of nodes.
   Reading the counter between notes keeps the run's set-up and its
   final [outputs] out of the per-round figure. *)
let test_flat_round_allocates_nothing () =
  let g = Gen.torus 60 60 in
  List.iter
    (fun (name, algo) ->
      let first = ref 0.0 and last = ref (0, 0.0) in
      let note ~round ~messages:_ ~has_output:_ =
        if round = 4 then first := Gc.minor_words ()
        else if round > 4 then last := (round, Gc.minor_words ())
      in
      let e =
        Executor.drive ~note Executor.no_hooks algo g ~tape:(Tape.random ~seed:3)
          ~max_rounds:24
      in
      (match e.Executor.failure with
       | None | Some (Executor.Max_rounds_exceeded _) -> ()
       | Some f -> Alcotest.failf "%s: %a" name Executor.pp_failure f);
      let r, w = !last in
      check (name ^ ": at least 10 rounds measured") true (r - 4 >= 10);
      let per_round = (w -. !first) /. float_of_int (r - 4) in
      if per_round > 64.0 then
        Alcotest.failf "%s: %.0f minor words per round on %d nodes" name per_round
          (Graph.n g))
    [ "mis", Anonet_algorithms.Rand_mis.algorithm;
      "coloring", Anonet_algorithms.Rand_coloring.algorithm;
      "matching", Anonet_algorithms.Rand_matching.algorithm;
      "2hop", Anonet_algorithms.Rand_two_hop.algorithm ]

(* Never outputs: for exercising the Las-Vegas failure paths. *)
let never : Algorithm.t =
  (module struct
    type state = int

    let name = "never"

    let init ~input:_ ~degree = degree

    let round s ~bit:_ ~inbox:_ = s, Algorithm.silence ~degree:s

    let output _ = None

    let flat = None
  end)

(* ---------- Las Vegas ---------- *)

let test_las_vegas_solves () =
  let g = Gen.cycle 5 in
  match Las_vegas.solve_msg Anonet_algorithms.Rand_coloring.algorithm g ~seed:1 () with
  | Error m -> Alcotest.fail m
  | Ok { outcome; attempts; _ } ->
    check "valid coloring" true
      (Anonet_problems.Catalog.coloring.Anonet_problems.Problem.is_valid_output g
         outcome.Executor.outputs);
    check "few attempts" true (attempts <= 3)

let test_las_vegas_deterministic_given_seed () =
  let g = Gen.cycle 5 in
  let run () =
    match Las_vegas.solve_msg Anonet_algorithms.Rand_coloring.algorithm g ~seed:3 () with
    | Error m -> Alcotest.fail m
    | Ok r -> r.Las_vegas.outcome.Executor.outputs
  in
  let o1 = run () and o2 = run () in
  check "same seed same run" true (Array.for_all2 Label.equal o1 o2)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_las_vegas_error_includes_failure () =
  let g = Gen.path 2 in
  match Las_vegas.solve_msg never g ~seed:1 ~max_rounds:5 ~attempts:2 () with
  | Ok _ -> Alcotest.fail "never must not succeed"
  | Error m ->
    check "counts the attempts" true (contains "no success in 2 attempts" m);
    check "includes the last failure" true (contains "no output after" m);
    check "includes the budget" true (contains "budget" m)

let test_las_vegas_backoff_escalates () =
  (* Budgets double: 5, 10 — 15 rounds total when both fail. *)
  let g = Gen.path 2 in
  match Las_vegas.solve_msg never g ~seed:1 ~max_rounds:5 ~attempts:2 () with
  | Ok _ -> Alcotest.fail "never must not succeed"
  | Error m -> check "second budget doubled" true (contains "budget 10" m)

let test_las_vegas_reports_rounds_spent () =
  let g = Gen.cycle 5 in
  match Las_vegas.solve_msg Anonet_algorithms.Rand_coloring.algorithm g ~seed:1 () with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check "spent at least the final run" true
      (r.Las_vegas.rounds_spent >= r.Las_vegas.outcome.Executor.rounds)

let test_prng_hash2 () =
  let h = Prng.hash2 in
  check "deterministic" true (h 1 2 = h 1 2);
  check "argument order matters" true (h 1 2 <> h 2 1);
  check "second arg decorrelates" true (h 1 2 <> h 1 3);
  check "non-negative (usable as a seed)" true
    (List.for_all (fun (a, b) -> h a b >= 0)
       [ 0, 0; 1, 1; -5, 3; max_int, 2; min_int, min_int ])

(* ---------- Trace ---------- *)

let test_trace_records () =
  let g = Gen.cycle 5 in
  match
    Trace.record Anonet_algorithms.Rand_coloring.algorithm g
      ~tape:(Tape.random ~seed:6) ~max_rounds:400
  with
  | Error _ -> Alcotest.fail "should finish"
  | Ok (t, outcome) ->
    check_int "rounds agree" outcome.Executor.rounds (Trace.rounds t);
    let per_round = Trace.messages_by_round t in
    check_int "message totals agree" outcome.Executor.messages
      (List.fold_left ( + ) 0 per_round);
    Array.iter
      (fun r ->
        match r with
        | Some r -> check "output round within run" true (r >= 1 && r <= Trace.rounds t)
        | None -> Alcotest.fail "every node must have an output round")
      (Trace.output_rounds t);
    let rendering = Trace.render t in
    check "render mentions every node" true
      (List.for_all
         (fun v ->
           let needle = Printf.sprintf "node %2d" v in
           let rec contains i =
             i + String.length needle <= String.length rendering
             && (String.sub rendering i (String.length needle) = needle
                 || contains (i + 1))
           in
           contains 0)
         (List.init 5 Fun.id))

let test_trace_partial_on_failure () =
  let g = Gen.path 3 in
  match Trace.record gossip g ~tape:Tape.zero ~max_rounds:1 with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (t, Executor.Max_rounds_exceeded 1) -> check_int "partial trace" 1 (Trace.rounds t)
  | Error (_, _) -> Alcotest.fail "wrong failure"

(* ---------- Async / α-synchronizer ---------- *)

let schedulers =
  [ "fifo", Async.Fifo;
    "random-3", Async.Random_delay { seed = 11; max_delay = 3 };
    "random-9", Async.Random_delay { seed = 12; max_delay = 9 };
    "skewed", Async.Skewed { seed = 13; max_delay = 7; slow_node = 0 };
  ]

let test_async_matches_sync () =
  (* The α-synchronizer must reproduce the synchronous outputs exactly,
     with the same tape, under every scheduler. *)
  let cases =
    [ "gossip/path4", gossip, Gen.path 4, Tape.zero;
      "bits/path3", bit_collector, Gen.path 3, Tape.random ~seed:5;
      "2hop/c5", Anonet_algorithms.Rand_two_hop.algorithm, Gen.cycle 5,
      Tape.random ~seed:2;
      "mis/petersen", Anonet_algorithms.Rand_mis.algorithm, Gen.petersen (),
      Tape.random ~seed:3;
      "matching/c6", Anonet_algorithms.Rand_matching.algorithm, Gen.cycle 6,
      Tape.random ~seed:4;
    ]
  in
  List.iter
    (fun (name, algo, g, tape) ->
      let sync =
        match Executor.run algo g ~tape ~max_rounds:3000 with
        | Ok o -> o.Executor.outputs
        | Error e -> Alcotest.failf "sync %s: %a" name Executor.pp_failure e
      in
      List.iter
        (fun (sname, scheduler) ->
          match Async.run algo g ~tape ~scheduler ~max_events:2_000_000 with
          | Error e -> Alcotest.failf "async %s/%s: %a" name sname Async.pp_failure e
          | Ok { outputs; _ } ->
            check
              (Printf.sprintf "%s under %s matches sync" name sname)
              true
              (Array.for_all2 Label.equal sync outputs))
        schedulers)
    cases

let test_async_single_node () =
  let g = Gen.path 1 in
  match
    Async.run Anonet_algorithms.Rand_mis.algorithm g ~tape:(Tape.random ~seed:1)
      ~scheduler:Async.Fifo ~max_events:1000
  with
  | Error e -> Alcotest.failf "single node: %a" Async.pp_failure e
  | Ok { outputs; _ } ->
    check "joins alone" true (Label.equal outputs.(0) (Label.Bool true))

let test_async_virtual_rounds () =
  (* The synchronizer's virtual round count matches the synchronous round
     count (up to the final round bookkeeping). *)
  let g = Gen.cycle 5 in
  let tape = Tape.random ~seed:9 in
  let algo = Anonet_algorithms.Rand_coloring.algorithm in
  let sync =
    match Executor.run algo g ~tape ~max_rounds:500 with
    | Ok o -> o.Executor.rounds
    | Error _ -> Alcotest.fail "sync failed"
  in
  match Async.run algo g ~tape ~scheduler:Async.Fifo ~max_events:100_000 with
  | Error e -> Alcotest.failf "async: %a" Async.pp_failure e
  | Ok { virtual_rounds; _ } ->
    check "round counts close" true (abs (virtual_rounds - sync) <= 1)

let test_synchronizer_equivalence_suite () =
  (* Satellite: Async.run ≡ Executor.run for every fault-free scheduler on
     cycles, hypercubes, and random connected graphs. *)
  let graphs =
    [ "cycle6", Gen.cycle 6;
      "hypercube3", Gen.hypercube 3;
      "random(10,.3)", Gen.random_connected ~seed:42 10 0.3;
    ]
  in
  let all_schedulers =
    [ "fifo", Async.Fifo;
      "random-delay-6", Async.Random_delay { seed = 21; max_delay = 6 };
      "skewed-6", Async.Skewed { seed = 22; max_delay = 6; slow_node = 1 };
    ]
  in
  List.iter
    (fun (gname, g) ->
      let tape = Tape.random ~seed:31 in
      let algo = Anonet_algorithms.Rand_two_hop.algorithm in
      let sync =
        match Executor.run algo g ~tape ~max_rounds:5000 with
        | Ok o -> o.Executor.outputs
        | Error e -> Alcotest.failf "sync %s: %a" gname Executor.pp_failure e
      in
      List.iter
        (fun (sname, scheduler) ->
          match Async.run algo g ~tape ~scheduler ~max_events:4_000_000 with
          | Error e -> Alcotest.failf "%s/%s: %a" gname sname Async.pp_failure e
          | Ok { outputs; _ } ->
            check
              (Printf.sprintf "%s under %s = sync" gname sname)
              true
              (Array.for_all2 Label.equal sync outputs))
        all_schedulers)
    graphs

let test_sample_delay_range () =
  (* Satellite regression: every scheduler draws delays from the documented
     1..max_delay range — no off-by-one at either endpoint. *)
  let max_delay = 5 in
  let draws scheduler ~source =
    let rng = Prng.create 17 in
    List.init 2000 (fun _ -> Async.sample_delay scheduler rng ~source)
  in
  let rd = draws (Async.Random_delay { seed = 0; max_delay }) ~source:0 in
  check "random-delay within 1..max" true
    (List.for_all (fun d -> d >= 1 && d <= max_delay) rd);
  check "random-delay hits 1" true (List.mem 1 rd);
  check "random-delay hits max" true (List.mem max_delay rd);
  let sk_fast =
    draws (Async.Skewed { seed = 0; max_delay; slow_node = 3 }) ~source:0
  in
  check "skewed (fast node) within 1..max" true
    (List.for_all (fun d -> d >= 1 && d <= max_delay) sk_fast);
  check "skewed (fast node) hits 1" true (List.mem 1 sk_fast);
  check "skewed (fast node) hits max" true (List.mem max_delay sk_fast);
  let sk_slow =
    draws (Async.Skewed { seed = 0; max_delay; slow_node = 3 }) ~source:3
  in
  check "skewed slow node pinned to max" true
    (List.for_all (( = ) max_delay) sk_slow);
  check "fifo is always 1" true
    (List.for_all (( = ) 1) (draws Async.Fifo ~source:0));
  (* degenerate max_delay values still give a sane delay >= 1 *)
  List.iter
    (fun md ->
      check
        (Printf.sprintf "max_delay=%d still delays by 1" md)
        true
        (List.for_all (( = ) 1) (draws (Async.Random_delay { seed = 0; max_delay = md }) ~source:0)))
    [ 0; 1 ]

let test_async_event_limit () =
  match
    Async.run Anonet_algorithms.Rand_two_hop.algorithm (Gen.cycle 6)
      ~tape:(Tape.random ~seed:1) ~scheduler:Async.Fifo ~max_events:5
  with
  | Error (Async.Event_limit_exceeded 5) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected event-limit failure"

(* ---------- one round policy: Trace.record = Executor.run = Simulation.run ---------- *)

let driver_algorithms =
  [ "rand-mis", Anonet_algorithms.Rand_mis.algorithm;
    "rand-2hop", Anonet_algorithms.Rand_two_hop.algorithm;
    "rand-coloring", Anonet_algorithms.Rand_coloring.algorithm;
    "rand-matching", Anonet_algorithms.Rand_matching.algorithm ]

(* A fresh context per run: a context only holds plans, but each run
   instantiates its own injector from them, so equal contexts must give
   equal runs. *)
let driver_contexts seed =
  [ "no hooks", (fun () -> Run_ctx.default);
    ( "faults",
      fun () ->
        match Faults.plan_of_string (Printf.sprintf "loss=0.2,crash=0@2..4,seed=%d" seed) with
        | Ok plan -> Run_ctx.make ~faults:plan ()
        | Error m -> failwith m );
    "scramble", (fun () -> Run_ctx.make ~scramble_seed:seed ());
    ( "adversary",
      fun () ->
        Run_ctx.make ~adversary:(Adversary.byzantine [ 0 ] ~strength:0.5 ~seed) () ) ]

(* An algorithm may reject a message a fault mangled; both entry points
   must then raise the same exception. *)
let catch f = match f () with r -> Ok r | exception Invalid_argument m -> Error m

let prop_trace_equals_run =
  QCheck.Test.make ~name:"Trace.record = Executor.run on random graphs" ~count:30
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 9)))
    (fun (seed, n) ->
      let g = Gen.random_connected ~seed n 0.4 in
      List.for_all
        (fun (aname, algo) ->
          List.for_all
            (fun (cname, ctx) ->
              let tape = Tape.random ~seed in
              let run =
                catch (fun () -> Executor.run ~ctx:(ctx ()) algo g ~tape ~max_rounds:300)
              in
              let traced =
                catch (fun () ->
                    match Trace.record ~ctx:(ctx ()) algo g ~tape ~max_rounds:300 with
                    | Ok (t, o) ->
                      check_int
                        (Printf.sprintf "%s/%s: trace rounds" aname cname)
                        o.Executor.rounds (Trace.rounds t);
                      Ok o
                    | Error (_, f) -> Error f)
              in
              if run <> traced then
                QCheck.Test.fail_reportf "%s under %s: traced run differs" aname cname;
              true)
            (driver_contexts seed))
        driver_algorithms)

let prop_simulation_equals_run =
  QCheck.Test.make ~name:"Simulation.run = Executor.run on a fixed tape" ~count:40
    (QCheck.make
       ~print:(fun (seed, n, len) -> Printf.sprintf "seed=%d n=%d len=%d" seed n len)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 8) (int_range 0 14)))
    (fun (seed, n, len) ->
      let g = Gen.random_connected ~seed n 0.4 in
      let rng = Prng.create seed in
      let bits =
        Array.init (Graph.n g) (fun _ ->
            Bits.of_list (List.init (len + Prng.int rng 3) (fun _ -> Prng.bool rng)))
      in
      List.for_all
        (fun (aname, algo) ->
          let sim = Anonet.Simulation.run ~solver:algo g ~bits in
          let run = Executor.run algo g ~tape:(Tape.fixed bits) ~max_rounds:max_int in
          (match run with
           | Ok o when sim.Anonet.Simulation.successful ->
             if
               o.Executor.rounds <> sim.rounds_run
               || o.Executor.outputs <> Array.map Option.get sim.outputs
             then QCheck.Test.fail_reportf "%s: outcomes differ" aname
           | Error (Executor.Tape_exhausted { round })
             when not sim.Anonet.Simulation.successful ->
             check_int (aname ^ ": exhausted after the simulation") (sim.rounds_run + 1)
               round
           | Ok _ | Error _ ->
             QCheck.Test.fail_reportf "%s: simulation and run disagree on success" aname);
          true)
        driver_algorithms)

let () =
  Alcotest.run "anonet_runtime"
    [
      ( "tape",
        [
          Alcotest.test_case "random deterministic" `Quick test_tape_random_deterministic;
          Alcotest.test_case "fixed" `Quick test_tape_fixed;
          Alcotest.test_case "random bits pinned" `Quick test_tape_random_bits_pinned;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs" `Quick test_executor_runs;
          Alcotest.test_case "message delivery" `Quick test_executor_message_delivery;
          Alcotest.test_case "fixed tape bits" `Quick test_executor_fixed_tape_feeds_bits;
          Alcotest.test_case "tape exhaustion" `Quick test_executor_tape_exhaustion;
          Alcotest.test_case "max rounds" `Quick test_executor_max_rounds;
          Alcotest.test_case "rejects revocation" `Quick test_executor_rejects_revocation;
          Alcotest.test_case "flat round allocates nothing" `Quick
            test_flat_round_allocates_nothing;
        ] );
      ( "incremental",
        [ Alcotest.test_case "persistent branching" `Quick test_incremental_persistence ] );
      ( "las-vegas",
        [
          Alcotest.test_case "solves" `Quick test_las_vegas_solves;
          Alcotest.test_case "seeded determinism" `Quick test_las_vegas_deterministic_given_seed;
          Alcotest.test_case "error includes last failure" `Quick
            test_las_vegas_error_includes_failure;
          Alcotest.test_case "backoff escalates budgets" `Quick
            test_las_vegas_backoff_escalates;
          Alcotest.test_case "reports rounds spent" `Quick
            test_las_vegas_reports_rounds_spent;
        ] );
      ( "prng",
        [ Alcotest.test_case "hash2 decorrelates" `Quick test_prng_hash2 ] );
      ( "trace",
        [
          Alcotest.test_case "records a run" `Quick test_trace_records;
          Alcotest.test_case "partial on failure" `Quick test_trace_partial_on_failure;
        ] );
      ( "driver",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            prop_trace_equals_run;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            prop_simulation_equals_run;
        ] );
      ( "async",
        [
          Alcotest.test_case "synchronizer matches sync executor" `Quick
            test_async_matches_sync;
          Alcotest.test_case "single node" `Quick test_async_single_node;
          Alcotest.test_case "virtual rounds" `Quick test_async_virtual_rounds;
          Alcotest.test_case "event limit" `Quick test_async_event_limit;
          Alcotest.test_case "scheduler equivalence suite" `Quick
            test_synchronizer_equivalence_suite;
          Alcotest.test_case "sample_delay range" `Quick test_sample_delay_range;
        ] );
    ]
