(* Tests for the adaptive-adversary tier: the spec grammar, seeded
   determinism, budget accounting, the strategies' targeting behavior,
   the checksummed retransmission wrapper's convergence under
   corruption-only adversaries, and divergence detection with its
   reserved exit code. *)

open Anonet_graph
open Anonet_runtime
module Catalog = Anonet_problems.Catalog
module Problem = Anonet_problems.Problem
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- plan grammar ---------- *)

let test_grammar_roundtrip () =
  let plans =
    [ Adversary.byzantine [ 0; 2 ] ~strength:0.5 ~seed:7;
      Adversary.sniper 3 ~strength:1.0 ~seed:0;
      { (Adversary.eavesdropper 2 ~strength:0.25 ~seed:9) with
        Adversary.budget = Some 40 };
    ]
  in
  List.iter
    (fun p ->
      let s = Adversary.plan_to_string p in
      match Adversary.plan_of_string s with
      | Error m -> Alcotest.failf "re-parse of %S failed: %s" s m
      | Ok p' -> check (Printf.sprintf "round-trip %S" s) true (p = p'))
    plans

let test_grammar_parses () =
  match Adversary.plan_of_string "eavesdropper=2,strength=0.5,seed=7,budget=40" with
  | Error m -> Alcotest.fail m
  | Ok p ->
    check "strategy" true (p.Adversary.strategy = Adversary.Eavesdropper 2);
    check "strength" true (p.Adversary.strength = 0.5);
    check_int "seed" 7 p.Adversary.seed;
    check "budget" true (p.Adversary.budget = Some 40)

let test_grammar_defaults () =
  match Adversary.plan_of_string "byzantine=1+4" with
  | Error m -> Alcotest.fail m
  | Ok p ->
    check "nodes" true (p.Adversary.strategy = Adversary.Byzantine [ 1; 4 ]);
    check "strength defaults to 1" true (p.Adversary.strength = 1.0);
    check_int "seed defaults to 0" 0 p.Adversary.seed;
    check "budget defaults to unlimited" true (p.Adversary.budget = None)

let test_grammar_rejects () =
  List.iter
    (fun s ->
      match Adversary.plan_of_string s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ "";                      (* empty spec *)
      "strength=0.5";          (* no strategy item *)
      "byzantine=1,sniper=2";  (* two strategy items *)
      "sniper=-1";             (* negative link count *)
      "byzantine=x";           (* not a node id *)
      "byzantine=-3";          (* negative node id *)
      "strength=1.5";          (* out of range *)
      "eavesdropper=2,budget=-3";  (* negative budget *)
      "warp=1";                (* unknown key *)
    ]

(* ---------- budget and strength ---------- *)

let test_budget_caps_tampering () =
  let plan =
    { (Adversary.byzantine [ 0 ] ~strength:1.0 ~seed:3) with
      Adversary.budget = Some 2 }
  in
  let t = Adversary.make plan in
  let tampered = ref 0 in
  for r = 1 to 10 do
    let p = Label.Int r in
    if not (Label.equal p (Adversary.tamper t ~src:0 ~dst:1 ~round:r p)) then
      incr tampered
  done;
  check_int "tamperings = budget" 2 !tampered;
  check_int "spent = budget" 2 (Adversary.spent t);
  check_int "still observes after exhaustion" 10 (Adversary.observed t);
  check_int "one event per tampering" 2 (List.length (Adversary.events t))

let test_strength_zero_is_a_no_op () =
  let t = Adversary.make (Adversary.byzantine [ 0 ] ~strength:0.0 ~seed:3) in
  for r = 1 to 10 do
    let p = Label.Pair (Label.Int r, Label.Bool (r mod 2 = 0)) in
    check "payload untouched" true
      (Label.equal p (Adversary.tamper t ~src:0 ~dst:1 ~round:r p))
  done;
  check_int "nothing spent" 0 (Adversary.spent t);
  check_int "no events" 0 (List.length (Adversary.events t))

let test_make_rejects_bad_plans () =
  List.iter
    (fun plan ->
      match Adversary.make plan with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [ Adversary.byzantine [ 0 ] ~strength:1.5 ~seed:1;
      Adversary.byzantine [ -2 ] ~strength:0.5 ~seed:1;
      Adversary.sniper (-1) ~strength:0.5 ~seed:1;
      { (Adversary.sniper 1 ~strength:0.5 ~seed:1) with Adversary.budget = Some (-1) };
    ]

(* ---------- strategies ---------- *)

let targeted_links t =
  List.filter_map
    (fun e ->
      match e.Adversary.kind with
      | Adversary.Targeted { src; dst } -> Some (src, dst)
      | _ -> None)
    (Adversary.events t)

let test_byzantine_substitutes_only_its_nodes () =
  let t = Adversary.make (Adversary.byzantine [ 1 ] ~strength:1.0 ~seed:9) in
  let p = Label.Pair (Label.Int 1, Label.Bool true) in
  check "honest sender untouched" true
    (Label.equal p (Adversary.tamper t ~src:0 ~dst:1 ~round:1 p));
  check "byzantine sender substituted" false
    (Label.equal p (Adversary.tamper t ~src:1 ~dst:0 ~round:1 p));
  check "substitution logged" true
    (List.exists
       (fun e ->
         match e.Adversary.kind with
         | Adversary.Substituted { src = 1; dst = 0 } -> true
         | _ -> false)
       (Adversary.events t))

let test_eavesdropper_targets_high_entropy_link () =
  (* Strength 0 so the adversary only observes and targets: link 0->1
     carries a fresh payload every round (high entropy), link 2->3 the
     same constant.  Every boundary must target the diverse link. *)
  let t = Adversary.make (Adversary.eavesdropper 1 ~strength:0.0 ~seed:1) in
  for r = 1 to 5 do
    ignore (Adversary.tamper t ~src:0 ~dst:1 ~round:r (Label.Int (100 + r)));
    ignore (Adversary.tamper t ~src:2 ~dst:3 ~round:r (Label.Int 7))
  done;
  let targeted = targeted_links t in
  check "boundaries produced targets" true (targeted <> []);
  check "every target is the high-entropy link" true
    (List.for_all (fun l -> l = (0, 1)) targeted)

let test_sniper_targets_busiest_link () =
  (* Link 0->1 carries three messages per round, link 2->3 one. *)
  let t = Adversary.make (Adversary.sniper 1 ~strength:0.0 ~seed:1) in
  for r = 1 to 4 do
    for i = 1 to 3 do
      ignore (Adversary.tamper t ~src:0 ~dst:1 ~round:r (Label.Int i))
    done;
    ignore (Adversary.tamper t ~src:2 ~dst:3 ~round:r (Label.Int 0))
  done;
  let targeted = targeted_links t in
  check "boundaries produced targets" true (targeted <> []);
  check "every target is the busiest link" true
    (List.for_all (fun l -> l = (0, 1)) targeted)

(* ---------- seeded determinism through the executors ---------- *)

let test_deterministic_traces () =
  (* Equal plans (faults + adversary) on equal seeds: the full trace —
     timeline, fault events, adversary events — renders identically.
     The trace recorder runs the executor's round driver, so this pins
     the whole executor + injector + adversary pipeline. *)
  let g = Gen.cycle 6 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  let record () =
    let ctx =
      Run_ctx.make
        ~faults:(Faults.with_loss 0.1 ~seed:5)
        ~adversary:(Adversary.eavesdropper 2 ~strength:0.8 ~seed:13)
        ()
    in
    match
      Trace.record ~ctx algo g ~tape:(Tape.random ~seed:3) ~max_rounds:2000
    with
    | Ok (t, _) -> t
    | Error (_, e) -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  in
  let a = record () and b = record () in
  check "adversary acted at all" true (Trace.adversary_events a <> []);
  Alcotest.(check string) "byte-identical renders" (Trace.render a) (Trace.render b)

(* ---------- the tentpole acceptance property ----------

   The checksummed retransmission wrapper converges to a valid output
   with probability 1 under every corruption-only adversary in this
   suite: corrupted frames fail their checksum (or the plausibility
   window), are dropped whole, and the every-round window resend
   eventually delivers an intact copy.  Sub-1 strength or a finite
   budget guarantees intact copies keep crossing targeted links. *)

let test_retransmit_converges_under_adversaries () =
  let g = Gen.cycle 6 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  let adversaries =
    [ "sniper-0.7", (fun seed -> Adversary.sniper 2 ~strength:0.7 ~seed);
      "eavesdropper-0.7",
      (fun seed -> Adversary.eavesdropper 2 ~strength:0.7 ~seed);
      "sniper-1.0-budget200",
      (fun seed ->
        { (Adversary.sniper 2 ~strength:1.0 ~seed) with
          Adversary.budget = Some 200 });
      "byzantine-0.8", (fun seed -> Adversary.byzantine [ 0; 3 ] ~strength:0.8 ~seed);
    ]
  in
  List.iter
    (fun (name, mk) ->
      for seed = 1 to 10 do
        let ctx = Run_ctx.make ~adversary:(mk seed) () in
        match
          Executor.run ~ctx algo g
            ~tape:(Tape.random ~seed:(Prng.hash2 seed 81))
            ~max_rounds:4000
        with
        | Error e ->
          Alcotest.failf "%s seed %d: %a" name seed Executor.pp_failure e
        | Ok { outputs; _ } ->
          check
            (Printf.sprintf "%s seed %d: valid 2-hop coloring" name seed)
            true
            (Catalog.two_hop_coloring.Problem.is_valid_output g outputs)
      done)
    adversaries

let test_retransmit_rejections_are_counted () =
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry () in
  let g = Gen.cycle 6 in
  let algo = Retransmit.wrap ~obs Anonet_algorithms.Rand_two_hop.algorithm in
  let ctx =
    Run_ctx.make ~adversary:(Adversary.sniper 2 ~strength:0.7 ~seed:4) ~obs ()
  in
  (match
     Executor.run ~ctx algo g ~tape:(Tape.random ~seed:6) ~max_rounds:4000
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "should finish: %a" Executor.pp_failure e);
  let counters = (Metrics.snapshot registry).Metrics.counters in
  let value k = Option.value ~default:0 (List.assoc_opt k counters) in
  check "corrupted frames were rejected" true (value "retransmit.rejected" > 0);
  check "adversary tampered" true (value "adversary.corrupted" > 0);
  check_int "rejections cannot exceed tamperings" (value "retransmit.rejected")
    (min (value "retransmit.rejected") (value "adversary.corrupted"))

(* ---------- async executor ---------- *)

let test_async_adversary_is_survivable_and_deterministic () =
  (* The α-synchronizer has no retransmission, so only the synchronizer's
     round tags protect it — but a Byzantine replay keeps frames
     well-formed, and the synchronizer's buffering dedups by port+round.
     Run twice: equal outcomes (determinism); and the tampering must not
     deadlock the run on a fault-free wire. *)
  let g = Gen.cycle 4 in
  let run () =
    let ctx =
      Run_ctx.make ~adversary:(Adversary.eavesdropper 2 ~strength:0.5 ~seed:3) ()
    in
    Async.run ~ctx
      (Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm)
      g ~tape:(Tape.random ~seed:4) ~scheduler:Async.Fifo ~max_events:2_000_000
  in
  match run (), run () with
  | Ok a, Ok b ->
    check "same outputs" true (Array.for_all2 Label.equal a.Async.outputs b.Async.outputs);
    check_int "same events" a.Async.events b.Async.events
  | (Error e, _ | _, Error e) ->
    Alcotest.failf "should finish: %a" Async.pp_failure e

(* ---------- Las-Vegas: divergence ---------- *)

let test_divergence_detection () =
  (* Total loss + retransmission never stabilizes: with a divergence
     threshold the harness stops escalating, reports Diverged, and maps to
     exit code 9. *)
  let g = Gen.cycle 4 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  let faults = Faults.with_loss 1.0 ~seed:2 in
  match
    Las_vegas.solve
      ~ctx:(Run_ctx.make ~faults ())
      algo g ~seed:3 ~max_rounds:50 ~attempts:10 ~divergence:3.0 ()
  with
  | Ok _ -> Alcotest.fail "expected divergence under total loss"
  | Error f ->
    check "reason is Diverged" true (f.Las_vegas.reason = Las_vegas.Diverged);
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check "message says so" true (contains "divergence" f.Las_vegas.message);
    check_int "exit code 9" 9 (Run_error.exit_code (Run_error.Las_vegas f))

let test_divergence_validates () =
  List.iter
    (fun divergence ->
      match
        Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm (Gen.cycle 4) ~seed:1
          ~divergence ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected Invalid_argument for divergence %g" divergence)
    [ -1.0; 0.0; Float.nan ];
  (* and a clean run with a threshold set still succeeds *)
  match
    Las_vegas.solve Anonet_algorithms.Rand_mis.algorithm (Gen.cycle 4)
      ~seed:1 ~divergence:8.0 ()
  with
  | Ok r ->
    check "valid MIS" true
      (Catalog.mis.Problem.is_valid_output (Gen.cycle 4)
         r.Las_vegas.outcome.Executor.outputs)
  | Error f -> Alcotest.fail f.Las_vegas.message

let () =
  Alcotest.run "anonet_adversary"
    [
      ( "grammar",
        [
          Alcotest.test_case "round-trip" `Quick test_grammar_roundtrip;
          Alcotest.test_case "parses the README example" `Quick test_grammar_parses;
          Alcotest.test_case "defaults" `Quick test_grammar_defaults;
          Alcotest.test_case "rejects malformed specs" `Quick test_grammar_rejects;
        ] );
      ( "budget",
        [
          Alcotest.test_case "budget caps tampering" `Quick test_budget_caps_tampering;
          Alcotest.test_case "strength 0 is a no-op" `Quick test_strength_zero_is_a_no_op;
          Alcotest.test_case "make validates plans" `Quick test_make_rejects_bad_plans;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "byzantine substitutes only its nodes" `Quick
            test_byzantine_substitutes_only_its_nodes;
          Alcotest.test_case "eavesdropper targets high entropy" `Quick
            test_eavesdropper_targets_high_entropy_link;
          Alcotest.test_case "sniper targets busiest link" `Quick
            test_sniper_targets_busiest_link;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical traces" `Quick test_deterministic_traces;
        ] );
      ( "retransmit-hardening",
        [
          Alcotest.test_case "converges under corruption-only adversaries (10 seeds x4)"
            `Slow test_retransmit_converges_under_adversaries;
          Alcotest.test_case "rejected frames are counted" `Quick
            test_retransmit_rejections_are_counted;
          Alcotest.test_case "async survives tampering deterministically" `Quick
            test_async_adversary_is_survivable_and_deterministic;
        ] );
      ( "las-vegas",
        [
          Alcotest.test_case "divergence detection + exit code 9" `Quick
            test_divergence_detection;
          Alcotest.test_case "divergence parameter validates" `Quick
            test_divergence_validates;
        ] );
    ]
