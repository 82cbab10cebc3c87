(* Tests for the fault-injection subsystem: the plan grammar, the seeded
   injector, crash semantics in the synchronous executor, the
   retransmission wrapper (including the headline property: correct 2-hop
   colorings under 20% message loss), and the exit-code mapping. *)

open Anonet_graph
open Anonet_runtime
module Catalog = Anonet_problems.Catalog
module Problem = Anonet_problems.Problem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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
        (* Set-once: outputs are irrevocable, and under crash-recovery a
           node can keep executing rounds after deciding. *)
        let s =
          if s.out <> None then s
          else
            let received =
              List.sort Label.compare
                (List.filter_map Fun.id (Array.to_list inbox))
            in
            { s with out = Some (Label.List received) }
        in
        s, Algorithm.silence ~degree:s.degree
      end

    let output s = s.out
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
      let s =
        if Bits.length bits = 3 then { s with out = Some (Label.Bits bits) } else s
      in
      s, Algorithm.silence ~degree:s.degree

    let output s = s.out
  end)

let labeled_path3 () = Graph.relabel (Gen.path 3) (fun v -> Label.Int (10 * v))

(* ---------- plan grammar ---------- *)

let test_plan_grammar_roundtrip () =
  let plans =
    [ Faults.no_faults;
      Faults.with_loss 0.25 ~seed:7;
      {
        Faults.seed = 3;
        loss = 0.1;
        duplicate = 0.05;
        corrupt = 0.01;
        dead_links = [ 0, 1; 4, 2 ];
        crashes =
          [ { Faults.node = 2; from_round = 4; until_round = None };
            { Faults.node = 0; from_round = 1; until_round = Some 6 };
          ];
        budget = Some 12;
      };
    ]
  in
  List.iter
    (fun p ->
      let s = Faults.plan_to_string p in
      match Faults.plan_of_string s with
      | Error m -> Alcotest.failf "re-parse of %S failed: %s" s m
      | Ok p' -> check (Printf.sprintf "round-trip %S" s) true (p = p'))
    plans

let test_plan_grammar_parses () =
  match Faults.plan_of_string "loss=0.2,dup=0.05,seed=7,crash=3@5..9,droplink=0-1" with
  | Error m -> Alcotest.fail m
  | Ok p ->
    check "loss" true (p.Faults.loss = 0.2);
    check "dup" true (p.Faults.duplicate = 0.05);
    check_int "seed" 7 p.Faults.seed;
    check "crash" true
      (p.Faults.crashes
       = [ { Faults.node = 3; from_round = 5; until_round = Some 9 } ]);
    check "link" true (p.Faults.dead_links = [ 0, 1 ])

let test_plan_grammar_rejects () =
  List.iter
    (fun s ->
      match Faults.plan_of_string s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ "loss=2.0";           (* probability out of range *)
      "loss=x";             (* not a float *)
      "warp=0.1";           (* unknown key *)
      "crash=3";            (* missing @round *)
      "crash=3@0";          (* rounds are 1-based *)
      "crash=3@9..4";       (* recovery before crash *)
      "droplink=5";         (* missing endpoint *)
      "budget=-1";          (* negative budget *)
    ]

(* ---------- injector determinism and budget ---------- *)

let exercise f =
  (* A fixed sequence of sends, returning the decisions. *)
  let out = ref [] in
  for round = 1 to 20 do
    for src = 0 to 3 do
      let dst = (src + 1) mod 4 in
      out :=
        Faults.on_send_sync f ~src ~dst ~port:0 ~round (Label.Int (round + src))
        :: !out
    done
  done;
  List.rev !out

let test_injector_deterministic () =
  let plan =
    { (Faults.with_loss 0.3 ~seed:11) with Faults.duplicate = 0.2; corrupt = 0.1 }
  in
  let a = exercise (Faults.make plan) and b = exercise (Faults.make plan) in
  check "same plan, same fate" true (a = b);
  let c = exercise (Faults.make { plan with Faults.seed = 12 }) in
  check "different seed differs" true (a <> c)

let test_budget_zero_is_reliable () =
  let plan = { (Faults.with_loss 1.0 ~seed:1) with Faults.budget = Some 0 } in
  let f = Faults.make plan in
  check "all delivered" true
    (List.for_all Option.is_some (exercise f));
  check_int "nothing spent" 0 (Faults.spent f);
  check_int "no events" 0 (List.length (Faults.events f))

let test_budget_caps_spending () =
  let plan = { (Faults.with_loss 1.0 ~seed:1) with Faults.budget = Some 3 } in
  let f = Faults.make plan in
  let decisions = exercise f in
  check_int "exactly 3 drops" 3
    (List.length (List.filter Option.is_none decisions));
  check_int "spent = budget" 3 (Faults.spent f);
  (* the first three sends are dropped, everything after flows *)
  check "drops are the first sends" true
    (match decisions with
     | None :: None :: None :: rest -> List.for_all Option.is_some rest
     | _ -> false)

(* ---------- synchronous loss / duplication / links ---------- *)

let test_sync_loss_silently_nulls () =
  (* Under total loss the executor still runs: receivers just see empty
     inboxes, so gossip hears nothing at all. *)
  let g = labeled_path3 () in
  let ctx = Run_ctx.make ~faults:(Faults.with_loss 1.0 ~seed:5) () in
  match Executor.run ~ctx gossip g ~tape:Tape.zero ~max_rounds:5 with
  | Error e -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok { outputs; messages; _ } ->
    check "everyone hears silence" true
      (Array.for_all (Label.equal (Label.List [])) outputs);
    check_int "no message ever delivered" 0 messages

let test_sync_dead_link () =
  let g = labeled_path3 () in
  let plan = { Faults.no_faults with Faults.dead_links = [ 1, 0 ] } in
  match
    Executor.run ~ctx:(Run_ctx.make ~faults:plan ()) gossip g ~tape:Tape.zero
      ~max_rounds:5
  with
  | Error e -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok { outputs; _ } ->
    check "node 0 cut off" true (Label.equal outputs.(0) (Label.List []));
    check "node 1 hears only node 2" true
      (Label.equal outputs.(1) (Label.List [ Label.Int 20 ]));
    check "node 2 unaffected" true
      (Label.equal outputs.(2) (Label.List [ Label.Int 10 ]))

let test_sync_stale_duplicate_queued () =
  let plan = { (Faults.with_loss 0.0 ~seed:2) with Faults.duplicate = 1.0 } in
  let f = Faults.make plan in
  (match Faults.on_send_sync f ~src:0 ~dst:1 ~port:3 ~round:4 (Label.Int 9) with
   | None -> Alcotest.fail "duplication must still deliver the original"
   | Some m -> check "original payload intact" true (Label.equal m (Label.Int 9)));
  check "stale copy due two rounds after the send" true
    (Faults.stale_sync f ~dst:1 ~round:6 = [ 3, Label.Int 9 ]);
  check "drained only once" true (Faults.stale_sync f ~dst:1 ~round:6 = [])

let test_corrupt_label () =
  let rng = Prng.create 99 in
  List.iter
    (fun l ->
      for _ = 1 to 20 do
        let l' = Faults.corrupt_label rng l in
        check
          (Printf.sprintf "corruption of %s changes it" (Label.to_string l))
          false (Label.equal l l')
      done)
    [ Label.Int 5;
      Label.Bool true;
      Label.Bits (Bits.of_string "1011");
      Label.List [ Label.Int 1; Label.Int 2 ];
      Label.Pair (Label.Int 1, Label.Bool false);
      Label.List [];
    ];
  (* the outer constructor survives where it can *)
  let survives_int =
    match Faults.corrupt_label rng (Label.Int 7) with Label.Int _ -> true | _ -> false
  in
  check "Int stays Int" true survives_int

(* ---------- crashes ---------- *)

let test_crash_recovery_resumes_with_state () =
  (* Node 0 naps through rounds 1-3 and recovers at round 4: it then
     collects the tape bits of rounds 4-6 (state intact, rounds skipped),
     while node 1 collects rounds 1-3 undisturbed. *)
  let g = Gen.path 2 in
  let tape = Tape.fixed [| Bits.of_string "000111"; Bits.of_string "010101" |] in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes = [ { Faults.node = 0; from_round = 1; until_round = Some 4 } ];
    }
  in
  match
    Executor.run ~ctx:(Run_ctx.make ~faults:plan ()) bit_collector g ~tape
      ~max_rounds:10
  with
  | Error e -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok { outputs; rounds; _ } ->
    check "recovered node reads rounds 4-6" true
      (Label.equal outputs.(0) (Label.Bits (Bits.of_string "111")));
    check "healthy node reads rounds 1-3" true
      (Label.equal outputs.(1) (Label.Bits (Bits.of_string "010")));
    check_int "run extends to the late finisher" 6 rounds

let test_crash_stop_starves () =
  (* A crash-stopped node never outputs: the run exhausts its budget. *)
  let g = Gen.path 2 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes = [ { Faults.node = 1; from_round = 2; until_round = None } ];
    }
  in
  match
    Executor.run ~ctx:(Run_ctx.make ~faults:plan ()) bit_collector g
      ~tape:(Tape.random ~seed:1) ~max_rounds:8
  with
  | Error (Executor.Max_rounds_exceeded 8) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the run to starve"

let test_all_nodes_crashed () =
  let g = Gen.path 2 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes =
        [ { Faults.node = 0; from_round = 1; until_round = None };
          { Faults.node = 1; from_round = 2; until_round = None };
        ];
    }
  in
  match
    Executor.run ~ctx:(Run_ctx.make ~faults:plan ()) bit_collector g
      ~tape:(Tape.random ~seed:1) ~max_rounds:50
  with
  | Error (Executor.All_nodes_crashed { round } as f) ->
    check "detected as soon as the last node is down" true (round <= 2);
    check_int "distinct exit code" 4 (Run_error.exit_code (Run_error.Sync f))
  | Ok _ | Error _ -> Alcotest.fail "expected All_nodes_crashed"

let test_crash_events_logged () =
  let g = Gen.path 2 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes = [ { Faults.node = 0; from_round = 1; until_round = Some 4 } ];
    }
  in
  match
    Trace.record ~ctx:(Run_ctx.make ~faults:plan ()) bit_collector g
      ~tape:(Tape.random ~seed:3) ~max_rounds:10
  with
  | Error (_, e) -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok (t, _) ->
    let kinds = List.map (fun e -> e.Faults.kind) (Trace.fault_events t) in
    check "crash logged" true (List.mem (Faults.Crashed 0) kinds);
    check "recovery logged" true (List.mem (Faults.Recovered 0) kinds)

(* ---------- trace integration ---------- *)

let test_trace_shows_faults () =
  let g = Gen.cycle 5 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  match
    Trace.record
      ~ctx:(Run_ctx.make ~faults:(Faults.with_loss 0.3 ~seed:4) ())
      algo g ~tape:(Tape.random ~seed:8) ~max_rounds:2000
  with
  | Error (_, e) -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok (t, _) ->
    check "events captured" true (Trace.fault_events t <> []);
    let r = Trace.render t in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check "render lists the events" true (contains "fault events" r);
    check "render shows drops" true (contains "drop" r)

let test_trace_detects_doom () =
  (* The trace recorder performs the same all-crashed check as the plain
     executor, so `solve --trace` exits with the same code. *)
  let g = Gen.path 2 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes =
        [ { Faults.node = 0; from_round = 1; until_round = None };
          { Faults.node = 1; from_round = 1; until_round = None };
        ];
    }
  in
  match
    Trace.record ~ctx:(Run_ctx.make ~faults:plan ()) bit_collector g
      ~tape:(Tape.random ~seed:1) ~max_rounds:50
  with
  | Error (_, (Executor.All_nodes_crashed _ as f)) ->
    check_int "exit code 4" 4 (Run_error.exit_code (Run_error.Sync f))
  | Ok _ | Error _ -> Alcotest.fail "expected All_nodes_crashed from the recorder"

(* ---------- retransmission wrapper ---------- *)

let test_retransmit_transparent_without_faults () =
  (* On a reliable network the wrapper is invisible: same outputs and the
     same round count as the unwrapped run, tape for tape. *)
  let cases =
    [ "2hop/c5", Anonet_algorithms.Rand_two_hop.algorithm, Gen.cycle 5,
      Tape.random ~seed:2;
      "mis/petersen", Anonet_algorithms.Rand_mis.algorithm, Gen.petersen (),
      Tape.random ~seed:3;
      "gossip/path4", gossip, Graph.relabel (Gen.path 4) (fun v -> Label.Int v),
      Tape.zero;
    ]
  in
  List.iter
    (fun (name, algo, g, tape) ->
      let plain =
        match Executor.run algo g ~tape ~max_rounds:3000 with
        | Ok o -> o
        | Error e -> Alcotest.failf "plain %s: %a" name Executor.pp_failure e
      in
      match Executor.run (Retransmit.wrap algo) g ~tape ~max_rounds:3000 with
      | Error e -> Alcotest.failf "wrapped %s: %a" name Executor.pp_failure e
      | Ok o ->
        check (name ^ ": same outputs") true
          (Array.for_all2 Label.equal plain.Executor.outputs o.Executor.outputs);
        check_int (name ^ ": same rounds") plain.Executor.rounds o.Executor.rounds)
    cases

(* The headline acceptance property: with the wrapper, randomized 2-hop
   coloring reaches a correct coloring on C6 and Petersen under 20% seeded
   message loss — 50 seeds each. *)
let test_retransmit_survives_loss () =
  let graphs = [ "cycle6", Gen.cycle 6; "petersen", Gen.petersen () ] in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  List.iter
    (fun (name, g) ->
      for seed = 1 to 50 do
        match
          Executor.run
            ~ctx:(Run_ctx.make ~faults:(Faults.with_loss 0.2 ~seed) ())
            algo g
            ~tape:(Tape.random ~seed:(Prng.hash2 seed 77))
            ~max_rounds:(64 * (Graph.n g + 4))
        with
        | Error e ->
          Alcotest.failf "%s seed %d: %a" name seed Executor.pp_failure e
        | Ok { outputs; _ } ->
          check
            (Printf.sprintf "%s seed %d: valid 2-hop coloring" name seed)
            true
            (Catalog.two_hop_coloring.Problem.is_valid_output g outputs)
      done)
    graphs

let test_retransmit_survives_duplication_and_corruption_free_loss () =
  (* Loss and duplication together: the dedup-by-round logic absorbs the
     extra copies. *)
  let g = Gen.cycle 6 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  for seed = 1 to 10 do
    let plan = { (Faults.with_loss 0.2 ~seed) with Faults.duplicate = 0.3 } in
    match
      Executor.run
        ~ctx:(Run_ctx.make ~faults:plan ())
        algo g
        ~tape:(Tape.random ~seed:(Prng.hash2 seed 78))
        ~max_rounds:2000
    with
    | Error e -> Alcotest.failf "seed %d: %a" seed Executor.pp_failure e
    | Ok { outputs; _ } ->
      check
        (Printf.sprintf "seed %d: valid under loss+dup" seed)
        true
        (Catalog.two_hop_coloring.Problem.is_valid_output g outputs)
  done

(* Regression for the documented gap the checksummed wire closed: with
   corrupt > 0 the old wrapper took perturbed frames at face value (a
   flipped ack bit could discard window entries and stall the link); the
   checksum + plausibility window turns corruption into loss, which the
   every-round resend absorbs. *)
let test_retransmit_survives_corruption () =
  let g = Gen.cycle 6 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  for seed = 1 to 10 do
    let plan = { (Faults.with_loss 0.1 ~seed) with Faults.corrupt = 0.3 } in
    match
      Executor.run
        ~ctx:(Run_ctx.make ~faults:plan ())
        algo g
        ~tape:(Tape.random ~seed:(Prng.hash2 seed 80))
        ~max_rounds:4000
    with
    | Error e -> Alcotest.failf "seed %d: %a" seed Executor.pp_failure e
    | Ok { outputs; _ } ->
      check
        (Printf.sprintf "seed %d: valid under 30%% corruption" seed)
        true
        (Catalog.two_hop_coloring.Problem.is_valid_output g outputs)
  done

(* budget=0 plans — faulty and adversarial alike — must be byte-identical
   to the reliable network on BOTH executors, not merely injector-level
   no-ops: the executors' control flow (stale-duplicate drains, tamper
   taps) must not perturb a run whose budget never lets a fault land. *)
let test_budget_zero_executors_identical () =
  let g = Gen.cycle 5 in
  let algo = Anonet_algorithms.Rand_two_hop.algorithm in
  let heavy =
    { (Faults.with_loss 0.5 ~seed:9) with Faults.duplicate = 0.3; corrupt = 0.3 }
  in
  let ctx =
    Run_ctx.make
      ~faults:{ heavy with Faults.budget = Some 0 }
      ~adversary:
        { (Adversary.eavesdropper 2 ~strength:1.0 ~seed:5) with
          Adversary.budget = Some 0 }
      ()
  in
  let tape = Tape.random ~seed:7 in
  (match
     ( Executor.run algo g ~tape ~max_rounds:2000,
       Executor.run ~ctx algo g ~tape ~max_rounds:2000 )
   with
  | Ok plain, Ok gated ->
    check "sync: identical outcome records" true (plain = gated)
  | (Error e, _ | _, Error e) ->
    Alcotest.failf "sync should finish: %a" Executor.pp_failure e);
  match
    ( Async.run algo g ~tape ~scheduler:Async.Fifo ~max_events:200_000,
      Async.run ~ctx algo g ~tape ~scheduler:Async.Fifo ~max_events:200_000 )
  with
  | Ok plain, Ok gated ->
    check "async: identical outcome records" true (plain = gated)
  | (Error e, _ | _, Error e) ->
    Alcotest.failf "async should finish: %a" Async.pp_failure e

(* Crash-recovery loses the outage's messages: state survives the nap,
   mail does not.  On a 2-path with node 0 napping through rounds 1-3,
   node 1's round-1 broadcast arrives while 0 is down (lost), and by the
   time 0 re-runs its own schedule node 1 has gone silent — BOTH end up
   gossiping the empty multiset, where the healthy run exchanges labels. *)
let test_crash_recovery_loses_outage_messages () =
  let g = Graph.relabel (Gen.path 2) (fun v -> Label.Int (10 * (v + 1))) in
  let healthy =
    match Executor.run gossip g ~tape:Tape.zero ~max_rounds:10 with
    | Ok { outputs; _ } -> outputs
    | Error e -> Alcotest.failf "healthy run: %a" Executor.pp_failure e
  in
  check "healthy nodes hear each other" true
    (Label.equal healthy.(0) (Label.List [ Label.Int 20 ])
    && Label.equal healthy.(1) (Label.List [ Label.Int 10 ]));
  let plan =
    {
      Faults.no_faults with
      Faults.crashes = [ { Faults.node = 0; from_round = 1; until_round = Some 4 } ];
    }
  in
  match
    Executor.run ~ctx:(Run_ctx.make ~faults:plan ()) gossip g ~tape:Tape.zero
      ~max_rounds:10
  with
  | Error e -> Alcotest.failf "should finish: %a" Executor.pp_failure e
  | Ok { outputs; _ } ->
    check "node 1 heard nothing (0 was down in round 1)" true
      (Label.equal outputs.(1) (Label.List []));
    check "node 0 heard nothing (1's broadcast died during the outage)" true
      (Label.equal outputs.(0) (Label.List []))

let test_alpha_synchronizer_breaks_under_loss () =
  (* The flip side, and the reason the wrapper exists: the α-synchronizer
     without retransmission does NOT terminate under the same 20% loss —
     one lost message starves its receiver forever. *)
  let g = Gen.cycle 6 in
  for seed = 1 to 5 do
    match
      Async.run
        ~ctx:(Run_ctx.make ~faults:(Faults.with_loss 0.2 ~seed) ())
        Anonet_algorithms.Rand_two_hop.algorithm g
        ~tape:(Tape.random ~seed:(Prng.hash2 seed 79))
        ~scheduler:Async.Fifo ~max_events:200_000
    with
    | Ok _ -> Alcotest.failf "seed %d: expected the synchronizer to deadlock" seed
    | Error (Async.Stalled _) | Error (Async.Event_limit_exceeded _) -> ()
    | Error e -> Alcotest.failf "seed %d: wrong failure %a" seed Async.pp_failure e
  done

let test_async_crash_stops_forever () =
  (* A crashed node stalls the synchronizer even at loss 0. *)
  let g = Gen.cycle 4 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes = [ { Faults.node = 2; from_round = 1; until_round = Some 3 } ];
    }
  in
  match
    Async.run
      ~ctx:(Run_ctx.make ~faults:plan ())
      Anonet_algorithms.Rand_two_hop.algorithm g
      ~tape:(Tape.random ~seed:5) ~scheduler:Async.Fifo ~max_events:100_000
  with
  | Error (Async.Stalled _) -> ()  (* recovery is ignored: crash-stop reading *)
  | Ok _ -> Alcotest.fail "expected a stall: async crashes never recover"
  | Error e -> Alcotest.failf "wrong failure: %a" Async.pp_failure e

(* ---------- Las-Vegas under faults ---------- *)

let test_las_vegas_with_faults () =
  let g = Gen.cycle 6 in
  let plan = Faults.with_loss 0.2 ~seed:21 in
  match
    Las_vegas.solve_msg ~ctx:(Run_ctx.make ~faults:plan ())
      (Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm)
      g ~seed:5 ()
  with
  | Error m -> Alcotest.fail m
  | Ok r ->
    check "valid under loss" true
      (Catalog.two_hop_coloring.Problem.is_valid_output g
         r.Las_vegas.outcome.Executor.outputs)

let test_las_vegas_rejects_total_crash () =
  let g = Gen.path 2 in
  let plan =
    {
      Faults.no_faults with
      Faults.crashes =
        [ { Faults.node = 0; from_round = 1; until_round = None };
          { Faults.node = 1; from_round = 1; until_round = None };
        ];
    }
  in
  match
    Las_vegas.solve_msg ~ctx:(Run_ctx.make ~faults:plan ())
      Anonet_algorithms.Rand_mis.algorithm g ~seed:1 ()
  with
  | Ok _ -> Alcotest.fail "expected immediate failure"
  | Error m ->
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check "mentions the crash" true (contains "crash" m)

(* ---------- exit codes ---------- *)

let test_exit_codes_distinct () =
  let sync_codes =
    List.map
      (fun f -> Run_error.exit_code (Run_error.Sync f))
      [ Executor.Max_rounds_exceeded 9;
        Executor.Tape_exhausted { round = 3 };
        Executor.All_nodes_crashed { round = 2 };
      ]
  in
  let async_codes =
    List.map
      (fun f -> Run_error.exit_code (Run_error.Async f))
      [ Async.Event_limit_exceeded 9;
        Async.Tape_exhausted { round = 3 };
        Async.Stalled { events = 5 };
      ]
  in
  Alcotest.(check (list int)) "sync mapping" [ 2; 3; 4 ] sync_codes;
  Alcotest.(check (list int)) "async mapping" [ 5; 3; 6 ] async_codes;
  List.iter
    (fun c -> check "non-zero" true (c <> 0))
    (sync_codes @ async_codes);
  (* distinct within each executor; Tape_exhausted deliberately shares its
     code across the two (same meaning) *)
  let distinct l = List.length (List.sort_uniq Int.compare l) = List.length l in
  check "sync distinct" true (distinct sync_codes);
  check "async distinct" true (distinct async_codes)

let test_run_error_consolidates () =
  (* The consolidated numbering pins the documented per-executor codes... *)
  List.iter
    (fun (f, code) ->
      check_int "sync code" code (Run_error.exit_code (Run_error.Sync f)))
    [ Executor.Max_rounds_exceeded 9, 2;
      Executor.Tape_exhausted { round = 3 }, 3;
      Executor.All_nodes_crashed { round = 2 }, 4;
    ];
  List.iter
    (fun (f, code) ->
      check_int "async code" code (Run_error.exit_code (Run_error.Async f)))
    [ Async.Event_limit_exceeded 9, 5;
      Async.Tape_exhausted { round = 3 }, 3;
      Async.Stalled { events = 5 }, 6;
    ];
  (* ...give the Las-Vegas harness's structured failures the documented
     codes (Network_dead shares 4 with All_nodes_crashed: both mean the
     fault plan leaves no node running)... *)
  List.iter
    (fun (reason, code) ->
      check_int "las-vegas code" code
        (Run_error.exit_code
           (Run_error.Las_vegas { Las_vegas.reason; message = "m" })))
    [ Las_vegas.No_success, 7;
      Las_vegas.Diverged, 9;
      Las_vegas.Network_dead, 4;
    ];
  (* ...give the wire layer's failures the 10..12 band... *)
  List.iter
    (fun (f, code) ->
      check_int "net code" code (Run_error.exit_code (Run_error.Net f)))
    [ Run_error.Protocol { message = "m" }, 10;
      Run_error.Rejected { message = "m" }, 11;
      Run_error.Connection { message = "m" }, 12;
    ];
  (* ...and round-trip: every representative maps to a code that
     [of_exit_code] resolves back to the same code.  [Run_error.all]
     covers every constructor of all four failure types, so this is
     exhaustive over the numbering. *)
  List.iter
    (fun e ->
      let c = Run_error.exit_code e in
      check "code in the reserved 2..12 band" true (c >= 2 && c <= 12);
      match Run_error.of_exit_code c with
      | None -> Alcotest.failf "code %d does not resolve" c
      | Some e' -> check_int "round-trips" c (Run_error.exit_code e'))
    Run_error.all;
  (* the pretty-printer delegates to the per-executor ones *)
  check "pp sync" true
    (Format.asprintf "%a" Run_error.pp
       (Run_error.Sync (Executor.Max_rounds_exceeded 9))
    = Format.asprintf "%a" Executor.pp_failure (Executor.Max_rounds_exceeded 9));
  check "unknown codes resolve to nothing" true
    (Run_error.of_exit_code 0 = None
    && Run_error.of_exit_code 1 = None
    && Run_error.of_exit_code 13 = None)

let () =
  Alcotest.run "anonet_faults"
    [
      ( "grammar",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_grammar_roundtrip;
          Alcotest.test_case "parses the README example" `Quick test_plan_grammar_parses;
          Alcotest.test_case "rejects malformed specs" `Quick test_plan_grammar_rejects;
        ] );
      ( "injector",
        [
          Alcotest.test_case "seeded determinism" `Quick test_injector_deterministic;
          Alcotest.test_case "budget 0 = reliable" `Quick test_budget_zero_is_reliable;
          Alcotest.test_case "budget caps spending" `Quick test_budget_caps_spending;
          Alcotest.test_case "corrupt_label perturbs" `Quick test_corrupt_label;
        ] );
      ( "sync-faults",
        [
          Alcotest.test_case "total loss = silence" `Quick test_sync_loss_silently_nulls;
          Alcotest.test_case "dead link" `Quick test_sync_dead_link;
          Alcotest.test_case "stale duplicate queue" `Quick test_sync_stale_duplicate_queued;
          Alcotest.test_case "crash-recovery naps" `Quick test_crash_recovery_resumes_with_state;
          Alcotest.test_case "crash-recovery loses outage mail" `Quick
            test_crash_recovery_loses_outage_messages;
          Alcotest.test_case "budget 0 = reliable on both executors" `Quick
            test_budget_zero_executors_identical;
          Alcotest.test_case "crash-stop starves" `Quick test_crash_stop_starves;
          Alcotest.test_case "all nodes crashed" `Quick test_all_nodes_crashed;
          Alcotest.test_case "crash events logged" `Quick test_crash_events_logged;
          Alcotest.test_case "trace shows faults" `Quick test_trace_shows_faults;
          Alcotest.test_case "trace detects all-crashed" `Quick test_trace_detects_doom;
        ] );
      ( "retransmit",
        [
          Alcotest.test_case "transparent without faults" `Quick
            test_retransmit_transparent_without_faults;
          Alcotest.test_case "2-hop coloring survives 20% loss (50 seeds)" `Slow
            test_retransmit_survives_loss;
          Alcotest.test_case "survives loss + duplication" `Quick
            test_retransmit_survives_duplication_and_corruption_free_loss;
          Alcotest.test_case "survives 30% corruption (10 seeds)" `Quick
            test_retransmit_survives_corruption;
          Alcotest.test_case "α-synchronizer breaks without it" `Quick
            test_alpha_synchronizer_breaks_under_loss;
          Alcotest.test_case "async crashes are crash-stop" `Quick
            test_async_crash_stops_forever;
        ] );
      ( "las-vegas",
        [
          Alcotest.test_case "solves under loss" `Quick test_las_vegas_with_faults;
          Alcotest.test_case "total crash fails fast" `Quick
            test_las_vegas_rejects_total_crash;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "distinct non-zero mapping" `Quick test_exit_codes_distinct;
          Alcotest.test_case "Run_error consolidation round-trips" `Quick
            test_run_error_consolidates;
        ] );
    ]
