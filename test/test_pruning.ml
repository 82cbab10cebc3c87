(* Core-guided pruning: value-preservation and budget-parity tests.

   The pruned round-major search must be an *optimization*, never an
   approximation: the returned [found] record — assignment and
   simulation — is identical to the exhaustive search's on every
   instance, while [states_explored] only shrinks.  These tests pin that
   contract on fixed fixtures, on random connected graphs, run as
   concurrent replicas on domain pools of 1/2/4, for both [At_most] and
   [Exactly] targets, and cross-check the minimal length against the
   brute-force node-major enumeration of [Search_oracle].  The
   budget-exhaustion scans additionally assert the budget contract: a
   budget below the unlimited search's state count raises
   [Search_limit_exceeded], and any other budget returns the unlimited
   search's answer. *)

open Anonet_graph
open Anonet
module Pool = Anonet_parallel.Pool
module Run_ctx = Anonet_runtime.Run_ctx
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pool_sizes = [ 1; 2; 4 ]

let assignment_equal a b =
  Array.length a = Array.length b && Array.for_all2 Bits.equal a b

(* Full identity, states included — for calling-domain-vs-concurrent
   checks. *)
let found_equal (a : Min_search.found) (b : Min_search.found) =
  a.Min_search.states_explored = b.Min_search.states_explored
  && assignment_equal a.Min_search.assignment b.Min_search.assignment
  && a.Min_search.sim.Simulation.successful
     = b.Min_search.sim.Simulation.successful
  && a.Min_search.sim.Simulation.rounds_run
     = b.Min_search.sim.Simulation.rounds_run

(* Value identity, states ignored — for pruned-vs-exhaustive checks,
   where the whole point is that the state counts differ. *)
let found_value_equal (a : Min_search.found) (b : Min_search.found) =
  assignment_equal a.Min_search.assignment b.Min_search.assignment
  && a.Min_search.sim.Simulation.successful
     = b.Min_search.sim.Simulation.successful
  && a.Min_search.sim.Simulation.rounds_run
     = b.Min_search.sim.Simulation.rounds_run

let search ?max_states ~solver ~max_len g ~pruning =
  Min_search.minimal_successful ~solver g
    ~base:(Bit_assignment.empty (Graph.n g))
    ?max_states ~pruning ~max_len ()

(* Asserts the pruned search's value identity and effort reduction on
   one search point (graph, solver, length); returns (pruned, exhaustive)
   state counts when the search succeeded. *)
let check_pruned_vs_exhaustive name search =
  let pruned = search ~pruning:true in
  let exhaustive = search ~pruning:false in
  match pruned, exhaustive with
  | None, None -> None
  | Some p, Some e ->
    check (name ^ ": pruned value = exhaustive value") true
      (found_value_equal p e);
    check
      (Printf.sprintf "%s: pruned states (%d) <= exhaustive states (%d)" name
         p.Min_search.states_explored e.Min_search.states_explored)
      true
      (p.Min_search.states_explored <= e.Min_search.states_explored);
    Some (p.Min_search.states_explored, e.Min_search.states_explored)
  | Some _, None ->
    Alcotest.fail (name ^ ": pruned found an assignment exhaustive missed")
  | None, Some _ ->
    Alcotest.fail (name ^ ": pruning lost the minimal assignment")

let fixtures =
  [ "path-2", Gen.label_with_ints (Gen.path 2);
    "cycle-3", Gen.label_with_ints (Gen.cycle 3);
    "cycle-4", Gen.label_with_ints (Gen.cycle 4);
    "cycle-5", Gen.label_with_ints (Gen.cycle 5);
    "random-5", Gen.label_with_ints (Gen.random_connected ~seed:3 5 0.5);
  ]

let test_pruned_equals_exhaustive_rand_mis () =
  List.iter
    (fun (name, g) ->
      match
        check_pruned_vs_exhaustive ("rand-mis/" ^ name)
          (search ~solver:Anonet_algorithms.Rand_mis.algorithm ~max_len:16 g)
      with
      | Some (p, e) ->
        (* The dead-coin canonicalization makes decided nodes provably
           insensitive, so every fixture must show a real reduction. *)
        check (Printf.sprintf "rand-mis/%s: strict reduction" name) true (p < e)
      | None -> Alcotest.fail ("rand-mis/" ^ name ^ ": no assignment found"))
    fixtures

let test_pruned_equals_exhaustive_two_hop () =
  List.iter
    (fun (name, g) ->
      ignore
        (check_pruned_vs_exhaustive ("two-hop/" ^ name)
           (search ~solver:Anonet_algorithms.Rand_two_hop.algorithm ~max_len:8 g)))
    [ "path-2", Gen.label_with_ints (Gen.path 2);
      "cycle-3", Gen.label_with_ints (Gen.cycle 3);
      "cycle-4", Gen.label_with_ints (Gen.cycle 4) ]

let test_pruned_exactly () =
  (* [Exactly] disables the cross-level subsumption table but keeps the
     sensitivity cores; the value contract is the same.  Scan the exact
     lengths around the minimal one so both Some and None outcomes are
     exercised. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  for l = 1 to 6 do
    ignore
      (check_pruned_vs_exhaustive
         (Printf.sprintf "rand-mis/cycle-4/exactly-%d" l)
         (fun ~pruning ->
           Cold.exactly ~pruning ~solver:Anonet_algorithms.Rand_mis.algorithm
             g ~base:(Bit_assignment.empty 4) ~len:l))
  done

let test_pruned_vs_node_major () =
  (* The brute-force node-major enumeration uses a different total order,
     so only the minimal length is comparable — but it is exhaustive by
     construction, making it the reference the pruned search must not
     undershoot or overshoot. *)
  List.iter
    (fun (name, g) ->
      let rm =
        search ~solver:Anonet_algorithms.Rand_mis.algorithm ~pruning:true
          ~max_len:4 g
      in
      let nm =
        Search_oracle.node_major_at_most
          ~solver:Anonet_algorithms.Rand_mis.algorithm g
          ~base:(Bit_assignment.empty (Graph.n g)) ~max_len:4
      in
      match rm, nm with
      | Some rm, Some (nm, _) ->
        check_int
          (name ^ ": pruned minimal length = node-major minimal length")
          (Bit_assignment.max_length nm)
          (Bit_assignment.max_length rm.Min_search.assignment)
      | None, None -> ()
      | _ -> Alcotest.fail (name ^ ": presence differs from node-major"))
    [ "path-2", Gen.label_with_ints (Gen.path 2);
      "cycle-3", Gen.label_with_ints (Gen.cycle 3);
      "cycle-4", Gen.label_with_ints (Gen.cycle 4) ]

let test_pruned_pools_identical () =
  (* Pruned searches run side by side on concurrent domains must be
     bit-identical to the pruned search on the calling domain — found
     record, states_explored included. *)
  List.iter
    (fun (name, g) ->
      let run () =
        search ~solver:Anonet_algorithms.Rand_mis.algorithm ~pruning:true
          ~max_len:16 g
      in
      let sequential = run () in
      List.iter
        (fun domains ->
          Array.iter
            (fun pooled ->
              match sequential, pooled with
              | Some a, Some b ->
                check
                  (Printf.sprintf "%s: pooled pruned identical (%d domains)"
                     name domains)
                  true (found_equal a b)
              | None, None -> ()
              | _ ->
                Alcotest.fail
                  (Printf.sprintf "%s: presence differs at %d domains" name
                     domains))
            (Pool.map ~domains run (Array.make domains ())))
        pool_sizes)
    fixtures

let prop_pruned_random =
  QCheck.Test.make ~name:"pruned = exhaustive on random graphs" ~count:12
    (QCheck.make
       ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" seed n p)
       QCheck.Gen.(
         triple (int_bound 10_000) (int_range 2 5) (float_bound_inclusive 0.6)))
    (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      let name = Printf.sprintf "random/seed=%d" seed in
      ignore
        (check_pruned_vs_exhaustive name
           (search ~solver:Anonet_algorithms.Rand_mis.algorithm ~max_len:8 g));
      true)

(* ---------- budget exhaustion: every truncation raises --- *)

(* A length-first search from [base] with its effort read off the
   [search.states_explored] counter, which also counts a search that
   raised: [Error ()] when it ran out of budget. *)
let counted_search ?max_states ~pruning ~base ~max_len g =
  let m = Metrics.create () in
  let outcome =
    match
      Min_search.minimal_successful ~solver:Anonet_algorithms.Rand_mis.algorithm
        g ~base ~ctx:(Run_ctx.make ~obs:(Obs.make ~metrics:m ()) ())
        ?max_states ~pruning ~max_len ()
    with
    | found -> Ok found
    | exception Min_search.Search_limit_exceeded -> Error ()
  in
  outcome, Metrics.counter_value (Metrics.counter m "search.states_explored")

(* The budget contract: a search given fewer states than the unbudgeted
   search explores raises, having counted one state past its budget; a
   search given at least as many returns the unbudgeted answer after the
   same effort.  A level stops at its first success, so the unbudgeted
   search's last state decides its answer and no truncated search holds
   one.  The unbudgeted answer must also be the brute-force round-major
   minimum whenever enumerating it is cheap.  [budgets total] picks the
   budgets from the unbudgeted count. *)
let check_budget_contract ~name ~pruning ~base ~max_len ~budgets g =
  let reference, total =
    match counted_search ~pruning ~base ~max_len g with
    | Ok r, total -> r, total
    | Error (), _ -> Alcotest.fail (name ^ ": unbudgeted search ran out")
  in
  (match reference with
   | Some f
     when Search_oracle.free_bits base
            ~len:(Bit_assignment.max_length f.Min_search.assignment)
          <= 12 ->
     (match
        Search_oracle.round_major_at_most
          ~solver:Anonet_algorithms.Rand_mis.algorithm g ~base ~max_len
      with
      | Some (bits, _) ->
        check (name ^ ": unbudgeted = brute-force minimum") true
          (assignment_equal f.Min_search.assignment bits)
      | None -> Alcotest.fail (name ^ ": brute force found nothing"))
   | Some _ | None -> ());
  List.iter
    (fun budget ->
      let here = Printf.sprintf "%s, budget %d of %d" name budget total in
      match counted_search ~max_states:budget ~pruning ~base ~max_len g with
      | Error (), states ->
        check (here ^ ": raised below the unbudgeted count") true (budget < total);
        check_int (here ^ ": states at the raise") (budget + 1) states
      | Ok found, states ->
        check (here ^ ": returned at or above the unbudgeted count") true
          (budget >= total);
        check_int (here ^ ": states") total states;
        check (here ^ ": returned the unbudgeted answer") true
          (Option.equal found_equal found reference))
    (budgets total)

let test_budget_parity_scan_pruned () =
  (* Every budget from 1 to past cycle-3's whole pruned search. *)
  let g = Gen.label_with_ints (Gen.cycle 3) in
  check_budget_contract ~name:"cycle-3" ~pruning:true
    ~base:(Bit_assignment.empty 3) ~max_len:16 g
    ~budgets:(fun total -> List.init (total + 2) (fun i -> i + 1))

let test_budget_parity_scan_exhaustive () =
  (* Same scan with pruning off: the budget contract is a property of the
     search skeleton, not of the pruner. *)
  let g = Gen.label_with_ints (Gen.cycle 3) in
  check_budget_contract ~name:"cycle-3 exhaustive" ~pruning:false
    ~base:(Bit_assignment.empty 3) ~max_len:16 g
    ~budgets:(fun total -> List.init ((total / 5) + 2) (fun i -> (5 * i) + 1))

let test_budget_below_base () =
  (* A success recorded below the longest base string is not yet the
     minimum: the level at the base's length can still beat it.  Here
     the budget runs out inside that level, which a search that returned
     its recorded best answered with [0000;1000;0100]. *)
  let g = Gen.label_with_ints (Gen.cycle 3) in
  let base = Array.map Bits.of_string [| "0"; ""; "0100" |] in
  (match counted_search ~pruning:true ~base ~max_len:8 g with
   | Ok (Some f), _ ->
     check "unbudgeted minimum is [0000;0000;0100]" true
       (assignment_equal f.Min_search.assignment
          (Array.map Bits.of_string [| "0000"; "0000"; "0100" |]))
   | (Ok None | Error ()), _ -> Alcotest.fail "unbudgeted search found nothing");
  check_budget_contract ~name:"cycle-3, base 0/-/0100" ~pruning:true ~base
    ~max_len:8 g ~budgets:(fun total -> [ 26; total - 1; total ])

let test_budget_seeded_scan () =
  (* Random paths and cycles of at most 5 nodes under random bases of
     strings of length at most 4, each with budgets around its unbudgeted
     count and below it. *)
  let rng = Random.State.make [| 29 |] in
  for case = 1 to 60 do
    let n = 2 + Random.State.int rng 4 in
    let cycle = n >= 3 && Random.State.bool rng in
    let g = Gen.label_with_ints (if cycle then Gen.cycle n else Gen.path n) in
    let base =
      Array.init n (fun _ ->
          Bits.of_list
            (List.init (Random.State.int rng 5) (fun _ -> Random.State.bool rng)))
    in
    let pruning = Random.State.bool rng in
    let name =
      Printf.sprintf "case %d: %s %d, base %s, pruning %b" case
        (if cycle then "cycle" else "path")
        n
        (String.concat "/" (Array.to_list (Array.map Bits.to_string base)))
        pruning
    in
    check_budget_contract ~name ~pruning ~base ~max_len:6 g
      ~budgets:(fun total ->
        List.filter (fun b -> b >= 1)
          ([ total - 1; total; total + 1 ]
          @ List.init 12 (fun _ -> 1 + Random.State.int rng (max 1 total))))
  done

let test_budget_exactly_always_raises () =
  (* An [Exactly] search out of budget raises, as every truncated search
     does. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  match
    Cold.exactly ~max_states:40 ~solver:Anonet_algorithms.Rand_mis.algorithm
      ~pruning:true g ~base:(Bit_assignment.empty 4) ~len:6
  with
  | Some _ | None -> Alcotest.fail "Exactly under budget did not raise"
  | exception Min_search.Search_limit_exceeded -> ()

let test_budget_parity_replayed () =
  (* A recurring state's children are replayed without stepping, but
     each still counts against the budget, one by one.  Scan the budget
     across levels 4..8 of an [Exactly 8] search on cycle-8, where the
     states recur: the search must raise exactly when the budget is
     below the unmemoized oracle's cumulative count, having counted one
     state past the budget. *)
  let g = Gen.label_with_ints (Gen.cycle 8) in
  let solver = Anonet_algorithms.Rand_mis.algorithm in
  let base = Bit_assignment.empty 8 in
  let cumulative =
    let module A = (val solver : Anonet_runtime.Algorithm.S) in
    let oracle =
      Boxed_oracle.search_exactly (module A) g ~base ~pruning:true ~max_len:8
    in
    fun l -> fst oracle.(l - 1)
  in
  let total = cumulative 8 in
  let budgets =
    List.concat_map
      (fun l ->
        let lo = cumulative (l - 1) and hi = cumulative l in
        [ lo + 1; (lo + hi) / 2; hi - 1 ])
      [ 4; 5; 6; 7; 8 ]
    @ [ total ]
  in
  List.iter
    (fun budget ->
      let t = Min_search.Resumable.create ~max_states:budget ~solver g ~base () in
      match Min_search.Resumable.extend t ~len:8 with
      | found ->
        check (Printf.sprintf "budget %d: returned at or above %d" budget total) true
          (budget >= total);
        check_int
          (Printf.sprintf "budget %d: states explored" budget)
          total
          (Option.fold ~none:(-1) ~some:(fun f -> f.Min_search.states_explored) found)
      | exception Min_search.Search_limit_exceeded ->
        check (Printf.sprintf "budget %d: raised below %d" budget total) true
          (budget < total);
        check_int
          (Printf.sprintf "budget %d: states at the raise" budget)
          (budget + 1)
          (Min_search.Resumable.states_explored t))
    budgets

(* ---------- cross-level subsumption: the stamps as marks ---------- *)

let test_stamp_subsumption () =
  (* A child is subsumed when an earlier level at or past the longest
     base string absorbed its state; with an empty base the root counts
     as absorbed at level 0.  The last-coin algorithm's state after a
     round is that round's bit vector, so on path-2 every level reaches
     all four states.  Empty base: level 1 steps the root's four
     children, subsumes the root among them and keeps three; level 2
     steps their 12 children and subsumes the 4 distinct ones.  Base
     ("0", ""): level 1 steps two children and keeps both (level 0 is
     below the base); level 2 steps 8, subsumes the two states of level
     1 and keeps two new ones; level 3 steps 8 and subsumes 4. *)
  let g = Gen.path 2 in
  List.iter
    (fun (name, base, explored, pruned) ->
      let m = Metrics.create () in
      let found =
        Min_search.minimal_successful ~solver:Recurring.algorithm g ~base
          ~ctx:(Run_ctx.make ~obs:(Obs.make ~metrics:m ()) ())
          ~max_len:6 ()
      in
      check (name ^ ": no success") true (found = None);
      check_int (name ^ ": states explored") explored
        (Metrics.counter_value (Metrics.counter m "search.states_explored"));
      check_int (name ^ ": pruned") pruned
        (Metrics.counter_value (Metrics.counter m "search.pruned")))
    [ "empty base", Bit_assignment.empty 2, 16, 5;
      "base 0/-", [| Bits.of_string "0"; Bits.empty |], 18, 6 ]

(* ---------- Resumable: targets below the explored level ---------- *)

let test_resumable_below_level_without_floor () =
  (* A handle keeps no proof for levels it has passed, so a target
     strictly below the frontier is unanswerable: Invalid_argument. *)
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let l =
    match
      search ~solver:Anonet_algorithms.Rand_mis.algorithm ~pruning:true
        ~max_len:16 g
    with
    | Some f -> Bit_assignment.max_length f.Min_search.assignment
    | None -> Alcotest.fail "no minimal assignment on cycle-4"
  in
  check "fixture minimal length >= 2" true (l >= 2);
  let t =
    Min_search.Resumable.create ~solver:Anonet_algorithms.Rand_mis.algorithm g
      ~base:(Bit_assignment.empty 4) ()
  in
  (match Min_search.Resumable.extend t ~len:l with
   | Some _ -> ()
   | None -> Alcotest.fail "extend at minimal length found nothing");
  Alcotest.check_raises "below-level target rejected"
    (Invalid_argument "Min_search.Resumable.extend: target below explored level")
    (fun () -> ignore (Min_search.Resumable.extend t ~len:(l - 1)))

(* ---------- observability: gauge reset and the new counters ---------- *)

let test_frontier_gauge_reset () =
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let runs =
    [ "success",
      (fun ctx ->
        ignore
          (Min_search.minimal_successful
             ~solver:Anonet_algorithms.Rand_mis.algorithm g
             ~base:(Bit_assignment.empty 4) ~ctx ~max_len:16
             ()));
      "no-success",
      (fun ctx ->
        ignore
          (Min_search.minimal_successful
             ~solver:Anonet_algorithms.Rand_mis.algorithm g
             ~base:(Bit_assignment.empty 4) ~ctx ~max_len:1
             ()));
      "limit",
      (fun ctx ->
        match
          Cold.exactly ~solver:Anonet_algorithms.Rand_mis.algorithm g
            ~base:(Bit_assignment.empty 4) ~ctx ~max_states:5 ~len:6
        with
        | (Some _ | None) -> Alcotest.fail "expected Search_limit_exceeded"
        | exception Min_search.Search_limit_exceeded -> ());
    ]
  in
  List.iter
    (fun (name, run) ->
      let m = Metrics.create () in
      run (Run_ctx.make ~obs:(Obs.make ~metrics:m ()) ());
      check_int
        (name ^ ": frontier gauge reset on exit")
        0
        (Metrics.gauge_value (Metrics.gauge m "search.frontier")))
    runs

let test_pruning_counters () =
  let g = Gen.label_with_ints (Gen.cycle 4) in
  let run ~pruning =
    let m = Metrics.create () in
    let f =
      Min_search.minimal_successful
        ~solver:Anonet_algorithms.Rand_mis.algorithm g
        ~base:(Bit_assignment.empty 4) ~pruning
        ~ctx:(Run_ctx.make ~obs:(Obs.make ~metrics:m ()) ())
        ~max_len:16 ()
    in
    m, f
  in
  let m, f = run ~pruning:true in
  (match f with
   | Some f ->
     check_int "states counter mirrors the found record"
       f.Min_search.states_explored
       (Metrics.counter_value (Metrics.counter m "search.states_explored"))
   | None -> Alcotest.fail "no assignment found");
  check "pruned counter counts the skipped work" true
    (Metrics.counter_value (Metrics.counter m "search.pruned") > 0);
  check "sensitivity probes counted" true
    (Metrics.counter_value (Metrics.counter m "search.core_probes") > 0);
  let m, _ = run ~pruning:false in
  check_int "pruning off: nothing pruned" 0
    (Metrics.counter_value (Metrics.counter m "search.pruned"));
  check_int "pruning off: no probes" 0
    (Metrics.counter_value (Metrics.counter m "search.core_probes"))

let () =
  Alcotest.run "pruning"
    [ ( "value-preservation",
        [ Alcotest.test_case "rand-mis fixtures" `Quick
            test_pruned_equals_exhaustive_rand_mis;
          Alcotest.test_case "two-hop fixtures" `Quick
            test_pruned_equals_exhaustive_two_hop;
          Alcotest.test_case "Exactly targets" `Quick test_pruned_exactly;
          Alcotest.test_case "node-major reference" `Quick
            test_pruned_vs_node_major;
          Alcotest.test_case "pools identical" `Quick
            test_pruned_pools_identical;
          QCheck_alcotest.to_alcotest prop_pruned_random ] );
      ( "budget-parity",
        [ Alcotest.test_case "scan, pruned" `Quick
            test_budget_parity_scan_pruned;
          Alcotest.test_case "scan, exhaustive" `Quick
            test_budget_parity_scan_exhaustive;
          Alcotest.test_case "truncated at the base's length" `Quick
            test_budget_below_base;
          Alcotest.test_case "seeded scan, paths and cycles" `Quick
            test_budget_seeded_scan;
          Alcotest.test_case "Exactly always raises" `Quick
            test_budget_exactly_always_raises;
          Alcotest.test_case "replayed levels, against the oracle" `Quick
            test_budget_parity_replayed ] );
      ( "subsumption",
        [ Alcotest.test_case "stamps mark earlier levels" `Quick
            test_stamp_subsumption ] );
      ( "resumable-floor",
        [ Alcotest.test_case "below level without floor" `Quick
            test_resumable_below_level_without_floor ] );
      ( "observability",
        [ Alcotest.test_case "frontier gauge reset" `Quick
            test_frontier_gauge_reset;
          Alcotest.test_case "pruning counters" `Quick test_pruning_counters ]
      ) ]
