(* Flat-path equivalence suite: the executor's flat (arena) representation,
   the probe/commit stepping API and the flat simulation fast path must be
   byte-identical to the boxed reference — same outputs, rounds, message
   counts, dedup keys and search results — on fixed and random graphs,
   sequentially and side by side on pool domains, and must fall back to
   (identical) boxed execution whenever fault or adversary plans are in
   play.  This is the contract [Algorithm.register_flat] documents. *)

module Gen = Anonet_graph.Gen
module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Bits = Anonet_graph.Bits
module Bitvec = Anonet_graph.Bitvec
module Algorithm = Anonet_runtime.Algorithm
module Executor = Anonet_runtime.Executor
module Run_ctx = Anonet_runtime.Run_ctx
module Faults = Anonet_runtime.Faults
module Adversary = Anonet_runtime.Adversary
module Pool = Anonet_parallel.Pool
open Anonet

let check = Alcotest.check

(* [find_flat] matches companions by the algorithm module's physical
   identity, so re-packing the same module is an exact boxed twin: same
   transition function, no flat companion. *)
let boxed_variant (algo : Algorithm.t) : Algorithm.t =
  let module A = (val algo) in
  (module struct
    include A
  end)

let algorithms =
  [ "rand-mis", Anonet_algorithms.Rand_mis.algorithm;
    "rand-2hop", Anonet_algorithms.Rand_two_hop.algorithm ]

let fixed_graphs () =
  [ "path2", Gen.label_with_ints (Gen.path 2);
    "cycle3", Gen.label_with_ints (Gen.cycle 3);
    "cycle5", Gen.label_with_ints (Gen.cycle 5);
    "petersen", Gen.label_with_ints (Gen.petersen ()) ]

(* Deterministic per-(seed, round, node) bits — a tiny splitmix so both
   executions see the same randomness without sharing state. *)
let bit_of ~seed ~round v =
  let z = ((seed * 747796405) + (round * 2891336453) + (v * 62089911)) land max_int in
  let z = z lxor (z lsr 17) in
  z land 1 = 1

let bits_vec ~seed ~round n =
  let vec = Bitvec.create n in
  for v = 0 to n - 1 do
    Bitvec.set vec v (bit_of ~seed ~round v)
  done;
  vec

let label_opt = Alcotest.testable (Fmt.option Label.pp) (Option.equal Label.equal)

let check_state_equal ~name flat boxed =
  check Alcotest.int (name ^ ": round") (Executor.Incremental.round boxed)
    (Executor.Incremental.round flat);
  check Alcotest.int (name ^ ": messages")
    (Executor.Incremental.messages boxed)
    (Executor.Incremental.messages flat);
  check Alcotest.bool (name ^ ": all_output")
    (Executor.Incremental.all_output boxed)
    (Executor.Incremental.all_output flat);
  check (Alcotest.array label_opt) (name ^ ": outputs")
    (Executor.Incremental.outputs boxed)
    (Executor.Incremental.outputs flat)

(* ---------- lockstep executor equivalence ---------- *)

let lockstep ~name ~seed ~rounds algo g =
  let n = Graph.n g in
  let flat = ref (Executor.Incremental.start algo g) in
  let boxed = ref (Executor.Incremental.start ~use_flat:false algo g) in
  check Alcotest.bool (name ^ ": flat path engaged") true
    (Executor.Incremental.is_flat !flat);
  check Alcotest.bool (name ^ ": boxed reference stayed boxed") false
    (Executor.Incremental.is_flat !boxed);
  check_state_equal ~name:(name ^ " r0") !flat !boxed;
  for r = 1 to rounds do
    let bits = bits_vec ~seed ~round:r n in
    flat := Executor.Incremental.step_vec !flat ~bits;
    boxed := Executor.Incremental.step_vec !boxed ~bits;
    check_state_equal ~name:(Printf.sprintf "%s r%d" name r) !flat !boxed
  done

let test_lockstep_fixed () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (gname, g) ->
          lockstep ~name:(aname ^ "/" ^ gname) ~seed:11 ~rounds:8 algo g)
        (fixed_graphs ()))
    algorithms

let prop_lockstep_random =
  QCheck.Test.make ~name:"flat = boxed lockstep on random graphs" ~count:25
    (QCheck.make
       ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" seed n p)
       QCheck.Gen.(
         triple (int_bound 10_000) (int_range 2 6) (float_bound_inclusive 0.6)))
    (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      List.iter
        (fun (aname, algo) ->
          lockstep
            ~name:(Printf.sprintf "%s/seed=%d" aname seed)
            ~seed ~rounds:6 algo g)
        algorithms;
      true)

(* ---------- probe/commit = step_vec ---------- *)

let probe_matches_step ~name ~seed ~rounds algo g =
  let n = Graph.n g in
  let exec = ref (Executor.Incremental.start algo g) in
  for r = 1 to rounds do
    let bits = bits_vec ~seed ~round:r n in
    let stepped = Executor.Incremental.step_vec !exec ~bits in
    let probe = Executor.Incremental.probe_vec !exec ~bits in
    (* The transient key must already identify the stepped state... *)
    check Alcotest.bool
      (Printf.sprintf "%s r%d: probe key = stepped key" name r)
      true
      (Executor.Incremental.Key.equal
         (Executor.Incremental.probe_key probe)
         (Executor.Incremental.dedup_key stepped));
    (* ...and committing must materialize that exact state, with a key
       that survives the next probe overwriting the shared buffer. *)
    let committed, stable = Executor.Incremental.probe_commit probe in
    check Alcotest.string
      (Printf.sprintf "%s r%d: committed fingerprint" name r)
      (Executor.Incremental.fingerprint stepped)
      (Executor.Incremental.fingerprint committed);
    let _ = Executor.Incremental.probe_vec !exec ~bits:(bits_vec ~seed:(seed + 1) ~round:r n) in
    check Alcotest.bool
      (Printf.sprintf "%s r%d: stable key survives next probe" name r)
      true
      (Executor.Incremental.Key.equal stable
         (Executor.Incremental.dedup_key stepped));
    check_state_equal ~name:(Printf.sprintf "%s r%d (commit)" name r) committed
      stepped;
    exec := stepped
  done

let test_probe_fixed () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (gname, g) ->
          probe_matches_step
            ~name:(aname ^ "/" ^ gname)
            ~seed:23 ~rounds:6 algo g)
        (fixed_graphs ()))
    algorithms

let prop_probe_random =
  QCheck.Test.make ~name:"probe/commit = step_vec on random graphs" ~count:25
    (QCheck.make
       ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%f" seed n p)
       QCheck.Gen.(
         triple (int_bound 10_000) (int_range 2 6) (float_bound_inclusive 0.6)))
    (fun (seed, n, p) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n p) in
      List.iter
        (fun (aname, algo) ->
          probe_matches_step
            ~name:(Printf.sprintf "%s/seed=%d" aname seed)
            ~seed ~rounds:5 algo g)
        algorithms;
      true)

(* ---------- simulation fast path = boxed reference ---------- *)

let random_assignment ~seed n ~len =
  Array.init n (fun v ->
      Bits.of_list (List.init len (fun r -> bit_of ~seed ~round:r v)))

let check_sim_equal ~name flat_r boxed_r =
  check Alcotest.bool (name ^ ": successful")
    boxed_r.Simulation.successful flat_r.Simulation.successful;
  check Alcotest.int (name ^ ": rounds_run") boxed_r.Simulation.rounds_run
    flat_r.Simulation.rounds_run;
  check (Alcotest.array label_opt) (name ^ ": outputs") boxed_r.Simulation.outputs
    flat_r.Simulation.outputs

let prop_simulation_random =
  QCheck.Test.make ~name:"Simulation.run flat = boxed on random graphs"
    ~count:30
    (QCheck.make
       ~print:(fun (seed, n, len) -> Printf.sprintf "seed=%d n=%d len=%d" seed n len)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 6) (int_range 1 8)))
    (fun (seed, n, len) ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed n 0.5) in
      let bits = random_assignment ~seed (Graph.n g) ~len in
      List.iter
        (fun (aname, algo) ->
          let flat_r = Simulation.run ~solver:algo g ~bits in
          let boxed_r = Simulation.run ~solver:(boxed_variant algo) g ~bits in
          check_sim_equal
            ~name:(Printf.sprintf "%s/seed=%d" aname seed)
            flat_r boxed_r)
        algorithms;
      true)

(* ---------- fault / adversary plans pin the boxed path ---------- *)

let injection_plans =
  [ ( "loss",
      (fun () -> Run_ctx.make ~faults:(Faults.with_loss 0.4 ~seed:7) ()),
      fun () -> Some (Faults.make (Faults.with_loss 0.4 ~seed:7)), None );
    ( "byzantine",
      (fun () ->
        Run_ctx.make ~adversary:(Adversary.byzantine [ 0 ] ~strength:0.5 ~seed:9) ()),
      fun () ->
        None, Some (Adversary.make (Adversary.byzantine [ 0 ] ~strength:0.5 ~seed:9))
    ) ]

(* A ctx carrying injection hooks must (a) force the boxed representation
   even for algorithms with flat companions and (b) behave exactly like
   explicit per-step injection with an injector built from the same plan —
   plans are pure descriptions with reproducible schedules.  Only rand-mis
   here: rand-2hop assumes reliable delivery and rejects lossy inboxes by
   design, in both representations. *)
let test_injection_pins_boxed () =
  let g = Gen.label_with_ints (Gen.cycle 5) in
  let n = Graph.n g in
  List.iter
    (fun (pname, make_ctx, make_hooks) ->
      List.iter
        (fun (aname, algo) ->
          let name = aname ^ "/" ^ pname in
          let via_ctx = ref (Executor.Incremental.start ~ctx:(make_ctx ()) algo g) in
          check Alcotest.bool (name ^ ": ctx run falls back to boxed") false
            (Executor.Incremental.is_flat !via_ctx);
          let faults, adversary = make_hooks () in
          let explicit =
            ref (Executor.Incremental.start ~use_flat:false algo g)
          in
          for r = 1 to 6 do
            let bits = Array.init n (bit_of ~seed:31 ~round:r) in
            via_ctx := Executor.Incremental.step !via_ctx ~bits;
            explicit :=
              Executor.Incremental.step ?faults ?adversary !explicit ~bits;
            check_state_equal
              ~name:(Printf.sprintf "%s r%d" name r)
              !via_ctx !explicit
          done)
        [ "rand-mis", Anonet_algorithms.Rand_mis.algorithm ])
    injection_plans

let test_flat_rejects_injection () =
  let g = Gen.label_with_ints (Gen.cycle 3) in
  let exec = Executor.Incremental.start Anonet_algorithms.Rand_mis.algorithm g in
  check Alcotest.bool "flat without hooks" true (Executor.Incremental.is_flat exec);
  Alcotest.check_raises "flat step refuses late injection"
    (Invalid_argument
       "Executor.step: faults/scramble/adversary require the boxed execution \
        path — pass them via the ctx given to start (or start ~use_flat:false)")
    (fun () ->
      ignore
        (Executor.Incremental.step
           ~faults:(Faults.make (Faults.with_loss 0.5 ~seed:3))
           exec
           ~bits:(Array.make 3 false)))

(* ---------- search results, concurrently on pools 1/2/4 ---------- *)

let check_found_equal ~name flat_f boxed_f =
  match flat_f, boxed_f with
  | None, None -> ()
  | Some (ff : Min_search.found), Some (bf : Min_search.found) ->
    check Alcotest.int (name ^ ": assignment order") 0
      (Bit_assignment.compare_round_major ff.assignment bf.assignment);
    check Alcotest.int (name ^ ": states_explored") bf.states_explored
      ff.states_explored;
    check_sim_equal ~name ff.sim bf.sim
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: flat and boxed searches disagree on existence" name

let min_search_found algo g =
  Min_search.minimal_successful ~solver:algo g
    ~base:(Bit_assignment.empty (Graph.n g))
    ~len:(Min_search.At_most 8) ()

let test_search_pools () =
  let graphs =
    [ "path2", Gen.label_with_ints (Gen.path 2);
      "cycle4", Gen.label_with_ints (Gen.cycle 4);
      "cycle5", Gen.label_with_ints (Gen.cycle 5) ]
  in
  let algo = Anonet_algorithms.Rand_mis.algorithm in
  List.iter
    (fun (gname, g) ->
      let reference = min_search_found (boxed_variant algo) g in
      let sequential = min_search_found algo g in
      check_found_equal ~name:(gname ^ "/seq") sequential reference;
      (* Flat and boxed searches side by side on the pool's domains: the
         flat path's per-domain scratch must not leak between them. *)
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun p ->
              Array.iteri
                (fun i found ->
                  check_found_equal
                    ~name:
                      (Printf.sprintf "%s/pool%d-%s" gname domains
                         (if i mod 2 = 0 then "flat" else "boxed"))
                    found reference)
                (Pool.map p
                   (fun i ->
                     min_search_found
                       (if i mod 2 = 0 then algo else boxed_variant algo)
                       g)
                   (Array.init (2 * domains) Fun.id))))
        [ 1; 2; 4 ])
    graphs

let prop_search_random =
  QCheck.Test.make ~name:"flat search = boxed search on random graphs"
    ~count:10
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let g = Gen.label_with_ints (Gen.random_connected ~seed 4 0.5) in
      let algo = Anonet_algorithms.Rand_mis.algorithm in
      let reference = min_search_found (boxed_variant algo) g in
      check_found_equal
        ~name:(Printf.sprintf "seed=%d/seq" seed)
        (min_search_found algo g)
        reference;
      true)

let () =
  Alcotest.run "flat"
    [
      ( "lockstep",
        [
          Alcotest.test_case "flat = boxed on fixed graphs" `Quick
            test_lockstep_fixed;
          QCheck_alcotest.to_alcotest prop_lockstep_random;
        ] );
      ( "probe",
        [
          Alcotest.test_case "probe/commit = step_vec on fixed graphs" `Quick
            test_probe_fixed;
          QCheck_alcotest.to_alcotest prop_probe_random;
        ] );
      ( "simulation",
        [ QCheck_alcotest.to_alcotest prop_simulation_random ] );
      ( "injection",
        [
          Alcotest.test_case "fault/adversary plans pin the boxed path" `Quick
            test_injection_pins_boxed;
          Alcotest.test_case "flat rejects late injection" `Quick
            test_flat_rejects_injection;
        ] );
      ( "search",
        [
          Alcotest.test_case "pools 1/2/4, flat = boxed" `Quick test_search_pools;
          QCheck_alcotest.to_alcotest prop_search_random;
        ] );
    ]
