(* Flat-path equivalence suite: every registered flat companion must be
   an injective encoding of its algorithm's boxed execution states
   (checked on every bit vector of tiny graphs against the persistent
   boxed stepper in [Boxed_oracle]); the driver's in-place flat runs must
   be identical to runs of the companion-free twin on the boxed machine —
   same per-round messages and outputs, sequentially and under fault or
   adversary plans; probe/commit stepping must agree with the driver; and
   [Min_search] must return what the same search rebuilt on boxed states
   ([Boxed_oracle.search]) returns, after as many steps, sequentially and
   side by side on pool domains, and what the brute-force
   [Search_oracle] finds on the boxed twin below a pinned prefix.  This
   is the contract [Algorithm.register_flat] documents. *)

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
module Tape = Anonet_runtime.Tape
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
    "rand-2hop", Anonet_algorithms.Rand_two_hop.algorithm;
    "rand-coloring", Anonet_algorithms.Rand_coloring.algorithm;
    "rand-matching", Anonet_algorithms.Rand_matching.algorithm ]

(* Near-regular graphs, and graphs whose degrees spread: a message span
   is sized by the largest degree, so a low-degree sender leaves a tail
   that a reader must not take for a message, and a silent node's span
   keeps the words of its last send. *)
let fixed_graphs () =
  [ "path2", Gen.label_with_ints (Gen.path 2);
    "cycle3", Gen.label_with_ints (Gen.cycle 3);
    "cycle5", Gen.label_with_ints (Gen.cycle 5);
    "petersen", Gen.label_with_ints (Gen.petersen ());
    "star7", Gen.label_with_ints (Gen.star 7);
    "k4+path3", Gen.label_with_ints (Gen.lollipop 4 3);
    "single", Gen.label_with_ints (Gen.complete 1) ]

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

let outputs_t = Alcotest.array label_opt

(* ---------- injectivity against the boxed stepper ---------- *)

module KeyTbl = Hashtbl.Make (Executor.Incremental.Key)

(* Every child of every distinct execution, on every bit vector, for
   [rounds] rounds: two executions have equal flat keys iff their boxed
   execution states are structurally equal, and equal outputs.  The
   tables span all rounds, the root included, because the search's
   cross-level subsumption compares keys reached at different rounds;
   an execution already met is not branched again. *)
let injectivity ~name algo g ~rounds =
  let module A = (val algo : Algorithm.S) in
  let m = (module A : Algorithm.S with type state = A.state) in
  let n = Graph.n g in
  let root = Executor.Incremental.start algo g, Boxed_oracle.start m g in
  let by_key = KeyTbl.create 64 and by_boxed = Hashtbl.create 64 in
  KeyTbl.add by_key (Executor.Incremental.dedup_key (fst root)) (snd root);
  Hashtbl.add by_boxed (snd root) (Executor.Incremental.dedup_key (fst root));
  let frontier = ref [ root ] in
  for r = 1 to rounds do
    let next = ref [] in
    List.iter
      (fun (flat, boxed) ->
        for code = 0 to (1 lsl n) - 1 do
          let bits = Bitvec.create n in
          for v = 0 to n - 1 do
            Bitvec.set bits v ((code lsr v) land 1 = 1)
          done;
          let flat, key =
            Executor.Incremental.probe_commit (Executor.Incremental.probe_vec flat ~bits)
          in
          let boxed = Boxed_oracle.step m g boxed ~bits in
          let here = Printf.sprintf "%s r%d bits=%d" name r code in
          check outputs_t (here ^ ": outputs") (Boxed_oracle.outputs m boxed)
            (Executor.Incremental.outputs flat);
          (match KeyTbl.find_opt by_key key with
           | Some b ->
             check Alcotest.bool (here ^ ": equal keys, equal boxed states") true (b = boxed)
           | None ->
             KeyTbl.add by_key key boxed;
             next := (flat, boxed) :: !next);
          match Hashtbl.find_opt by_boxed boxed with
          | Some k ->
            check Alcotest.bool (here ^ ": equal boxed states, equal keys") true
              (Executor.Incremental.Key.equal k key)
          | None -> Hashtbl.add by_boxed boxed key
        done)
      !frontier;
    frontier := !next
  done

let injectivity_graphs () =
  [ "path2", Gen.label_with_ints (Gen.path 2);
    "path3", Gen.label_with_ints (Gen.path 3);
    "cycle3", Gen.label_with_ints (Gen.cycle 3);
    "star4", Gen.label_with_ints (Gen.star 4);
    "cycle4", Gen.label_with_ints (Gen.cycle 4);
    "cycle5", Gen.label_with_ints (Gen.cycle 5);
    "complete4", Gen.label_with_ints (Gen.complete 4) ]

(* Ten rounds on at most three nodes, six on four or five: deep enough
   for rand-2hop's second and third decisions and relays of non-empty
   candidates, rand-coloring's finalization and rand-matching's later
   phases. *)
let test_injectivity () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (gname, g) ->
          injectivity ~name:(aname ^ "/" ^ gname) algo g
            ~rounds:(if Graph.n g <= 3 then 10 else 6))
        (injectivity_graphs ()))
    algorithms

(* ---------- lockstep: in-place flat machine = boxed machine ---------- *)

(* One driver run: every round's messages and which nodes have output,
   then how the run ended. *)
let drive_log hooks algo g ~tape ~max_rounds =
  let log = ref [] in
  let note ~round ~messages ~has_output =
    log := (round, messages, Array.init (Graph.n g) has_output) :: !log
  in
  let e = Executor.drive ~note hooks algo g ~tape ~max_rounds in
  List.rev !log, e

let round_log = Alcotest.(list (triple int int (array bool)))

let check_drive_equal ~name (flat_log, (flat : Executor.ending))
    (boxed_log, (boxed : Executor.ending)) =
  check round_log (name ^ ": per-round messages and outputs") boxed_log flat_log;
  check outputs_t (name ^ ": outputs") boxed.last_outputs flat.last_outputs;
  check Alcotest.int (name ^ ": rounds") boxed.last_round flat.last_round;
  check Alcotest.int (name ^ ": messages") boxed.delivered flat.delivered;
  check Alcotest.bool (name ^ ": same ending") true (boxed.failure = flat.failure)

let lockstep ~name ~seed ~rounds algo g =
  check Alcotest.bool (name ^ ": has a companion") true
    (Option.is_some (Algorithm.find_flat algo));
  check Alcotest.bool (name ^ ": boxed twin has none") true
    (Option.is_none (Algorithm.find_flat (boxed_variant algo)));
  let tape =
    Tape.fixed
      (Array.init (Graph.n g) (fun v ->
           Bits.of_list (List.init rounds (fun r -> bit_of ~seed ~round:(r + 1) v))))
  in
  let run algo = drive_log Executor.no_hooks algo g ~tape ~max_rounds:rounds in
  check_drive_equal ~name (run algo) (run (boxed_variant algo))

let test_lockstep_fixed () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (gname, g) ->
          lockstep ~name:(aname ^ "/" ^ gname) ~seed:11 ~rounds:14 algo g)
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

(* ---------- probe/commit = the driver's rounds ---------- *)

let probe_matches_step ~name ~seed ~rounds algo g =
  let n = Graph.n g in
  let exec = ref (Executor.Incremental.start algo g) in
  for r = 1 to rounds do
    let bits = bits_vec ~seed ~round:r n in
    let probe = Executor.Incremental.probe_vec !exec ~bits in
    let transient = Executor.Incremental.probe_key probe in
    let committed, stable = Executor.Incremental.probe_commit probe in
    (* The transient key already identifies the committed state... *)
    check Alcotest.bool
      (Printf.sprintf "%s r%d: probe key = committed key" name r)
      true
      (Executor.Incremental.Key.equal transient stable);
    (* ...and the stable key survives the next probe overwriting the
       shared buffer. *)
    let _ = Executor.Incremental.probe_vec !exec ~bits:(bits_vec ~seed:(seed + 1) ~round:r n) in
    check Alcotest.bool
      (Printf.sprintf "%s r%d: stable key survives next probe" name r)
      true
      (Executor.Incremental.Key.equal stable
         (Executor.Incremental.dedup_key committed));
    (* The committed state is the driver's after the same [r] rounds. *)
    let driven =
      Simulation.run ~solver:algo g
        ~bits:
          (Array.init n (fun v ->
               Bits.of_list (List.init r (fun i -> bit_of ~seed ~round:(i + 1) v))))
    in
    check outputs_t
      (Printf.sprintf "%s r%d: outputs = driver's" name r)
      driven.Simulation.outputs
      (Executor.Incremental.outputs committed);
    check Alcotest.bool
      (Printf.sprintf "%s r%d: all_output = driver's" name r)
      driven.Simulation.successful
      (Executor.Incremental.all_output committed);
    exec := committed
  done

let test_probe_fixed () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun (gname, g) ->
          probe_matches_step
            ~name:(aname ^ "/" ^ gname)
            ~seed:23 ~rounds:12 algo g)
        (fixed_graphs ()))
    algorithms

let prop_probe_random =
  QCheck.Test.make ~name:"probe/commit = step on random graphs" ~count:25
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

(* ---------- fault / adversary plans pin the boxed machine ---------- *)

let injection_plans =
  [ "loss", (fun () -> Run_ctx.make ~faults:(Faults.with_loss 0.4 ~seed:7) ());
    ( "byzantine",
      fun () ->
        Run_ctx.make ~adversary:(Adversary.byzantine [ 0 ] ~strength:0.5 ~seed:9) () ) ]

(* Hooks instantiated from a ctx must put even an algorithm with a flat
   companion on the boxed machine: its run is exactly the companion-free
   twin's under hooks built from the same plans — plans are pure
   descriptions with reproducible schedules.  Only rand-mis here:
   rand-2hop assumes reliable delivery and rejects lossy inboxes by
   design. *)
let test_injection_pins_boxed () =
  let g = Gen.label_with_ints (Gen.cycle 5) in
  List.iter
    (fun (pname, make_ctx) ->
      List.iter
        (fun (aname, algo) ->
          let run algo =
            drive_log
              (Executor.hooks (make_ctx ()))
              algo g ~tape:(Tape.random ~seed:31) ~max_rounds:12
          in
          check_drive_equal ~name:(aname ^ "/" ^ pname) (run algo)
            (run (boxed_variant algo)))
        [ "rand-mis", Anonet_algorithms.Rand_mis.algorithm ])
    injection_plans

(* ---------- search results against boxed references ---------- *)

let search_len = 9

(* [Boxed_oracle.search] rebuilds the search on boxed states: the flat
   search must find the same assignment, outputs and round count, after
   stepping exactly as many children. *)
let check_found_boxed ~name (found : Min_search.found option)
    (reference : Boxed_oracle.found option) =
  match found, reference with
  | None, None -> ()
  | Some f, Some r ->
    check Alcotest.int (name ^ ": assignment order") 0
      (Bit_assignment.compare_round_major f.assignment r.assignment);
    check Alcotest.int (name ^ ": states_explored") r.states_explored f.states_explored;
    check Alcotest.int (name ^ ": rounds_run") r.rounds f.sim.Simulation.rounds_run;
    check outputs_t (name ^ ": outputs") r.outputs f.sim.Simulation.outputs
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: flat search and boxed reference disagree on existence" name

let check_found_equal ~name (found : Min_search.found option) oracle =
  match found, oracle with
  | None, None -> ()
  | Some f, Some (bits, sim) ->
    check Alcotest.int (name ^ ": assignment order") 0
      (Bit_assignment.compare_round_major f.assignment bits);
    check_sim_equal ~name f.sim sim
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: search and oracle disagree on existence" name

let boxed_reference ?(max_len = search_len) algo g =
  let module A = (val algo : Algorithm.S) in
  Boxed_oracle.search (module A) g ~max_len

let min_search_found ?base algo g ~max_len =
  let base = Option.value base ~default:(Bit_assignment.empty (Graph.n g)) in
  Min_search.minimal_successful ~solver:algo g ~base ~max_len ()

(* Brute force over every extension of a pinned prefix: the first
   [len - k] rounds of the boxed reference's winner, with [k] rounds left
   free so that at most [2^12] assignments are simulated per length.  The
   flat search from that base must return what enumerating the boxed twin
   returns, and the winner's own extension guarantees a success. *)
let check_pinned ~name algo g (r : Boxed_oracle.found) =
  let n = Graph.n g in
  let pinned = max 0 (r.rounds - max 1 (12 / n)) in
  let base = Array.map (fun s -> Bits.take s pinned) r.assignment in
  let oracle =
    Search_oracle.round_major_at_most ~solver:(boxed_variant algo) g ~base
      ~max_len:r.rounds
  in
  check Alcotest.bool (name ^ ": pinned prefix extends to a success") true
    (Option.is_some oracle);
  check_found_equal ~name:(name ^ "/pinned")
    (min_search_found ~base algo g ~max_len:r.rounds)
    oracle

(* The search suites must exercise successful searches of every
   companion, not only agreement on [None]. *)
let check_some_per_algorithm ~name results =
  List.iter
    (fun (aname, _) ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s found a success somewhere" name aname)
        true
        (List.exists (fun (a, r) -> a = aname && Option.is_some r) results))
    algorithms

let test_search_pools () =
  let graphs =
    [ "path2", Gen.label_with_ints (Gen.path 2);
      "path3", Gen.label_with_ints (Gen.path 3);
      "cycle4", Gen.label_with_ints (Gen.cycle 4);
      "cycle5", Gen.label_with_ints (Gen.cycle 5) ]
  in
  let algos = Array.of_list algorithms in
  let k = Array.length algos in
  let results = ref [] in
  List.iter
    (fun (gname, g) ->
      let reference = Array.map (fun (_, algo) -> boxed_reference algo g) algos in
      Array.iteri
        (fun a (aname, algo) ->
          let name = Printf.sprintf "%s/%s" gname aname in
          results := (aname, reference.(a)) :: !results;
          check_found_boxed ~name:(name ^ "/seq")
            (min_search_found algo g ~max_len:search_len)
            reference.(a);
          Option.iter (check_pinned ~name algo g) reference.(a))
        algos;
      (* All four companions' searches side by side on concurrent
         domains: the per-domain scratch, sized per layout, must not leak
         between them. *)
      List.iter
        (fun domains ->
          Array.iteri
            (fun i found ->
              let a = i mod k in
              check_found_boxed
                ~name:(Printf.sprintf "%s/%s/pool%d-%d" gname (fst algos.(a)) domains i)
                found reference.(a))
            (Pool.map ~domains
               (fun i -> min_search_found (snd algos.(i mod k)) g ~max_len:search_len)
               (Array.init (2 * k * domains) Fun.id)))
        [ 1; 2; 4 ])
    graphs;
  check_some_per_algorithm ~name:"pools" !results

(* Every case searches a random 4-node graph to [search_len] rounds,
   where every companion succeeds (rand-2hop's candidates of at most two
   bits, fixed by round 9, suffice for four nodes), and a random 5- or
   6-node graph to 8 rounds, where only agreement is required. *)
let prop_search_random =
  QCheck.Test.make ~name:"flat search = boxed search on random graphs"
    ~count:10
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=4,%d" seed n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 5 6)))
    (fun (seed, n) ->
      List.iter
        (fun (n, max_len) ->
          let g = Gen.label_with_ints (Gen.random_connected ~seed n 0.5) in
          List.iter
            (fun (aname, algo) ->
              let name = Printf.sprintf "%s/seed=%d/n=%d" aname seed n in
              let reference = boxed_reference algo g ~max_len in
              if n = 4 then
                check Alcotest.bool (name ^ ": a success") true (Option.is_some reference);
              check_found_boxed ~name (min_search_found algo g ~max_len) reference;
              Option.iter (check_pinned ~name algo g) reference)
            algorithms)
        [ 4, search_len; n, 8 ];
      true)

(* ---------- Resumable against the unmemoized Exactly oracle ---------- *)

(* [Min_search.Resumable] interns every state it commits and replays the
   children of a state it expands again past the longest base string;
   [Boxed_oracle.search_exactly] re-steps every entry at every level.
   One handle extended through [len = 1..max_len] must give, at every
   [len], the oracle's assignment, outputs and round count, after as many
   children stepped in all. *)
let check_resumable_exactly ~name ?(pruning = true) algo g ~base ~max_len =
  let module A = (val algo : Algorithm.S) in
  let oracle = Boxed_oracle.search_exactly (module A) g ~base ~pruning ~max_len in
  let t = Min_search.Resumable.create ~pruning ~solver:algo g ~base () in
  for len = max 1 (Bit_assignment.max_length base) to max_len do
    let name = Printf.sprintf "%s/exactly-%d" name len in
    let explored, reference = oracle.(len - 1) in
    check_found_boxed ~name (Min_search.Resumable.extend t ~len) reference;
    check Alcotest.int (name ^ ": cumulative states_explored") explored
      (Min_search.Resumable.states_explored t)
  done

(* rand-mis frontiers recur level after level, so the later levels
   replay; without pruning every vector is stepped.  Under a base of
   uneven strings, a level within the base prescribes its own bits, so it
   must step even where its states recur: the last-coin algorithm's
   states recur at every level, so under a base of up to 3 bits on
   path:3 a replay recorded at level 2 or 3 would reuse that level's
   prescribed bits later on. *)
let test_resumable_exactly () =
  let mis = Anonet_algorithms.Rand_mis.algorithm in
  let graph g = Gen.label_with_ints g in
  List.iter
    (fun (gname, g) ->
      let base = Bit_assignment.empty (Graph.n g) in
      check_resumable_exactly ~name:gname mis g ~base ~max_len:8)
    [ "cycle8", graph (Gen.cycle 8); "path8", graph (Gen.path 8);
      "grid2x4", graph (Gen.grid 2 4) ];
  let uneven n =
    Array.init n (fun v -> Bits.of_list (List.init (v mod 3) (fun i -> (v + i) mod 2 = 0)))
  in
  let c6 = graph (Gen.cycle 6) in
  check_resumable_exactly ~name:"cycle6/uneven-base" mis c6 ~base:(uneven 6) ~max_len:8;
  let c5 = graph (Gen.cycle 5) in
  check_resumable_exactly ~name:"cycle5/exhaustive" ~pruning:false mis c5
    ~base:(Bit_assignment.empty 5) ~max_len:7;
  check_resumable_exactly ~name:"cycle5/uneven-base/exhaustive" ~pruning:false mis c5
    ~base:(uneven 5) ~max_len:7;
  let p3 = graph (Gen.path 3) in
  let coin_base = [| Bits.empty; Bits.of_string "110"; Bits.of_string "1" |] in
  List.iter
    (fun pruning ->
      check_resumable_exactly
        ~name:(Printf.sprintf "last-coin/path3/pruning=%b" pruning)
        ~pruning Recurring.algorithm p3 ~base:coin_base ~max_len:6)
    [ true; false ]

(* ---------- every catalog solver is searchable ---------- *)

(* Only an algorithm with a flat companion can be searched, so every
   catalog solver must have one; under every injection plan its run must
   still be the companion-free twin's on the boxed machine. *)
let test_catalog_flat () =
  let g = Gen.label_with_ints (Gen.random_connected ~seed:3 200 (8.0 /. 199.0)) in
  List.iter
    (fun (gran : Anonet_problems.Gran.t) ->
      let module A = (val gran.solver) in
      let name = A.name in
      ignore (Executor.Incremental.start gran.solver g);
      List.iter
        (fun (pname, make_ctx) ->
          (* rand-2hop may reject a lossy inbox: then both runs must. *)
          let run algo =
            match
              drive_log
                (Executor.hooks (make_ctx ()))
                algo g ~tape:(Tape.random ~seed:5) ~max_rounds:40
            with
            | r -> Ok r
            | exception Invalid_argument m -> Error m
          in
          match run gran.solver, run (boxed_variant gran.solver) with
          | Ok flat, Ok boxed -> check_drive_equal ~name:(name ^ "/" ^ pname) flat boxed
          | Error f, Error b -> check Alcotest.string (name ^ "/" ^ pname ^ ": error") b f
          | Ok _, Error _ | Error _, Ok _ ->
            Alcotest.failf "%s/%s: one run raised, the other did not" name pname)
        injection_plans)
    Anonet_algorithms.Bundles.all

(* Searching an algorithm without a companion is an error naming it. *)
let test_start_rejects_boxed () =
  let twin = boxed_variant Anonet_algorithms.Rand_mis.algorithm in
  let module A = (val twin) in
  Alcotest.check_raises "no companion"
    (Invalid_argument
       (Printf.sprintf "Executor.Incremental.start: %s has no flat companion" A.name))
    (fun () -> ignore (Executor.Incremental.start twin (Gen.cycle 4)))

let () =
  Alcotest.run "flat"
    [
      ( "injective",
        [
          Alcotest.test_case "flat keys = boxed states on every bit vector" `Quick
            test_injectivity;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "flat = boxed on fixed graphs" `Quick
            test_lockstep_fixed;
          QCheck_alcotest.to_alcotest prop_lockstep_random;
        ] );
      ( "probe",
        [
          Alcotest.test_case "probe/commit = step on fixed graphs" `Quick
            test_probe_fixed;
          QCheck_alcotest.to_alcotest prop_probe_random;
        ] );
      ( "simulation",
        [ QCheck_alcotest.to_alcotest prop_simulation_random ] );
      ( "injection",
        [
          Alcotest.test_case "fault/adversary plans pin the boxed path" `Quick
            test_injection_pins_boxed;
        ] );
      ( "search",
        [
          Alcotest.test_case "pools 1/2/4, flat = boxed" `Quick test_search_pools;
          QCheck_alcotest.to_alcotest prop_search_random;
          Alcotest.test_case "Resumable = unmemoized Exactly oracle" `Quick
            test_resumable_exactly;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "every catalog solver runs flat, boxed under plans"
            `Quick test_catalog_flat;
          Alcotest.test_case "start rejects an algorithm without a companion"
            `Quick test_start_rejects_boxed;
        ] );
    ]
