(* Running the paper's synchronous algorithms on an asynchronous network.

   The model of Section 1.1 is synchronous.  This example shows the
   library's α-synchronizer carrying the whole pipeline — the Las-Vegas
   2-hop coloring and a deterministic stage that consumes it — over an
   asynchronous message-passing substrate with adversarial delays,
   reproducing the synchronous outputs bit-for-bit under every scheduler.

   Run with:  dune exec examples/asynchronous.exe
*)

open Anonet_graph
module Executor = Anonet_runtime.Executor
module Async = Anonet_runtime.Async
module Tape = Anonet_runtime.Tape
module Catalog = Anonet_problems.Catalog
module Problem = Anonet_problems.Problem

let schedulers =
  [ "fifo (delay 1)", Async.Fifo;
    "random delays <= 5", Async.Random_delay { seed = 3; max_delay = 5 };
    "random delays <= 20", Async.Random_delay { seed = 4; max_delay = 20 };
    "node 0 starved (x12)", Async.Skewed { seed = 5; max_delay = 12; slow_node = 0 };
  ]

let () =
  let g = Gen.petersen () in
  let tape = Tape.random ~seed:2024 in
  let algo = Anonet_algorithms.Rand_two_hop.algorithm in

  (* Reference: the synchronous execution. *)
  let sync =
    match Executor.run algo g ~tape ~max_rounds:2000 with
    | Ok o -> o
    | Error e -> failwith (Format.asprintf "%a" Executor.pp_failure e)
  in
  Printf.printf
    "synchronous 2-hop coloring of the Petersen graph: %d rounds, %d messages\n\n"
    sync.Executor.rounds sync.Executor.messages;

  Printf.printf "%-22s | %8s | %15s | %s\n" "scheduler" "events" "virtual rounds"
    "outputs = synchronous?";
  List.iter
    (fun (name, scheduler) ->
      match Async.run algo g ~tape ~scheduler ~max_events:2_000_000 with
      | Error e -> failwith (Format.asprintf "%a" Async.pp_failure e)
      | Ok { outputs; events; virtual_rounds } ->
        let same = Array.for_all2 Label.equal outputs sync.Executor.outputs in
        Printf.printf "%-22s | %8d | %15d | %b\n" name events virtual_rounds same;
        assert same)
    schedulers;

  (* The deterministic stage also survives: the greedy MIS that consumes
     a 2-hop coloring (the decoupled pipeline's second half), on the
     colored 6-ring under random delays. *)
  let ring = Gen.cycle 6 in
  let instance =
    Problem.attach_coloring ring (Array.init 6 (fun v -> Label.Int (v mod 3)))
  in
  let det = Anonet_algorithms.Det_from_two_hop.mis in
  let det_sync =
    match Executor.run det instance ~tape:Tape.zero ~max_rounds:2000 with
    | Ok o -> o.Executor.outputs
    | Error e -> failwith (Format.asprintf "%a" Executor.pp_failure e)
  in
  print_newline ();
  (match
     Async.run det instance ~tape:Tape.zero
       ~scheduler:(Async.Random_delay { seed = 9; max_delay = 10 })
       ~max_events:5_000_000
   with
   | Error e -> failwith (Format.asprintf "%a" Async.pp_failure e)
   | Ok { outputs; events; virtual_rounds } ->
     Printf.printf
       "greedy MIS by color order on the colored 6-ring under random delays:\n\
        %d events, %d virtual rounds\n"
       events virtual_rounds;
     assert (Array.for_all2 Label.equal outputs det_sync);
     assert (Catalog.mis.Anonet_problems.Problem.is_valid_output ring outputs);
     Printf.printf "outputs = synchronous, and form a valid MIS: true\n");
  print_endline
    "\nThe α-synchronizer preserves the synchronous semantics exactly, so\n\
     every result in this library transfers to asynchronous networks."
