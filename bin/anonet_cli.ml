(* anonet — command-line interface to the library.

   Subcommands:
     views        print a node's depth-d local view (Figure 1)
     factor       compute the finite view graph / prime factor (Figure 2)
     solve        run a randomized anonymous algorithm (Las-Vegas)
     derandomize  solve the 2-hop colored variant deterministically
                  (A* / A_infinity, Theorems 1 and 2)
     decouple     the two-stage pipeline: randomized coloring +
                  deterministic stage
     norris       report the view stabilization depth (Theorem 3)
     stoneage     run an algorithm in the weak FSM model of [19]
     experiments  regenerate the figures/theorem validations
     serve        run jobs for remote clients over the wire protocol
     client       submit a job file to a running server

   solve, derandomize and experiments execute through Anonet_net.Runner —
   the same engine `anonet serve` runs jobs through — so a job submitted
   over a socket is byte-identical to the local subcommand.

   Graphs are described by compact specs, e.g.:
     cycle:6  path:5  complete:4  star:5  wheel:6  grid:3x4  torus:3x3
     hypercube:3  petersen  bintree:4  random:10,0.3,7  regular:10,3,7
     hamiltonian:8,0.2,7  gnp:1000000,8,1  file:PATH
*)

open Cmdliner
open Anonet_graph
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics
module Obs_events = Anonet_obs.Events
module Job = Anonet_net.Job
module Runner = Anonet_net.Runner
module Client = Anonet_net.Client

(* ---------- spec parsing (shared with the wire layer) ---------- *)

let parse_graph = Runner.graph_of_spec
let parse_coloring = Runner.coloring_of_spec
let parse_bundle = Runner.bundle_of_spec

(* ---------- common args ---------- *)

let graph_arg =
  let doc = "Graph spec, e.g. cycle:6, petersen, random:10,0.3,7, gnp:1000000,8,1, file:PATH." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let problem_arg pos_ix =
  let doc = "Problem: mis, coloring, 2hop, matching." in
  Arg.(required & pos pos_ix (some string) None & info [] ~docv:"PROBLEM" ~doc)

let seed_arg =
  let doc = "Random seed for Las-Vegas stages." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* ---------- observability flags ---------- *)

let metrics_arg =
  let doc =
    "Print a metrics trailer after the command: run counters (rounds, \
     messages, Las-Vegas attempts, fault injections, search effort), \
     gauges and timing histograms.  $(docv) is $(b,text) or $(b,json) \
     (single-line, schema anonet-metrics/1 — extract with tail -n 1)."
  in
  Arg.(value
       & opt (some (enum [ "text", `Text; "json", `Json ])) None
       & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let events_arg =
  let doc =
    "Stream structured NDJSON events (round boundaries, fault injections, \
     Las-Vegas attempt lifecycle, search progress, profiling spans) to \
     $(docv), one JSON object per line."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

(* Builds the observability handle from the two flags and hands it to the
   command body.  With neither flag this is exactly [Obs.null] — the
   instrumented code paths keep their uninstrumented behavior and output.
   The trailer/close runs on every way out, [exit 1] included (the
   [at_exit] hook), so a failing run still reports its metrics. *)
let with_obs metrics events f =
  match metrics, events with
  | None, None -> f Obs.null
  | _ ->
    let close_events, sink =
      match events with
      | None -> (fun () -> ()), None
      | Some path ->
        let oc = open_out path in
        (fun () -> close_out oc), Some (Obs_events.ndjson oc)
    in
    let registry = Metrics.create () in
    let obs = Obs.make ~metrics:registry ?events:sink () in
    let finished = ref false in
    let finish () =
      if not !finished then begin
        finished := true;
        (match metrics with
         | None -> ()
         | Some fmt ->
           (* Fold the process-total view-interning counts (the
              cache.view family) into the registry — once, right before
              the snapshot. *)
           Anonet_views.Interned.publish_metrics obs;
           (match fmt with
            | `Text -> print_string (Metrics.render_text (Metrics.snapshot registry))
            | `Json -> print_string (Metrics.render_json (Metrics.snapshot registry))));
        close_events ()
      end
    in
    at_exit finish;
    let v = f obs in
    finish ();
    v

(* Prints a runner outcome as the subcommand's own output — stdout text,
   then the diagnostic, if any, on stderr — and exits with its code. *)
let report outcome =
  print_string outcome.Runner.out;
  if outcome.Runner.err <> "" then prerr_endline outcome.Runner.err;
  if outcome.Runner.code <> 0 then exit outcome.Runner.code

let print_outputs outputs =
  Array.iteri
    (fun v o -> Printf.printf "  node %2d: %s\n" v (Label.to_string o))
    outputs

(* ---------- subcommands ---------- *)

let views_cmd =
  let run spec root depth coloring =
    let g = parse_graph spec in
    let g =
      match coloring with
      | None -> g
      | Some c -> Problem.attach_coloring g (parse_coloring g c)
    in
    if depth < 1 then
      failwith (Printf.sprintf "anonet views: bad --depth %d (want N >= 1)" depth);
    if root < 0 || root >= Graph.n g then
      failwith
        (Printf.sprintf "anonet views: bad --root %d (want 0 <= N < %d)" root
           (Graph.n g));
    print_string
      (Anonet_views.View.to_string (Anonet_views.View.of_graph g ~root ~depth))
  in
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~doc:"Root node of the view.")
  in
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~doc:"View depth (>= 1).")
  in
  let coloring =
    Arg.(value & opt (some string) None
         & info [ "colors" ] ~doc:"Attach a coloring: unique, mod:K, random:SEED.")
  in
  Cmd.v
    (Cmd.info "views" ~doc:"Print a node's depth-d local view (Figure 1).")
    Term.(const run $ graph_arg $ root $ depth $ coloring)

let factor_cmd =
  let run spec coloring dot =
    let g = parse_graph spec in
    let colors = parse_coloring g (Option.value ~default:"unique" coloring) in
    let colored = Graph.with_labels g colors in
    let vg = Anonet_views.View_graph.of_graph_exn colored in
    let fg = vg.Anonet_views.View_graph.graph in
    Printf.printf "graph: %d nodes, %d edges\n" (Graph.n colored)
      (Graph.num_edges colored);
    Printf.printf "prime factor (finite view graph): %d nodes, %d edges\n"
      (Graph.n fg) (Graph.num_edges fg);
    Printf.printf "prime: %b | views stabilize at depth %d (n = %d, Norris ok: %b)\n"
      (Graph.n fg = Graph.n colored)
      vg.Anonet_views.View_graph.stable_view_depth (Graph.n colored)
      (Anonet_views.Norris.bound_holds colored);
    Printf.printf "factorizing map: [%s]\n"
      (String.concat "; "
         (Array.to_list (Array.map string_of_int vg.Anonet_views.View_graph.map)));
    if dot then
      print_string
        (Dot.of_factorization ~product:colored ~factor:fg
           ~map:vg.Anonet_views.View_graph.map ())
  in
  let coloring =
    Arg.(value & opt (some string) None
         & info [ "colors" ] ~doc:"Node coloring: unique (default), mod:K, random:SEED.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz output.") in
  Cmd.v
    (Cmd.info "factor" ~doc:"Compute the prime factor / view graph (Figure 2).")
    Term.(const run $ graph_arg $ coloring $ dot)

let solve_cmd =
  let run problem spec seed trace faults_spec adversary_spec divergence
      retransmit metrics events =
    (* everything goes through the wire layer's runner: `anonet serve`
       executes the same job record, so socket and CLI runs are
       byte-identical by construction *)
    let pairs =
      [ "problem", problem; "graph", spec; "seed", string_of_int seed ]
      @ (match faults_spec with None -> [] | Some s -> [ "faults", s ])
      @ (match adversary_spec with None -> [] | Some s -> [ "adversary", s ])
      @ (match divergence with
        | None -> []
        | Some d -> [ "divergence", string_of_float d ])
      @ (if retransmit then [ "retransmit", "true" ] else [])
      @ if trace then [ "trace", "true" ] else []
    in
    with_obs metrics events @@ fun obs ->
    report (Runner.execute ~obs { Job.kind = Job.Solve; pairs })
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print a round-by-round timeline.")
  in
  let faults_spec =
    let doc =
      "Inject faults, e.g. 'loss=0.2,seed=7' or \
       'loss=0.1,dup=0.05,crash=2\\@4,droplink=0-1,budget=10,seed=3'.  Keys: \
       loss, dup, corrupt (probabilities), seed, budget, crash=V\\@R or \
       crash=V\\@R1..R2 (crash-recovery), droplink=U-V.  See README."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let adversary_spec =
    let doc =
      "Layer an adaptive adversary over the fault injector, e.g. \
       'byzantine=0+2,strength=0.5,seed=7', 'sniper=2,budget=40' or \
       'eavesdropper=3,strength=0.8'.  Exactly one strategy item \
       (byzantine=V1+V2..., sniper=K, eavesdropper=K); optional strength \
       (tamper probability, default 1), seed, budget.  See README."
    in
    Arg.(value & opt (some string) None & info [ "adversary" ] ~docv:"SPEC" ~doc)
  in
  let divergence =
    let doc =
      "Declare divergence (exit code 9) instead of retrying once an \
       attempt's escalated budget reaches $(docv) times the base round \
       budget and still fails — catches adversaries that systematically \
       prevent stabilization."
    in
    Arg.(value & opt (some float) None & info [ "divergence" ] ~docv:"FACTOR" ~doc)
  in
  let retransmit =
    Arg.(value & flag
         & info [ "retransmit" ]
             ~doc:"Wrap the algorithm in the retransmission/ack protocol \
                   (loss- and corruption-tolerant; see DESIGN.md).")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run the randomized anonymous algorithm (Las-Vegas).")
    Term.(const run $ problem_arg 0 $ Arg.(required & pos 1 (some string) None
                                           & info [] ~docv:"GRAPH") $ seed_arg $ trace
          $ faults_spec $ adversary_spec $ divergence $ retransmit $ metrics_arg
          $ events_arg)

let derandomize_cmd =
  let run problem spec coloring method_ metrics events =
    let pairs =
      [ "problem", problem; "graph", spec; "colors", coloring;
        "method", method_ ]
    in
    with_obs metrics events @@ fun obs ->
    report (Runner.execute ~obs { Job.kind = Job.Derandomize; pairs })
  in
  let coloring =
    Arg.(value & opt string "random:1"
         & info [ "colors" ] ~doc:"2-hop coloring: unique, mod:K, random:SEED.")
  in
  let method_ =
    Arg.(value & opt string "a-infinity"
         & info [ "method" ] ~doc:"a-star (message passing) or a-infinity.")
  in
  Cmd.v
    (Cmd.info "derandomize"
       ~doc:"Solve the 2-hop colored variant deterministically (Theorems 1-2).")
    Term.(const run $ problem_arg 0
          $ Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH")
          $ coloring $ method_ $ metrics_arg $ events_arg)

let decouple_cmd =
  let run problem spec seed stage2 =
    let g = parse_graph spec in
    let bundle = parse_bundle problem in
    let stage_two =
      match stage2 with
      | "a-star" -> Anonet.Decouple.Generic_a_star
      | "a-infinity" -> Anonet.Decouple.Generic_a_infinity
      | "specific" -> begin
          match problem with
          | "mis" -> Anonet.Decouple.Specific Anonet_algorithms.Det_from_two_hop.mis
          | "coloring" ->
            Anonet.Decouple.Specific Anonet_algorithms.Det_from_two_hop.coloring
          | _ -> failwith "specific stage 2 available for mis and coloring only"
        end
      | m -> failwith (Printf.sprintf "unknown stage 2 %S" m)
    in
    match Anonet.Decouple.solve ~gran:bundle g ~seed ~stage_two () with
    | Error m -> prerr_endline m; exit 1
    | Ok r ->
      Printf.printf
        "stage 1 (randomized 2-hop coloring): %d rounds\n\
         stage 2 (deterministic): %d rounds\n"
        r.Anonet.Decouple.coloring_rounds r.Anonet.Decouple.stage_two_rounds;
      print_outputs r.Anonet.Decouple.outputs;
      Printf.printf "valid: %b\n"
        (bundle.Gran.problem.Problem.is_valid_output g r.Anonet.Decouple.outputs)
  in
  let stage2 =
    Arg.(value & opt string "specific"
         & info [ "stage2" ] ~doc:"a-star, a-infinity, or specific.")
  in
  Cmd.v
    (Cmd.info "decouple"
       ~doc:"Two-stage pipeline: randomized coloring, then deterministic stage.")
    Term.(const run $ problem_arg 0
          $ Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH")
          $ seed_arg $ stage2)

let norris_cmd =
  let run spec =
    let g = parse_graph spec in
    Printf.printf "n = %d, view stabilization depth = %d, bound holds: %b\n"
      (Graph.n g)
      (Anonet_views.Norris.stable_view_depth g)
      (Anonet_views.Norris.bound_holds g)
  in
  Cmd.v
    (Cmd.info "norris" ~doc:"View stabilization depth vs Norris' bound (Theorem 3).")
    Term.(const run $ graph_arg)

let stoneage_cmd =
  let run problem spec seed palette =
    let g = parse_graph spec in
    (match palette with
     | Some p when p < 1 ->
       failwith (Printf.sprintf "anonet stoneage: bad --palette %d (want N >= 1)" p)
     | _ -> ());
    let machine =
      match problem with
      | "mis" -> Anonet_stoneage.Mis.machine
      | "coloring" ->
        Anonet_stoneage.Coloring.make
          ~palette:(Option.value ~default:(Graph.max_degree g + 1) palette)
      | "2hop" | "two-hop" ->
        let d = Graph.max_degree g in
        Anonet_stoneage.Two_hop.make
          ~palette:(Option.value ~default:((d * d) + 1) palette)
      | p -> failwith (Printf.sprintf "unknown stone-age problem %S" p)
    in
    match
      Anonet_stoneage.Engine.run machine g ~seed
        ~max_rounds:(100_000 * (Graph.n g + 4))
    with
    | Error e ->
      Format.eprintf "%a@." Anonet_stoneage.Engine.pp_failure e;
      exit 1
    | Ok { outputs; rounds } ->
      Printf.printf "stone-age %s finished in %d rounds:\n" problem rounds;
      print_outputs outputs
  in
  let palette =
    Arg.(value & opt (some int) None
         & info [ "palette" ] ~doc:"Color palette size (default Δ+1 / Δ²+1).")
  in
  Cmd.v
    (Cmd.info "stoneage"
       ~doc:"Run an algorithm in the weak finite-state-machine model of [19].")
    Term.(const run $ problem_arg 0
          $ Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH")
          $ seed_arg $ palette)

let experiments_cmd =
  let run id jobs metrics events =
    let pairs =
      ("jobs", string_of_int jobs)
      :: (match id with None -> [] | Some id -> [ "id", id ])
    in
    with_obs metrics events @@ fun obs ->
    report (Runner.execute ~obs { Job.kind = Job.Experiment; pairs })
  in
  let jobs =
    let doc =
      "Number of domains (OS threads) that compute independent experiment \
       rows concurrently; at least 1, clamped to the machine's recommended \
       domain count.  The output is identical to a sequential run."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let id =
    let doc =
      "Experiment id (f1, f2, f3, t2, t3, lemmas, a1, a2, a3, a4, e1, e2, r1, \
       r2, avg); all when omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's figures/theorem validations (EXPERIMENTS.md).")
    Term.(const run $ id $ jobs $ metrics_arg $ events_arg)

let serve_cmd =
  let run listen jobs max_queue metrics events =
    (* As for an experiment job's jobs=N: a request beyond the host's
       recommended domain count is clamped, not spawned. *)
    let domains =
      match jobs with
      | Some n when n < 1 ->
        Printf.eprintf "anonet serve: bad --jobs %d (want N >= 1)\n" n;
        exit 1
      | Some n -> Some (min n (Domain.recommended_domain_count ()))
      | None -> None
    in
    match Anonet_net.Addr.of_string listen with
    | Error m -> prerr_endline m; exit 1
    | Ok addr -> (
      with_obs metrics events @@ fun obs ->
      match Anonet_net.Server.start ~obs ?domains ~max_queue addr with
      | Error m -> prerr_endline ("anonet serve: " ^ m); exit 1
      | Ok server ->
        Printf.printf "anonet serve: listening on %s\n%!" listen;
        (* block until the process is signalled *)
        let rec forever () = Unix.sleep 86_400; forever () in
        (try forever ()
         with e -> Anonet_net.Server.stop server; raise e))
  in
  let listen =
    let doc = "Listen address: unix:PATH or tcp:HOST:PORT." in
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let jobs =
    let doc =
      "Number of domains jobs are multiplexed across (defaults to, and is \
       capped at, the machine's recommended domain count).  Up to this \
       many jobs execute concurrently."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let max_queue =
    let doc =
      "Backpressure bound: submits beyond this many queued jobs are \
       answered with an immediate rejection (exit code 11 on the client)."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run solve/derandomize/experiment jobs for remote clients over \
             the anonet wire protocol.")
    Term.(const run $ listen $ jobs $ max_queue $ metrics_arg $ events_arg)

let client_cmd =
  let run connect jobfile events =
    match Anonet_net.Addr.of_string connect with
    | Error m -> prerr_endline m; exit 1
    | Ok addr ->
      let text =
        if jobfile = "-" then In_channel.input_all stdin
        else In_channel.with_open_bin jobfile In_channel.input_all
      in
      match Job.of_text text with
      | Error m -> prerr_endline m; exit 1
      | Ok job ->
        let close_events, on_event =
          match events with
          | None -> (fun () -> ()), fun _ -> ()
          | Some path ->
            let oc = open_out path in
            ( (fun () -> close_out oc),
              fun line -> output_string oc line; output_char oc '\n' )
        in
        let outcome = Client.submit addr job ~on_event in
        close_events ();
        report outcome
  in
  let connect =
    let doc = "Server address: unix:PATH or tcp:HOST:PORT." in
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let jobfile =
    let doc =
      "Job file: key=value lines ('-' reads stdin).  Needs \
       kind=solve|derandomize|experiment plus that kind's keys — the same \
       knobs the local subcommands take, e.g. kind=solve, problem=2hop, \
       graph=cycle:6, seed=5, faults=loss=0.2,seed=21, retransmit=true."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOBFILE" ~doc)
  in
  let events =
    let doc =
      "Write the job's streamed NDJSON events to $(docv), exactly as the \
       equivalent local run's --events would."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Submit a job to a running anonet serve and stream its output.")
    Term.(const run $ connect $ jobfile $ events)

let main =
  let doc = "anonymous networks: randomization = 2-hop coloring (PODC 2014)" in
  Cmd.group (Cmd.info "anonet" ~version:"1.0.0" ~doc)
    [ views_cmd; factor_cmd; solve_cmd; derandomize_cmd; decouple_cmd; norris_cmd;
      stoneage_cmd; experiments_cmd; serve_cmd; client_cmd ]

(* Spec errors — from argument parsing deep inside a run — and files that
   cannot be opened ([--events], a client's job file) are user errors, not
   crashes: report the message alone and exit 1. *)
let () =
  try exit (Cmd.eval ~catch:false main) with
  | Runner.Bad_spec m | Failure m | Sys_error m ->
    prerr_endline m;
    exit 1
