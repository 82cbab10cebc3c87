module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Props = Anonet_graph.Props
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Bundles = Anonet_algorithms.Bundles
module Executor = Anonet_runtime.Executor
module Faults = Anonet_runtime.Faults
module Adversary = Anonet_runtime.Adversary
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx
module Run_error = Anonet_runtime.Run_error
module Pool = Anonet_parallel.Pool
module Obs = Anonet_obs.Obs

exception Bad_spec of string

let bad_spec fmt = Printf.ksprintf (fun m -> raise (Bad_spec m)) fmt

type outcome = { code : int; out : string; err : string }

let graph_of_spec spec =
  try Anonet_graph.Spec.graph spec with
  | Failure m -> raise (Bad_spec m)
  | Sys_error m -> bad_spec "cannot load graph: %s" m

let bundle_of_spec = function
  | "mis" -> Bundles.mis
  | "coloring" -> Bundles.coloring
  | "2hop" | "two-hop" -> Bundles.two_hop_coloring
  | "matching" -> Bundles.maximal_matching
  | p -> bad_spec "unknown problem %S (mis|coloring|2hop|matching)" p

let coloring_of_spec g spec =
  let n = Graph.n g in
  match String.split_on_char ':' spec with
  | [ "unique" ] -> Array.init n (fun v -> Label.Int v)
  | [ "mod"; k ] ->
    let k = try int_of_string k with Failure _ -> bad_spec "bad mod spec %S" spec in
    if k < 1 then bad_spec "bad mod spec %S (want K >= 1)" spec;
    let c = Array.init n (fun v -> Label.Int (v mod k)) in
    if not (Props.is_k_hop_coloring g 2 (fun v -> c.(v))) then
      bad_spec "mod:%d is not a 2-hop coloring of this graph" k;
    c
  | [ "random"; seed ] -> begin
      let seed =
        try int_of_string seed with Failure _ -> bad_spec "bad seed in %S" spec
      in
      match
        Las_vegas.solve_msg Anonet_algorithms.Rand_two_hop.algorithm g ~seed ()
      with
      | Ok r -> r.Las_vegas.outcome.Executor.outputs
      | Error m ->
        (* a rejection like every other unrealizable colors= spec, not a
           bare Failure escaping to the generic job-failed handler *)
        bad_spec "random:%d base coloring failed: %s" seed m
    end
  | _ -> bad_spec "unknown coloring spec %S" spec

(* ---------- key accessors ---------- *)

let required job key =
  match Job.get job key with
  | Some v -> v
  | None ->
    bad_spec "%s job needs a %s=... key" (Job.kind_to_string job.Job.kind) key

let int_key job key default =
  match Job.get job key with
  | None -> default
  | Some v -> (
    try int_of_string v with Failure _ -> bad_spec "bad %s=%S (want an int)" key v)

let float_opt_key job key =
  match Job.get job key with
  | None -> None
  | Some v -> (
    try Some (float_of_string v)
    with Failure _ -> bad_spec "bad %s=%S (want a float)" key v)

let bool_key job key =
  match Job.get job key with
  | None | Some "false" -> false
  | Some "true" -> true
  | Some v -> bad_spec "bad %s=%S (want true or false)" key v

let faults_key job =
  match Job.get job "faults" with
  | None -> None
  | Some s -> begin
      match Faults.plan_of_string s with
      | Ok p -> Some p
      | Error m -> bad_spec "bad faults spec: %s" m
    end

let adversary_key job =
  match Job.get job "adversary" with
  | None -> None
  | Some s -> begin
      match Adversary.plan_of_string s with
      | Ok p -> Some p
      | Error m -> bad_spec "bad adversary spec: %s" m
    end

(* ---------- rendering (pinned to the CLI's historical formats) ---------- *)

let outputs_lines b outputs =
  Array.iteri
    (fun v o -> Printf.bprintf b "  node %2d: %s\n" v (Label.to_string o))
    outputs

let with_jobs ~obs jobs f =
  if jobs <= 1 then f None
  else Pool.with_pool ~obs ~domains:jobs (fun p -> f (Some p))

(* ---------- the three job kinds ---------- *)

let run_solve ~obs job =
  let g = graph_of_spec (required job "graph") in
  let problem = required job "problem" in
  let bundle = bundle_of_spec problem in
  let seed = int_key job "seed" 1 in
  let jobs = int_key job "jobs" 1 in
  let divergence = float_opt_key job "divergence" in
  let plan = faults_key job in
  let adversary = adversary_key job in
  let b = Buffer.create 256 in
  (match plan with
  | None -> ()
  | Some p -> Printf.bprintf b "fault plan: %s\n" (Faults.plan_to_string p));
  (match adversary with
  | None -> ()
  | Some p -> Printf.bprintf b "adversary plan: %s\n" (Adversary.plan_to_string p));
  let solver =
    if bool_key job "retransmit" then
      Anonet_runtime.Retransmit.wrap ~obs bundle.Gran.solver
    else bundle.Gran.solver
  in
  match
    with_jobs ~obs jobs (fun pool ->
        let ctx = Run_ctx.make ?faults:plan ?adversary ?pool ~obs () in
        Las_vegas.solve ~ctx solver g ~seed ?divergence ())
  with
  | Error f ->
    {
      code = Run_error.exit_code (Run_error.Las_vegas f);
      out = Buffer.contents b;
      err = f.Las_vegas.message;
    }
  | Ok r ->
    let o = r.Las_vegas.outcome.Executor.outputs in
    Printf.bprintf b "solved %s in %d rounds (%d messages, attempt %d):\n"
      problem r.Las_vegas.outcome.Executor.rounds
      r.Las_vegas.outcome.Executor.messages r.Las_vegas.attempts;
    outputs_lines b o;
    Printf.bprintf b "valid: %b\n"
      (bundle.Gran.problem.Problem.is_valid_output g o);
    { code = 0; out = Buffer.contents b; err = "" }

let run_derandomize ~obs job =
  let g = graph_of_spec (required job "graph") in
  let problem = required job "problem" in
  let bundle = bundle_of_spec problem in
  let colors =
    coloring_of_spec g (Option.value ~default:"random:1" (Job.get job "colors"))
  in
  let inst = Problem.attach_coloring g colors in
  let jobs = int_key job "jobs" 1 in
  let b = Buffer.create 256 in
  match Option.value ~default:"a-infinity" (Job.get job "method") with
  | "a-star" -> begin
      match
        with_jobs ~obs jobs (fun pool ->
            Anonet.A_star.solve ~ctx:(Run_ctx.make ?pool ~obs ()) ~gran:bundle
              inst ())
      with
      | Error m -> { code = 1; out = ""; err = m }
      | Ok outcome ->
        Printf.bprintf b "A* solved %s^c deterministically in %d rounds:\n"
          problem outcome.Executor.rounds;
        outputs_lines b outcome.Executor.outputs;
        Printf.bprintf b "valid: %b\n"
          (bundle.Gran.problem.Problem.is_valid_output g
             outcome.Executor.outputs);
        { code = 0; out = Buffer.contents b; err = "" }
    end
  | "a-infinity" -> begin
      match
        with_jobs ~obs jobs (fun pool ->
            Anonet.A_infinity.solve ~ctx:(Run_ctx.make ?pool ~obs ())
              ~gran:bundle inst ())
      with
      | Error m -> { code = 1; out = ""; err = m }
      | Ok r ->
        Printf.bprintf b
          "A_infinity solved %s^c (view graph: %d nodes; simulation: %d \
           rounds; search: %d states):\n"
          problem
          (Graph.n r.Anonet.A_infinity.view_graph.Anonet_views.View_graph.graph)
          (Anonet.Bit_assignment.max_length
             r.Anonet.A_infinity.found.Anonet.Min_search.assignment)
          r.Anonet.A_infinity.found.Anonet.Min_search.states_explored;
        outputs_lines b r.Anonet.A_infinity.outputs;
        Printf.bprintf b "valid: %b\n"
          (bundle.Gran.problem.Problem.is_valid_output g
             r.Anonet.A_infinity.outputs);
        { code = 0; out = Buffer.contents b; err = "" }
    end
  | m -> bad_spec "unknown method %S (a-star|a-infinity)" m

let render_output out =
  let module E = Anonet_experiments.Experiments in
  out.E.prelude
  ^ String.concat "" (List.map (fun r -> r.E.line) out.E.rows)
  ^ out.E.coda

let run_experiment ~obs job =
  let module E = Anonet_experiments.Experiments in
  let jobs = int_key job "jobs" 1 in
  (* validate the id before spinning up a pool *)
  (match Job.get job "id" with
  | None -> ()
  | Some id ->
    if not (List.mem_assoc (String.lowercase_ascii id) E.all) then
      bad_spec "unknown experiment id %S" id);
  with_jobs ~obs jobs (fun pool ->
      let ctx = Run_ctx.make ?pool ~obs () in
      match Job.get job "id" with
      | None ->
        let outs = E.run_all ~ctx () in
        {
          code = 0;
          out = String.concat "" (List.map render_output outs);
          err = "";
        }
      | Some id -> begin
          match E.run ~ctx id with
          | Ok out -> { code = 0; out = render_output out; err = "" }
          | Error m -> { code = 1; out = ""; err = m }
        end)

let execute ?(obs = Obs.null) job =
  match job.Job.kind with
  | Job.Solve -> run_solve ~obs job
  | Job.Derandomize -> run_derandomize ~obs job
  | Job.Experiment -> run_experiment ~obs job
