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
module Trace = Anonet_runtime.Trace
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

(* A divergence factor must be > 0 (NaN is not); [inf] is accepted, and
   the harness clamps the threshold it yields. *)
let divergence_key job =
  match float_opt_key job "divergence" with
  | Some d when not (d > 0.0) ->
    bad_spec "bad divergence=%S (want a factor > 0)"
      (Option.value ~default:"" (Job.get job "divergence"))
  | d -> d

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

(* ---------- the three job kinds ---------- *)

let protocol_break m =
  "fault injection broke the algorithm's protocol: " ^ m
  ^ "\n(expected for unwrapped algorithms on a faulty network — try \
     --retransmit)"

let run_solve ~obs job =
  let g = graph_of_spec (required job "graph") in
  let problem = required job "problem" in
  let bundle = bundle_of_spec problem in
  let seed = int_key job "seed" 1 in
  let divergence = divergence_key job in
  let trace = bool_key job "trace" in
  if trace && divergence <> None then
    bad_spec
      "solve job takes no divergence=... key with trace=true (a trace \
       records one attempt)";
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
  let ctx = Run_ctx.make ?faults:plan ?adversary ~obs () in
  let finish ?(err = "") code = { code; out = Buffer.contents b; err } in
  (* Fault injection can feed an algorithm messages its protocol never
     anticipated (a loss-induced null mid-phase, a corrupted payload);
     decoders are entitled to reject them.  That is a diagnosis, not an
     internal error. *)
  let faulty = plan <> None || adversary <> None in
  let broke m = finish 1 ~err:(protocol_break m) in
  let valid o =
    Printf.bprintf b "valid: %b\n"
      (bundle.Gran.problem.Problem.is_valid_output g o);
    finish 0
  in
  if trace then
    (* One attempt on the seed's tape, rendered as a round-by-round
       timeline; a failure is reported on stdout, below the timeline. *)
    match
      Trace.record ~ctx solver g ~tape:(Anonet_runtime.Tape.random ~seed)
        ~max_rounds:(64 * (Graph.n g + 4))
    with
    | exception Invalid_argument m when faulty -> broke m
    | Error (t, f) ->
      Buffer.add_string b (Trace.render t);
      Buffer.add_string b (Format.asprintf "failed: %a@." Executor.pp_failure f);
      finish (Run_error.exit_code (Run_error.Sync f))
    | Ok (t, outcome) ->
      Buffer.add_string b (Trace.render t);
      valid outcome.Executor.outputs
  else
    match Las_vegas.solve ~ctx solver g ~seed ?divergence () with
    | exception Invalid_argument m when faulty -> broke m
    | Error f ->
      finish (Run_error.exit_code (Run_error.Las_vegas f)) ~err:f.Las_vegas.message
    | Ok r ->
      let o = r.Las_vegas.outcome.Executor.outputs in
      Printf.bprintf b "solved %s in %d rounds (%d messages, attempt %d):\n"
        problem r.Las_vegas.outcome.Executor.rounds
        r.Las_vegas.outcome.Executor.messages r.Las_vegas.attempts;
      outputs_lines b o;
      valid o

let run_derandomize ~obs job =
  let g = graph_of_spec (required job "graph") in
  let problem = required job "problem" in
  let bundle = bundle_of_spec problem in
  let colors =
    coloring_of_spec g (Option.value ~default:"random:1" (Job.get job "colors"))
  in
  let inst = Problem.attach_coloring g colors in
  let ctx = Run_ctx.make ~obs () in
  let b = Buffer.create 256 in
  match Option.value ~default:"a-infinity" (Job.get job "method") with
  | "a-star" -> begin
      match Anonet.A_star.solve ~ctx ~gran:bundle inst () with
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
      match Anonet.A_infinity.solve ~ctx ~gran:bundle inst () with
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
  if jobs < 1 then bad_spec "bad jobs=%d (want N >= 1)" jobs;
  (* validate the id before spawning any domain *)
  (match Job.get job "id" with
  | None -> ()
  | Some id ->
    if not (List.mem_assoc (String.lowercase_ascii id) E.all) then
      bad_spec "unknown experiment id %S" id);
  let ctx = Run_ctx.make ~obs () in
  (* The output is identical at any domain count, so a request beyond the
     host's recommended count (a remote peer's jobs=1000000, say) is
     clamped rather than spawning that many domains. *)
  let domains = min jobs (Domain.recommended_domain_count ()) in
  match Job.get job "id" with
  | None ->
    let outs = E.run_all ~ctx ~domains () in
    { code = 0; out = String.concat "" (List.map render_output outs); err = "" }
  | Some id -> begin
      match E.run ~ctx ~domains id with
      | Ok out -> { code = 0; out = render_output out; err = "" }
      | Error m -> { code = 1; out = ""; err = m }
    end

(* The keys each kind reads.  Anything else — a typo, a knob of another
   kind — would be silently ignored, so it is a rejection instead, and so
   is a key given twice (only its first value would count). *)
let accepted_keys = function
  | Job.Solve ->
    [ "problem"; "graph"; "seed"; "faults"; "adversary"; "divergence";
      "retransmit"; "trace" ]
  | Job.Derandomize -> [ "problem"; "graph"; "colors"; "method" ]
  | Job.Experiment -> [ "id"; "jobs" ]

let check_keys job =
  let kind = Job.kind_to_string job.Job.kind in
  let accepted = accepted_keys job.Job.kind in
  ignore
    (List.fold_left
       (fun seen (k, _) ->
         if not (List.mem k accepted) then
           bad_spec "%s job takes no %s=... key (accepted: %s)" kind k
             (String.concat ", " accepted);
         if List.mem k seen then bad_spec "%s job gives %s=... twice" kind k;
         k :: seen)
       [] job.Job.pairs)

(* Each job interns its views into an arena of its own, dropped when the
   job ends: no job sees another's interning history, and a server's memory
   does not grow with the jobs it has run. *)
let execute ?(obs = Obs.null) job =
  check_keys job;
  Anonet_views.Interned.with_arena (fun () ->
      match job.Job.kind with
      | Job.Solve -> run_solve ~obs job
      | Job.Derandomize -> run_derandomize ~obs job
      | Job.Experiment -> run_experiment ~obs job)
