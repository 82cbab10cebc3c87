(* The repository benchmark: seeded job lists run through the entry points
   users hit — Runner.execute in-process (the engine behind `anonet solve`
   and `anonet derandomize`) and a live `anonet serve` child over a Unix
   socket.  See perfbench/README.md for the workloads, their job classes
   and the per-layer prediction table.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    --anonet PATH [--list-jobs] [--smoke]

   An end-to-end run takes its job list in several cold passes, keeps each
   job's fastest time and scales its times by the host's speed in the run
   (see "passes" and "host speed" below).

   The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the lines before it are
   '#'-prefixed human-readable tables.  Exit code 1 on any failed output
   check, 2 on bad usage. *)

module Job = Anonet_net.Job
module Runner = Anonet_net.Runner
module Frame = Anonet_net.Frame
module Graph = Anonet_graph.Graph
module Encode = Anonet_graph.Encode
module Interned = Anonet_views.Interned
module View_graph = Anonet_views.View_graph
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran
module Las_vegas = Anonet_runtime.Las_vegas
module Run_ctx = Anonet_runtime.Run_ctx
module Executor = Anonet_runtime.Executor
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics

let now = Unix.gettimeofday
let ms s = s *. 1000.
let run_dir = ".perfbench_run"

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* ---------- workloads ---------- *)

(* A job class: [gen ~seed ~i rng] draws the key/value pairs of job [i]
   for workload seed [seed].  [rng] is seeded by (seed, [group], i), so two
   classes sharing a [group] draw the same instance for the same [i] — that
   is how derandomize-mix runs one instance through both methods.  Which
   instance shape job [i] gets is fixed by [i] alone, so every seed runs the
   same mix of shapes; the seed picks the graphs, colorings and coins. *)
type cls = {
  cname : string;
  weight : int;
  group : int;
  kind : Job.kind;
  gen : seed:int -> i:int -> Random.State.t -> (string * string) list;
}

type workload = {
  wname : string;
  rate : float;
      (* jobs per second of --seconds, over all passes: the nominal
         closed-loop throughput on the reference host, or the open loop's
         offered rate *)
  served : bool;
  passes : int;  (* how many times an end-to-end run takes the job list *)
  classes : cls list;
}

let nth a i = a.(i mod Array.length a)
let seed_of rng = string_of_int (1 + Random.State.int rng 1_000_000)

let solve_cls problem weight n =
  {
    cname = problem;
    weight;
    group = Hashtbl.hash problem;
    kind = Job.Solve;
    gen =
      (fun ~seed:_ ~i:_ rng ->
        let g = Printf.sprintf "gnp:%d,8,%s" n (seed_of rng) in
        [ ("problem", problem); ("graph", g); ("seed", seed_of rng) ]);
  }

(* Small irregular instances on which both methods succeed for every
   2-hop coloring (petersen, path:10 and grid:3x3 exhaust A*'s search
   budget): Min_search is the bulk of their time. *)
let small_instances =
  [|
    ("mis", "grid:2x4");
    ("mis", "hypercube:3");
    ("mis", "path:8");
    ("mis", "cycle:8");
    ("coloring", "cycle:6");
  |]

let small_cls meth weight =
  {
    cname = "small/" ^ meth;
    weight;
    group = 1;
    kind = Job.Derandomize;
    gen =
      (fun ~seed:_ ~i rng ->
        let problem, graph = nth small_instances i in
        [
          ("problem", problem);
          ("graph", graph);
          ("colors", "random:" ^ seed_of rng);
          ("method", meth);
        ]);
  }

(* 2-hop-colored cycles: the k-hop checks are the bulk, the search is
   trivial (every such cycle folds onto the same 3-node view graph). *)
let cycle_cls meth weight =
  {
    cname = "cycle/" ^ meth;
    weight;
    group = 2;
    kind = Job.Derandomize;
    gen =
      (fun ~seed:_ ~i:_ rng ->
        let n = 3 * (370 + Random.State.int rng 31) in
        [
          ("problem", "mis");
          ("graph", Printf.sprintf "cycle:%d" n);
          ("colors", "mod:3");
          ("method", meth);
        ]);
  }

(* serve-open's repeated tiny jobs: 6 derandomize shapes and 4 solve
   seeds per run. *)
let tiny_derand_cls weight =
  {
    cname = "tiny/derandomize";
    weight;
    group = 3;
    kind = Job.Derandomize;
    gen =
      (fun ~seed:_ ~i _ ->
        [
          ("problem", "mis");
          ("graph", nth [| "cycle:6"; "cycle:9"; "cycle:12" |] i);
          ("colors", "mod:3");
          ("method", nth [| "a-star"; "a-infinity" |] (i / 3));
        ]);
  }

let tiny_solve_cls weight =
  {
    cname = "tiny/solve";
    weight;
    group = 4;
    kind = Job.Solve;
    gen =
      (fun ~seed ~i _ ->
        [
          ("problem", "mis");
          ("graph", "cycle:12");
          ("seed", string_of_int (1 + (seed mod 1000) + (i mod 4)));
        ]);
  }

(* Large-output jobs (~180 KB of text each) on three graphs per run. *)
let large_cls weight =
  {
    cname = "large/solve";
    weight;
    group = 5;
    kind = Job.Solve;
    gen =
      (fun ~seed ~i _ ->
        let s = 1 + (seed mod 1000) + (i mod 3) in
        [
          ("problem", "mis");
          ("graph", Printf.sprintf "gnp:10000,8,%d" s);
          ("seed", string_of_int s);
        ]);
  }

(* Weights put each reported percentile's rank inside one latency band
   (README.md lists the bands). *)
let workloads =
  [
    {
      wname = "solve-gnp";
      rate = 10.;
      served = false;
      passes = 3;
      classes =
        [
          solve_cls "mis" 1 3000;
          solve_cls "matching" 1 1500;
          solve_cls "coloring" 6 900;
          solve_cls "2hop" 2 900;
        ];
    };
    {
      wname = "derandomize-mix";
      rate = 10.;
      served = false;
      passes = 3;
      classes =
        [
          small_cls "a-infinity" 8;
          small_cls "a-star" 3;
          cycle_cls "a-infinity" 5;
          cycle_cls "a-star" 4;
        ];
    };
    {
      wname = "serve-open";
      rate = 15.;
      served = true;
      passes = 4;
      classes = [ tiny_derand_cls 10; tiny_solve_cls 6; large_cls 4 ];
    };
  ]

type job = { id : int; cls : int; text : string; job : Job.t }

let job_of_text id cls text =
  match Job.of_text text with
  | Ok job -> { id; cls; text; job }
  | Error m -> die "generated job does not parse (%s):\n%s" m text

let class_job w ~seed ci i =
  let c = List.nth w.classes ci in
  let rng = Random.State.make [| seed; c.group; i |] in
  Job.to_text { Job.kind = c.kind; pairs = c.gen ~seed ~i rng }

(* [n] jobs split across the classes by weight — fixed counts, so every
   seed puts the same classes at the same percentile ranks — each class
   spread evenly through the run (job k of a class with c jobs sits at
   (k + 1/2) / c), so the order is the same for every seed and a slow
   stretch of the host hits every class alike.  Only the texts reach the
   program. *)
let job_list w ~seed n =
  let total = List.fold_left (fun a c -> a + c.weight) 0 w.classes in
  let counts = List.map (fun c -> n * c.weight / total) w.classes in
  let texts =
    List.concat
      (List.mapi
         (fun ci k ->
           List.init k (fun i ->
               ((float i +. 0.5) /. float k, ci, class_job w ~seed ci i)))
         counts)
    |> List.stable_sort (fun (a, ci, _) (b, cj, _) -> compare (a, ci) (b, cj))
  in
  (Array.of_list (List.mapi (fun id (_, ci, text) -> job_of_text id ci text) texts), counts)

(* One extra job per class, outside the timed list, for the warm-up.  Its
   instance is drawn from a fixed seed, so what set-up does is the same
   for every workload seed. *)
let warmup_jobs w counts =
  List.mapi (fun ci k -> job_of_text (-1) ci (class_job w ~seed:0 ci k)) counts

(* ---------- statistics ---------- *)

(* Nearest-rank percentile. *)
let pct a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median a = pct a 0.5
let mean a = Array.fold_left ( +. ) 0. a /. float (max 1 (Array.length a))
let ratio a b = if b = 0. then 0. else a /. b
let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a))

(* ---------- processes ---------- *)

(* Peak resident memory (VmHWM) of process [pid] ("self" or a number). *)
let rss_peak_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %f" Fun.id /. 1024.
    | _ -> go ()
  in
  go ()

(* utime + stime in seconds, from /proc/PID/stat (fields 14 and 15, in
   clock ticks of 1/100 s). *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* ---------- output checks ---------- *)

let valid_text out = String.ends_with ~suffix:"valid: true\n" out

let report_failure j what =
  Printf.eprintf "perfbench: job %d failed: %s\n%s\n%!" j.id what j.text

(* Runs one job; [Error] names why it does not count as correct.  Escaping
   exceptions are contained here, per job. *)
let execute j =
  match Runner.execute j.job with
  | exception e -> Error ("raised " ^ Printexc.to_string e)
  | o when o.Runner.code <> 0 ->
    Error (Printf.sprintf "exit %d: %s" o.Runner.code o.Runner.err)
  | o when not (valid_text o.Runner.out) -> Error "output is not valid: true"
  | o -> Ok o

(* ---------- spans ---------- *)

type span = {
  sid : int;
  parent : int;
  sjob : int;
  sname : string;
  t0 : float;
  t1 : float;
}

let spans = ref []
let next_sid = ref 0
let fresh_sid () = incr next_sid; !next_sid

(* Spans stay in memory until the run ends; [parent] 0 is the root. *)
let record ?(sid = fresh_sid ()) ~parent ~job name t0 t1 =
  spans := { sid; parent; sjob = job; sname = name; t0; t1 } :: !spans

let write_spans w seed =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Printf.sprintf "%s/spans-%s-%d.ndjson" run_dir w.wname seed in
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.sid s.parent s.sjob s.sname s.t0 s.t1)
    (List.rev !spans);
  close_out oc;
  Printf.printf "# spans written to %s\n" file

(* ---------- metric output ---------- *)

let emit ~attempted ~failed metrics =
  let field (name, value, unit) =
    let value = if Float.is_finite value then value else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))

let print_table w (jobs : job array) lat =
  List.iteri
    (fun ci c ->
      let l =
        Array.of_list
          (List.filteri (fun i _ -> jobs.(i).cls = ci) (Array.to_list lat))
      in
      Printf.printf "# %-20s n=%-4d p10=%8.2f p50=%8.2f p90=%8.2f ms\n" c.cname
        (Array.length l) (ms (pct l 0.1)) (ms (pct l 0.5)) (ms (pct l 0.9)))
    w.classes

(* ---------- host speed ---------- *)

(* The shared host's speed drifts too, by up to a third for a minute at a
   time, and the fastest of a few tries cannot undo a slow spell that
   spans the whole run.  So every pass also times a fixed speed probe — a
   loop that shares no code with the program — in each job's slot: before
   each in-process job, or after each served job once nothing is in
   flight.  The probe's time per slot goes through the same statistic as
   the jobs (fastest pass, then the median over slots), and the run scales
   its times by [reference_probe_s] over that: it reports what it would
   have measured on the reference host at that host's usual speed. *)
let reference_probe_s = 0.0048

(* One cycle through 2^17 slots (1 MiB) in a fixed random order
   (Sattolo's shuffle), built before any timing. *)
let ring =
  let n = 1 lsl 17 in
  let a = Array.init n Fun.id and rng = Random.State.make [| 1 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* An ALU-bound loop, then a chase through [ring]; returns seconds. *)
let speed_probe () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 1_000_000 do x := (!x * 1103515245 + i) land 0x3fffffff done;
  let j = ref 0 in
  for _ = 1 to 100_000 do j := ring.(!j) done;
  ignore (Sys.opaque_identity (!x + !j));
  now () -. t0

(* ---------- in-process workloads ---------- *)

type inproc = { lat : float array; probe : float array; wall : float; failed : int }

(* The timed phase: every job once, in order, on this thread, each after
   a speed probe. *)
let run_inproc jobs =
  Gc.full_major ();
  let lat = Array.make (Array.length jobs) infinity in
  let probe = Array.make (Array.length jobs) nan in
  let failed = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i j ->
      probe.(i) <- speed_probe ();
      let s = now () in
      match execute j with
      | Ok _ -> lat.(i) <- now () -. s
      | Error m -> incr failed; report_failure j m)
    jobs;
  { lat; probe; wall = now () -. t0; failed = !failed }

let warm_up jobs =
  List.iter
    (fun j ->
      match execute j with
      | Ok _ -> ()
      | Error m -> report_failure j ("warm-up " ^ m); exit 1)
    jobs

(* ---------- child processes ---------- *)

type server = { pid : int; out : in_channel; sock : string }

(* The server child and this executable's own children (set-up samples,
   the traced run's twins), if running: stopped on every exit
   path. *)
let live_server = ref None
let children = ref []

let stop_server s =
  live_server := None;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in s.out;
  try Sys.remove s.sock with Sys_error _ -> ()

let reap pid =
  children := List.filter (( <> ) pid) !children;
  snd (Unix.waitpid [] pid)

let () =
  at_exit (fun () ->
      Option.iter stop_server !live_server;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !children);
  let quit = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit

(* This executable again, with [args]; its stdout is the returned
   channel. *)
let spawn_self ?(stdin = Unix.stdin) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) stdin w Unix.stderr in
  Unix.close w;
  children := pid :: !children;
  (pid, Unix.in_channel_of_descr r)

(* ---------- per-layer trace, in-process ---------- *)

(* The public calls Runner.execute makes, in its order... *)
let on_path =
  [
    "graph.build";
    "graph.khop_check";
    "runtime.base_coloring";
    "problems.attach";
    "runtime.solve";
    "core.derandomize";
    "problems.validate";
  ]

(* ...and two it does not make, which separate the views and problems
   shares inside core.derandomize. *)
let off_path = [ "views.view_graph"; "problems.instance_check" ]

let get j k = Option.value ~default:"" (Job.get j.job k)

type acc = {
  mutable edges : float;
  mutable searches : int;
  mutable budget_hits : int;
  mutable solves : int;
}

let max_states = 1_000_000 (* both methods' default search budget *)

let contains s sub =
  let k = String.length sub in
  let rec go i = i + k <= String.length s && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Job [j]'s pipeline as those calls, one span each under a "job" span,
   then the off-path calls unless [off_path] is false.  With [obs] live
   the caller can read its counters and span histograms.  Returns whether
   the output validates. *)
let decomposed ?(off_path = true) obs acc j =
  let t_job = now () and job_sid = fresh_sid () in
  let span name f =
    let t0 = now () in
    let r = f () in
    record ~parent:job_sid ~job:j.id name t0 (now ());
    r
  in
  let bundle = Runner.bundle_of_spec (get j "problem") in
  let problem = bundle.Gran.problem in
  let g = span "graph.build" (fun () -> Runner.graph_of_spec (get j "graph")) in
  acc.edges <- acc.edges +. float (Graph.num_edges g);
  let ctx = Run_ctx.make ~obs () in
  let ok =
    match j.job.Job.kind with
    | Job.Solve -> (
      acc.solves <- acc.solves + 1;
      let seed = int_of_string (get j "seed") in
      match
        span "runtime.solve" (fun () ->
            Las_vegas.solve ~ctx bundle.Gran.solver g ~seed ())
      with
      | Error _ -> false
      | Ok r ->
        let o = r.Las_vegas.outcome.Executor.outputs in
        span "problems.validate" (fun () -> problem.Problem.is_valid_output g o))
    | Job.Derandomize -> (
      let colors = get j "colors" in
      let layer =
        if String.starts_with ~prefix:"mod:" colors then "graph.khop_check"
        else "runtime.base_coloring"
      in
      let c = span layer (fun () -> Runner.coloring_of_spec g colors) in
      let inst = span "problems.attach" (fun () -> Problem.attach_coloring g c) in
      acc.searches <- acc.searches + 1;
      let exhausted () = acc.budget_hits <- acc.budget_hits + 1 in
      let outputs =
        span "core.derandomize" (fun () ->
            if get j "method" = "a-star" then
              match Anonet.A_star.solve ~ctx ~gran:bundle inst () with
              | r -> Result.map (fun o -> o.Executor.outputs) r
              | exception (Anonet.Min_search.Search_limit_exceeded as e) ->
                exhausted ();
                Error (Printexc.to_string e)
            else
              match Anonet.A_infinity.solve ~ctx ~gran:bundle inst () with
              | Ok r ->
                (* a search may return its best at max_states + 1 *)
                if r.Anonet.A_infinity.found.Anonet.Min_search.states_explored > max_states
                then exhausted ();
                Ok r.Anonet.A_infinity.outputs
              | Error m ->
                if contains m "Search_limit_exceeded" then exhausted ();
                Error m)
      in
      match outputs with
      | Error _ -> false
      | Ok o ->
        let v = span "problems.validate" (fun () -> problem.Problem.is_valid_output g o) in
        if not off_path then v
        else begin
          ignore (span "views.view_graph" (fun () -> View_graph.of_graph_exn inst));
          let colored = Problem.colored_variant problem in
          span "problems.instance_check" (fun () -> colored.Problem.is_instance inst)
          && v
        end)
    | Job.Experiment -> false
  in
  record ~sid:job_sid ~parent:0 ~job:j.id "job" t_job (now ());
  ok

let interned_stats () =
  let s = Interned.stats () in
  (float s.Interned.hits, float s.Interned.misses)

let encode_stats () =
  let s = Encode.cache_stats () in
  (float s.Encode.hits, float s.Encode.misses)

let hit_ratio (h, m) = ratio h (h +. m)
let add2 (a, b) (c, d) = (a +. c, b +. d)
let sub2 (a, b) (c, d) = (a -. c, b -. d)

let search_histograms = [ "span.min_search.round_major.ns"; "span.min_search.extend.ns" ]

(* A twin of the traced run: a fresh child process of this executable that
   ran the same set-up and answers one line per job index written to its
   stdin.  Twins and the traced pass take each job in lockstep (first the
   twins, then the traced calls), so every process's global caches go
   through the same states and the timings of one job sit side by side.
   (The traced pass's off-path calls, colour refinement and a k-hop check,
   use no global cache.)  Two kinds:

   - exec: times Runner.execute, untraced, and answers
     "ok SECONDS IH IM EH EM" (Interned and Encode hits and misses);
   - obs: runs the on-path calls with a live Obs.t and answers
     "ok SEARCH_SECONDS COUNTER=VALUE ...", the summed search span
     histograms and the counters.

   Either answers "error MESSAGE" for a job that fails. *)
let twin kind (jobs : job array) =
  if kind <> "exec" && kind <> "obs" then die "--twin is exec or obs, not %S" kind;
  let acc = { edges = 0.; searches = 0; budget_hits = 0; solves = 0 } in
  let answer j =
    if kind = "exec" then begin
      let v0 = interned_stats () and e0 = encode_stats () and t0 = now () in
      let r = execute j in
      let t = now () -. t0 in
      let vh, vm = sub2 (interned_stats ()) v0 and eh, em = sub2 (encode_stats ()) e0 in
      match r with
      | Ok _ -> Printf.sprintf "ok %.9f %g %g %g %g" t vh vm eh em
      | Error m -> "error " ^ String.escaped m
    end
    else begin
      let metrics = Metrics.create () in
      match decomposed ~off_path:false (Obs.make ~metrics ()) acc j with
      | exception e -> "error raised " ^ Printexc.to_string e
      | false -> "error output not valid"
      | true ->
        let snap = Metrics.snapshot metrics in
        let search =
          List.fold_left
            (fun a (k, h) ->
              if List.mem k search_histograms then a +. (float h.Metrics.sum /. 1e9) else a)
            0. snap.Metrics.histograms
        in
        String.concat " "
          ("ok" :: Printf.sprintf "%.9f" search
          :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) snap.Metrics.counters)
    end
  in
  (* the traced pass starts from a full major collection too *)
  Gc.full_major ();
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> exit 0
    | line ->
      print_endline (answer jobs.(int_of_string line));
      flush stdout;
      loop ()
  in
  loop ()

type twin_proc = { tpid : int; tin : out_channel; tout : in_channel }

let start_twin child_args kind =
  let r, w = Unix.pipe ~cloexec:true () in
  let tpid, tout = spawn_self ~stdin:r (child_args @ [ "--twin"; kind ]) in
  Unix.close r;
  { tpid; tin = Unix.out_channel_of_descr w; tout }

let ask t i =
  Printf.fprintf t.tin "%d\n%!" i;
  try input_line t.tout with End_of_file -> die "a twin of the traced run exited early"

let stop_twin t =
  close_out t.tin;
  close_in t.tout;
  match reap t.tpid with
  | Unix.WEXITED 0 -> ()
  | _ -> die "a twin of the traced run failed"

let span_total ?cls (jobs : job array) name =
  List.fold_left
    (fun a s ->
      if s.sname = name && (cls = None || Some jobs.(s.sjob).cls = cls) then
        a +. (s.t1 -. s.t0)
      else a)
    0. !spans

(* Every per-layer metric, zero where the workload does not reach the
   layer, so one name list serves all workloads. *)
let per_layer_units =
  [
    ("graph.build_ms", "ms");
    ("graph.edges", "count");
    ("graph.khop_check_ms", "ms");
    ("problems.instance_check_ms", "ms");
    ("problems.validate_ms", "ms");
    ("runtime.solve_ms", "ms");
    ("runtime.base_coloring_ms", "ms");
    ("runtime.rounds", "count");
    ("runtime.messages", "count");
    ("runtime.attempt_success_ratio", "ratio");
    ("core.derandomize_ms", "ms");
    ("core.search_ms", "ms");
    ("core.states_explored", "count");
    ("core.states_pruned", "count");
    ("core.core_probes", "count");
    ("core.budget_exhausted_ratio", "ratio");
    ("core.search_cache_hit_ratio", "ratio");
    ("core.sim_runs", "count");
    ("core.sim_rounds", "count");
    ("views.view_graph_ms", "ms");
    ("views.intern_hit_ratio", "ratio");
    ("encode.cache_hit_ratio", "ratio");
    ("net.render_ms", "ms");
    ("net.overhead_ms", "ms");
    ("net.connect_ms", "ms");
    ("net.result_bytes", "bytes");
    ("server.cpu_s_per_job", "s");
    ("loadgen.late_p90_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("trace.unattributed_ms", "ms");
  ]

let fill_layers measured =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
    per_layer_units

(* The traced pass.  Per job, in lockstep: the exec twin runs
   Runner.execute on it, the obs twin reads its counters, then this
   process runs it as its decomposed calls with observability off, as
   Runner.execute runs them, one span each.  The median over jobs of the
   exec twin's time minus the on-path spans is the time Runner.execute
   spends outside those calls (rendering the text); the ratio of the traced
   time, off-path calls left out, to the exec twin's is the tracing
   overhead.  Every other *_ms and count metric is a mean per job. *)
let trace_inproc w ~seed ~child_args (jobs : job array) =
  let n = float (Array.length jobs) in
  let ncls = List.length w.classes in
  let exec_s = Array.make ncls 0. and search_s = Array.make ncls 0. in
  let counters = Hashtbl.create 32 in
  let acc = { edges = 0.; searches = 0; budget_hits = 0; solves = 0 } in
  let views = ref (0., 0.) and encode = ref (0., 0.) in
  let lat = Array.make (Array.length jobs) infinity in
  (* a job counts as failed once, whichever of the three runs failed *)
  let bad = Array.make (Array.length jobs) false in
  let fail j what = bad.(j.id) <- true; report_failure j what in
  let exec = start_twin child_args "exec" and obs = start_twin child_args "obs" in
  Gc.full_major ();
  Array.iteri
    (fun i j ->
      (match ask exec i with
      | l when String.starts_with ~prefix:"ok " l ->
        Scanf.sscanf l "ok %f %f %f %f %f" (fun t vh vm eh em ->
            lat.(i) <- t;
            exec_s.(j.cls) <- exec_s.(j.cls) +. t;
            views := add2 !views (vh, vm);
            encode := add2 !encode (eh, em))
      | l -> fail j ("untraced run: " ^ l));
      (match String.split_on_char ' ' (ask obs i) with
      | "ok" :: search :: kvs ->
        search_s.(j.cls) <- search_s.(j.cls) +. float_of_string search;
        List.iter
          (fun kv ->
            Scanf.sscanf kv "%[^=]=%f" (fun k v ->
                Hashtbl.replace counters k
                  (v +. Option.value ~default:0. (Hashtbl.find_opt counters k))))
          kvs
      | l -> fail j ("run with observability: " ^ String.concat " " l));
      match decomposed Obs.null acc j with
      | true -> ()
      | false -> fail j "traced run: output not valid"
      | exception e -> fail j ("traced run raised " ^ Printexc.to_string e))
    jobs;
  stop_twin exec;
  stop_twin obs;
  let counter k = Option.value ~default:0. (Hashtbl.find_opt counters k) in
  let per_job x = x /. n in
  let total = span_total jobs in
  let span_ms name = ms (per_job (total name)) in
  let sum_of names = List.fold_left (fun a l -> a +. total l) 0. names in
  let traced = total "job" -. sum_of off_path and untraced = Array.fold_left ( +. ) 0. exec_s in
  let search_hits = counter "cache.search.hits" in
  (* per job: the twin's time minus the job's on-path spans *)
  let render = Array.copy lat in
  List.iter
    (fun s -> if List.mem s.sname on_path then render.(s.sjob) <- render.(s.sjob) -. (s.t1 -. s.t0))
    !spans;
  let measured =
    [
      ("graph.build_ms", span_ms "graph.build");
      ("graph.edges", per_job acc.edges);
      ("graph.khop_check_ms", span_ms "graph.khop_check");
      ("problems.instance_check_ms", span_ms "problems.instance_check");
      ("problems.validate_ms", span_ms "problems.validate");
      ("runtime.solve_ms", span_ms "runtime.solve");
      ("runtime.base_coloring_ms", span_ms "runtime.base_coloring");
      ("runtime.rounds", per_job (counter "lv.rounds"));
      ("runtime.messages", per_job (counter "lv.messages"));
      ("runtime.attempt_success_ratio", ratio (float acc.solves) (counter "lv.attempts"));
      ("core.derandomize_ms", span_ms "core.derandomize");
      ("core.search_ms", ms (per_job (Array.fold_left ( +. ) 0. search_s)));
      ("core.states_explored", per_job (counter "search.states_explored"));
      ("core.states_pruned", per_job (counter "search.pruned"));
      ("core.core_probes", per_job (counter "search.core_probes"));
      ("core.budget_exhausted_ratio", ratio (float acc.budget_hits) (float acc.searches));
      ( "core.search_cache_hit_ratio",
        ratio search_hits (search_hits +. counter "cache.search.misses") );
      ("core.sim_runs", per_job (counter "sim.runs"));
      ("core.sim_rounds", per_job (counter "sim.rounds"));
      ("views.view_graph_ms", span_ms "views.view_graph");
      ("views.intern_hit_ratio", hit_ratio !views);
      ("encode.cache_hit_ratio", hit_ratio !encode);
      ("net.render_ms", ms (median (finite render)));
      ("trace.overhead_ratio", ratio traced untraced);
      ("trace.unattributed_ms", ms (per_job (traced -. sum_of on_path)));
    ]
  in
  print_table w jobs lat;
  (* each class's layers, in ms per job and as a share of its untraced
     Runner.execute time *)
  List.iteri
    (fun ci c ->
      let k = float (Array.fold_left (fun a j -> if j.cls = ci then a + 1 else a) 0 jobs) in
      let part name t =
        if t > 0. then
          Printf.printf " %s=%.1fms(%.0f%%)" name (ms (t /. k)) (100. *. t /. exec_s.(ci))
      in
      Printf.printf "# %-20s exec=%.1fms:" c.cname (ms (exec_s.(ci) /. k));
      List.iter (fun l -> part l (span_total ~cls:ci jobs l)) (on_path @ off_path);
      part "core.search" search_s.(ci);
      print_newline ())
    w.classes;
  write_spans w seed;
  (measured, Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad)

(* ---------- serve-open ---------- *)

let start_server anonet ~domains =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process anonet
      [| anonet; "serve"; "--listen"; "unix:" ^ sock; "--jobs"; string_of_int domains |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let s = { pid; out = Unix.in_channel_of_descr r; sock } in
  live_server := Some s;
  (match input_line s.out with
  | l when String.starts_with ~prefix:"anonet serve: listening" l -> ()
  | l -> die "unexpected server banner %S" l
  | exception End_of_file -> die "anonet serve exited before listening");
  s

(* One in-flight served job: its socket, the bytes read so far, and the
   client-side timestamps. *)
type flight = {
  fj : job;
  fd : Unix.file_descr;
  buf : Buffer.t;
  due : float;
  t_conn0 : float;
  t_conn1 : float;
  t_sent : float;
}

type served = {
  lat : float array;  (* result read - due *)
  rtt : float array;  (* result read - connect start *)
  late : float array;  (* connect start - due *)
  connect : float array;
  bytes : float array;
  sprobe : float array;  (* the speed probe after the job, if it ran *)
  swall : float;
  sfailed : int;
}

let job_timeout = 60.

(* Open loop: job [i] is due at t0 + i / rate; one thread keeps at most
   [max_conns] connections open, one job per connection, and reads results
   with select.  Latency counts from the due time, so a stall charges the
   jobs queued behind it; a failed job's latency is infinite.  [check j
   text] says whether the served text is right.  With [probe], a job whose
   result leaves nothing in flight is followed by a speed probe. *)
let run_served ?(probe = false) ~rate ~max_conns ~trace ~check s (jobs : job array) =
  let n = Array.length jobs in
  let m = Array.make n nan in
  let r =
    { lat = Array.make n infinity; rtt = Array.copy m; late = Array.copy m;
      connect = Array.copy m; bytes = Array.copy m; sprobe = Array.copy m; swall = 0.;
      sfailed = 0 }
  in
  let failed = ref 0 in
  let fail j what = incr failed; report_failure j what in
  let addr = Unix.ADDR_UNIX s.sock in
  let next = ref 0 and flights = ref [] in
  let chunk = Bytes.create 65536 in
  let t0 = now () +. 0.01 in
  let finish f ~ok_text t_done =
    let i = f.fj.id in
    Unix.close f.fd;
    (match ok_text with
    | Error m -> fail f.fj m
    | Ok (frame_bytes, text) ->
      if not (check f.fj text) then fail f.fj "served text differs from the in-process run"
      else begin
        r.lat.(i) <- t_done -. f.due;
        r.rtt.(i) <- t_done -. f.t_conn0;
        r.late.(i) <- f.t_conn0 -. f.due;
        r.connect.(i) <- f.t_conn1 -. f.t_conn0;
        r.bytes.(i) <- float frame_bytes
      end);
    if probe && !flights = [] then r.sprobe.(i) <- speed_probe ();
    if trace then begin
      let parent = fresh_sid () in
      record ~sid:parent ~parent:0 ~job:i "serve.job" f.due t_done;
      record ~parent ~job:i "loadgen.late" f.due f.t_conn0;
      record ~parent ~job:i "net.connect" f.t_conn0 f.t_conn1;
      record ~parent ~job:i "net.submit" f.t_conn1 f.t_sent;
      record ~parent ~job:i "net.await" f.t_sent t_done
    end
  in
  (* consume whole frames; Some result once the job's final frame is in *)
  let rec drain f off =
    match Frame.decode (Buffer.contents f.buf) ~off with
    | Frame.Need_more _ -> None
    | Frame.Malformed e -> Some (Error (Format.asprintf "%a" Frame.pp_protocol_error e))
    | Frame.Decoded ({ Frame.typ = Frame.Event; _ }, k) -> drain f (off + k)
    | Frame.Decoded ({ Frame.typ = Frame.Result; payload; _ }, k) ->
      if payload <> "" && payload.[0] = '\000' then
        Some (Ok (k, String.sub payload 1 (String.length payload - 1)))
      else Some (Error "result frame with a non-zero code")
    | Frame.Decoded ({ Frame.typ = Frame.Error; payload; _ }, _) ->
      Some (Error ("error frame: " ^ payload))
    | Frame.Decoded (_, _) -> Some (Error "unexpected frame type")
  in
  while !next < n || !flights <> [] do
    let t = now () in
    if !next < n && List.length !flights < max_conns
       && t >= t0 +. (float !next /. rate)
    then begin
      let j = jobs.(!next) in
      let due = t0 +. (float !next /. rate) in
      incr next;
      let t_conn0 = now () in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd addr;
        let t_conn1 = now () in
        Frame.write fd { Frame.typ = Frame.Submit; stream = 1; payload = Job.encode j.job };
        t_conn1
      with
      | t_conn1 ->
        flights :=
          { fj = j; fd; buf = Buffer.create 4096; due; t_conn0; t_conn1; t_sent = now () }
          :: !flights
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        fail j ("send: " ^ Unix.error_message e)
    end
    else begin
      let timeout =
        if !next < n && List.length !flights < max_conns then
          Float.max 0. (t0 +. (float !next /. rate) -. t)
        else 1.0
      in
      List.iter
        (fun f ->
          if t -. f.t_conn0 > job_timeout then begin
            flights := List.filter (fun g -> g.fd <> f.fd) !flights;
            finish f ~ok_text:(Error "no result within the job timeout") t
          end)
        !flights;
      let fds = List.map (fun f -> f.fd) !flights in
      let ready, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          let f = List.find (fun f -> f.fd = fd) !flights in
          let k = try Unix.read fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
          let outcome =
            if k = 0 then Some (Error "connection closed before the result")
            else begin
              Buffer.add_subbytes f.buf chunk 0 k;
              drain f 0
            end
          in
          match outcome with
          | None -> ()
          | Some o ->
            flights := List.filter (fun g -> g.fd <> fd) !flights;
            finish f ~ok_text:o (now ()))
        ready
    end
  done;
  { r with swall = now () -. t0; sfailed = !failed }

(* ---------- set-up ---------- *)

(* The part of a pass timed as setup_s: job generation, then one warm-up
   run per class in-process, or the server's start and readiness and one
   served warm-up job per class, each checked against [refs]. *)
let setup w ~seed ~n ~anonet ~domains ~refs =
  let jobs, counts = job_list w ~seed n in
  let warm = warmup_jobs w counts in
  if not w.served then begin
    warm_up warm;
    (jobs, None)
  end
  else begin
    let s = start_server anonet ~domains in
    let warm = Array.of_list (List.mapi (fun i j -> { j with id = i }) warm) in
    let check j text = text = Hashtbl.find refs j.text in
    let r = run_served ~rate:1000. ~max_conns:1 ~trace:false ~check s warm in
    if r.sfailed > 0 then exit 1;
    (jobs, Some s)
  end

(* Runner.execute's text and time for every distinct job of [jobs],
   computed once each, untimed, before the first pass. *)
let references jobs =
  let refs = Hashtbl.create 64 and ref_time = Hashtbl.create 64 in
  List.iter
    (fun j ->
      if not (Hashtbl.mem refs j.text) then begin
        let t = now () in
        match execute j with
        | Ok o ->
          Hashtbl.replace ref_time j.text (now () -. t);
          Hashtbl.replace refs j.text o.Runner.out
        | Error m -> report_failure j ("reference " ^ m); exit 1
      end)
    jobs;
  (refs, ref_time)

(* ---------- passes ---------- *)

(* An end-to-end run takes its job list [w.passes] times, each pass from a
   cold start — in-process in a fresh child of this executable, served
   against a freshly started server — and keeps each job's fastest time.
   The shared host only ever adds time to a job, and its slow spells last
   seconds, so the fastest of a few tries spread over the run is far
   steadier than any single try. *)
type pass = {
  psetup : float;
  prss : float;
  pwall : float;
  plat : float array;
  pprobe : float array;  (* speed probe per job slot, nan where none ran *)
}

(* A job failed if any pass failed it; otherwise its time is its fastest. *)
let fastest (ps : pass list) =
  Array.init
    (Array.length (List.hd ps).plat)
    (fun i ->
      if List.exists (fun p -> not (Float.is_finite p.plat.(i))) ps then infinity
      else List.fold_left (fun a p -> Float.min a p.plat.(i)) infinity ps)

(* The run's scale: [reference_probe_s] over the median across slots of
   each slot's fastest probe. *)
let speed_scale (ps : pass list) =
  let slot i =
    List.fold_left
      (fun a p -> if Float.is_finite p.pprobe.(i) then Float.min a p.pprobe.(i) else a)
      infinity ps
  in
  let probes = finite (Array.init (Array.length (List.hd ps).pprobe) slot) in
  if probes = [||] then die "no speed probe ran";
  (median probes, reference_probe_s /. median probes)

let print_passes ps =
  List.iteri
    (fun k p ->
      Printf.printf "# pass %d: setup=%.3fs wall=%.3fs rss_peak=%.1fMiB\n" (k + 1) p.psetup
        p.pwall p.prss)
    ps

(* ---------- main ---------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let anonet = ref "" and list_jobs = ref false and smoke = ref false in
  let pass_child = ref false and twin_kind = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--anonet", Arg.Set_string anonet, "PATH the anonet CLI binary (serve-open)");
      ("--list-jobs", Arg.Set list_jobs, " print the job texts and exit");
      ("--smoke", Arg.Set smoke, " run one job per unit of class weight");
      ("--pass", Arg.Set pass_child, " (internal) set up and run one in-process pass");
      ("--twin", Arg.Set_string twin_kind, "exec|obs (internal) a twin of the traced run");
    ]
    (fun a -> die "unexpected argument %S" a)
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --anonet PATH";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (%s)" !workload
        (String.concat "|" (List.map (fun w -> w.wname) workloads))
  in
  if !seed < 0 then die "--seed N is required";
  if !seconds < 1 && not !smoke then die "--seconds S is required";
  if !trace <> 0 && !trace <> 1 then die "--trace is 0 or 1";
  (* the passes share --seconds; at least 100 jobs, so p90 has 10
     samples beyond it *)
  let n =
    if !smoke then List.fold_left (fun a c -> a + c.weight) 0 w.classes
    else max 100 (int_of_float (Float.round (float !seconds *. w.rate /. float w.passes)))
  in
  if !list_jobs then begin
    let jobs, _ = job_list w ~seed:!seed n in
    Array.iter (fun j -> Printf.printf "# job %d (%s)\n%s\n" j.id (List.nth w.classes j.cls).cname j.text) jobs;
    exit 0
  end;
  if w.served && not (Sys.file_exists !anonet) then die "--anonet PATH is required for %s" w.wname;
  let domains = Domain.recommended_domain_count () in
  let child_args =
    [ "--workload"; w.wname; "--seed"; string_of_int !seed; "--seconds";
      string_of_int !seconds; "--trace"; "0"; "--anonet"; !anonet ]
    @ if !smoke then [ "--smoke" ] else []
  in
  let no_refs = Hashtbl.create 0 in
  let timed_setup refs =
    let t0 = now () in
    let jobs, server = setup w ~seed:!seed ~n ~anonet:!anonet ~domains ~refs in
    (now () -. t0, jobs, server)
  in
  if !pass_child then begin
    let t, jobs, _ = timed_setup no_refs in
    let r = run_inproc jobs in
    Printf.printf "%.9f %.9f %.9f %s\n%!" t (rss_peak_mb "self") r.wall
      (String.concat " " (List.map (Printf.sprintf "%.9f") (Array.to_list r.lat @ Array.to_list r.probe)));
    exit 0
  end;
  if !twin_kind <> "" then begin
    let jobs, _ = setup w ~seed:!seed ~n ~anonet:!anonet ~domains ~refs:no_refs in
    twin !twin_kind jobs
  end;
  let e2e jobs ps =
    let probe, scale = speed_scale ps in
    let lat = fastest ps in
    let ok = finite lat in
    let failed = Array.length lat - Array.length ok in
    let med f = median (Array.of_list (List.map f ps)) in
    (* a closed loop's throughput is its jobs over the sum of their times;
       an open loop's is its jobs over the wall time of a pass, set by the
       offered rate and not scaled *)
    let jobs_per_s =
      if w.served then float (Array.length ok) /. med (fun p -> p.pwall)
      else float (Array.length ok) /. (scale *. Array.fold_left ( +. ) 0. ok)
    in
    print_passes ps;
    Printf.printf "# speed probe %.3fms: times scaled by %.4f\n" (ms probe) scale;
    print_table w jobs lat;
    emit ~attempted:(Array.length lat) ~failed
      [
        ("setup_s", scale *. med (fun p -> p.psetup), "s");
        ("jobs_per_s", jobs_per_s, "1/s");
        ("latency_p50_ms", scale *. ms (pct lat 0.5), "ms");
        ("latency_p90_ms", scale *. ms (pct lat 0.9), "ms");
        ("rss_peak_mb", med (fun p -> p.prss), "MiB");
      ];
    if failed > 0 then exit 1
  in
  let in_process_pass k =
    let pid, out = spawn_self (child_args @ [ "--pass" ]) in
    let line = try input_line out with End_of_file -> "" in
    close_in out;
    match (reap pid, List.map float_of_string_opt (String.split_on_char ' ' line)) with
    | Unix.WEXITED 0, Some psetup :: Some prss :: Some pwall :: times
      when List.length times = 2 * n && List.for_all Option.is_some times ->
      let times = Array.of_list (List.map Option.get times) in
      { psetup; prss; pwall; plat = Array.sub times 0 n; pprobe = Array.sub times n n }
    | _ -> die "pass %d failed" (k + 1)
  in
  if not w.served then begin
    if !trace = 0 then begin
      let ps = List.init w.passes in_process_pass in
      e2e (fst (job_list w ~seed:!seed n)) ps
    end
    else begin
      let jobs, _ = setup w ~seed:!seed ~n ~anonet:!anonet ~domains ~refs:no_refs in
      let measured, failed = trace_inproc w ~seed:!seed ~child_args jobs in
      emit ~attempted:(Array.length jobs) ~failed (fill_layers measured);
      if failed > 0 then exit 1
    end
  end
  else begin
    let jobs, counts = job_list w ~seed:!seed n in
    let refs, ref_time = references (Array.to_list jobs @ warmup_jobs w counts) in
    let check j text = text = Hashtbl.find refs j.text in
    let served_pass _ =
      let psetup, jobs, s = timed_setup refs in
      let s = Option.get s in
      let r = run_served ~probe:true ~rate:w.rate ~max_conns:domains ~trace:false ~check s jobs in
      let prss = rss_peak_mb (string_of_int s.pid) in
      stop_server s;
      { psetup; prss; pwall = r.swall; plat = r.lat; pprobe = r.sprobe }
    in
    if !trace = 0 then e2e jobs (List.init w.passes served_pass)
    else begin
      let _, _, s = timed_setup refs in
      let s = Option.get s in
      let cpu0 = cpu_s s.pid in
      let r = run_served ~rate:w.rate ~max_conns:domains ~trace:false ~check s jobs in
      let cpu1 = cpu_s s.pid in
      print_table w jobs r.lat;
      let r2 = run_served ~rate:w.rate ~max_conns:domains ~trace:true ~check s jobs in
      stop_server s;
      (* a job counts as failed once, whichever pass failed it *)
      let failed =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun i l -> if Float.is_finite l && Float.is_finite r2.lat.(i) then 0 else 1)
             r.lat)
      in
      (* the server publishes no metrics, so the encoding cache's hit ratio
         comes from replaying the served sequence in-process *)
      let e0 = encode_stats () in
      Array.iter (fun j -> ignore (execute j)) jobs;
      let e1 = encode_stats () in
      let overhead =
        Array.mapi (fun i j -> r2.rtt.(i) -. Hashtbl.find ref_time j.text) jobs
      in
      List.iteri
        (fun ci c ->
          let of_cls a =
            finite (Array.of_list (List.filteri (fun i _ -> jobs.(i).cls = ci) (Array.to_list a)))
          in
          let rtt = median (of_cls r2.rtt) and o = median (of_cls overhead) in
          Printf.printf "# %-20s p50 round trip=%.3fms in-process=%.3fms net.overhead=%.3fms (%.0f%%)\n"
            c.cname (ms rtt) (ms (rtt -. o)) (ms o) (100. *. ratio o rtt))
        w.classes;
      (* what neither the client-side spans nor the job's own run
         explain: server queueing, framing and event frames *)
      let unattributed =
        Array.mapi
          (fun i j -> r2.rtt.(i) -. r2.connect.(i) -. Hashtbl.find ref_time j.text)
          jobs
      in
      write_spans w !seed;
      emit ~attempted:(Array.length jobs) ~failed
        (fill_layers
           [
             ("encode.cache_hit_ratio", hit_ratio (sub2 e1 e0));
             ("net.overhead_ms", ms (median (finite overhead)));
             ("net.connect_ms", ms (median (finite r2.connect)));
             ("net.result_bytes", mean (finite r2.bytes));
             ("server.cpu_s_per_job", (cpu1 -. cpu0) /. float (Array.length jobs));
             ("loadgen.late_p90_ms", ms (pct (finite r2.late) 0.9));
             ("trace.overhead_ratio", ratio r2.swall r.swall);
             ("trace.unattributed_ms", ms (median (finite unattributed)));
           ]);
      if failed > 0 then exit 1
    end
  end
