(* Tests for the wire layer: the frame codec (round-trips, truncation,
   bad-magic/version/type rejection, the payload size cap), the job spec
   codecs (binary and job-file text), address parsing, and the acceptance
   bar of the service mode — a loopback server over a Unix socket running
   two concurrent jobs whose streamed events, result text and exit code
   are byte-identical (modulo wall-clock fields) to the same jobs run
   in-process through the same runner. *)

module Frame = Anonet_net.Frame
module Job = Anonet_net.Job
module Addr = Anonet_net.Addr
module Runner = Anonet_net.Runner
module Server = Anonet_net.Server
module Client = Anonet_net.Client
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events
module Run_error = Anonet_runtime.Run_error
module Interned = Anonet_views.Interned
module Gen = Anonet_graph.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- frame codec ---------- *)

let frame typ stream payload = { Frame.typ; stream; payload }

let frame_equal a b =
  a.Frame.typ = b.Frame.typ
  && a.Frame.stream = b.Frame.stream
  && String.equal a.Frame.payload b.Frame.payload

let test_frame_roundtrip_basic () =
  List.iter
    (fun f ->
      let s = Frame.encode f in
      match Frame.decode s ~off:0 with
      | Frame.Decoded (f', n) ->
        check "frame round-trips" true (frame_equal f f');
        check_int "consumed everything" (String.length s) n
      | Frame.Need_more _ | Frame.Malformed _ ->
        Alcotest.fail "expected a decoded frame")
    [ frame Frame.Submit 1 "payload";
      frame Frame.Cancel 0xFFFF_FFFF "";
      frame Frame.Event 7 "{\"ts\":1}";
      frame Frame.Result 2 "\x00text";
      frame Frame.Error 3 "\x09diverged";
    ];
  (* Job outcomes: a code-0 result frame is the code byte then stdout; an
     outcome with a diagnosis keeps its stdout on an error frame. *)
  let ok = { Runner.code = 0; out = "valid: true\n"; err = "" } in
  check_string "code-0 result payload" "\000valid: true\n"
    (Frame.of_outcome ~stream:1 ok).Frame.payload;
  let diverged =
    { Runner.code = 9; out = "fault plan: loss=1,seed=3\n"; err = "diverged" }
  in
  let f = Frame.of_outcome ~stream:1 diverged in
  check "diagnosis and stdout travel on an error frame" true
    (f.Frame.typ = Frame.Error && Frame.to_outcome f = Ok diverged);
  check "short error payload rejected" true
    (Result.is_error (Frame.to_outcome (frame Frame.Error 3 "\x09\x00\x00\x00\x05ab")))

let test_frame_decode_at_offset () =
  let a = Frame.encode (frame Frame.Event 1 "first") in
  let b = Frame.encode (frame Frame.Result 2 "\x00second") in
  match Frame.decode (a ^ b) ~off:(String.length a) with
  | Frame.Decoded (f, n) ->
    check "decodes the second frame" true
      (frame_equal f (frame Frame.Result 2 "\x00second"));
    check_int "consumed b" (String.length b) n
  | _ -> Alcotest.fail "expected the second frame"

let test_frame_rejections () =
  let good = Frame.encode (frame Frame.Submit 1 "x") in
  let patch i c =
    let b = Bytes.of_string good in
    Bytes.set b i c;
    Bytes.unsafe_to_string b
  in
  (match Frame.decode (patch 0 'B') ~off:0 with
  | Frame.Malformed Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic not rejected");
  (match Frame.decode (patch 4 '\x02') ~off:0 with
  | Frame.Malformed (Frame.Bad_version 2) -> ()
  | _ -> Alcotest.fail "bad version not rejected");
  (match Frame.decode (patch 5 '\x63') ~off:0 with
  | Frame.Malformed (Frame.Bad_type 0x63) -> ()
  | _ -> Alcotest.fail "bad type not rejected");
  (* a declared length over the cap is rejected from the header alone,
     before any payload arrives *)
  let b = Bytes.of_string good in
  Bytes.set_int32_be b 10 (Int32.of_int (Frame.max_payload + 1));
  (match Frame.decode (Bytes.unsafe_to_string b) ~off:0 with
  | Frame.Malformed (Frame.Oversized n) ->
    check_int "reports the declared size" (Frame.max_payload + 1) n
  | _ -> Alcotest.fail "oversized frame not rejected");
  match Frame.encode (frame Frame.Submit 1 (String.make (Frame.max_payload + 1) 'a')) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted an oversized payload"

let qcheck_frame_roundtrip =
  (* Arbitrary frames, and arbitrary job outcomes through their frames. *)
  QCheck.Test.make ~name:"frame encode/decode round-trips" ~count:300
    QCheck.(
      pair
        (triple (int_range 1 5) (int_range 0 0xFFFF) string)
        (triple (int_range 0 255) string string))
    (fun ((t, stream, payload), (code, out, err)) ->
      let typ =
        match t with
        | 1 -> Frame.Submit
        | 2 -> Frame.Cancel
        | 3 -> Frame.Event
        | 4 -> Frame.Result
        | _ -> Frame.Error
      in
      let roundtrip f =
        let s = Frame.encode f in
        match Frame.decode s ~off:0 with
        | Frame.Decoded (f', n) when n = String.length s -> Some f'
        | _ -> None
      in
      let f = frame typ stream payload in
      let outcome = { Runner.code; out; err } in
      (match roundtrip f with Some f' -> frame_equal f f' | None -> false)
      && Option.map Frame.to_outcome (roundtrip (Frame.of_outcome ~stream outcome))
         = Some (Ok outcome))

let qcheck_frame_truncation =
  (* No strict prefix of a valid frame ever decodes or errors: the decoder
     always asks for more bytes, and never more than the true size. *)
  QCheck.Test.make ~name:"truncated frames ask for more, never decode"
    ~count:300
    QCheck.(pair small_string (int_range 0 1000))
    (fun (payload, cut) ->
      let s = Frame.encode (frame Frame.Event 3 payload) in
      let cut = cut mod String.length s in
      match Frame.decode (String.sub s 0 cut) ~off:0 with
      | Frame.Need_more n -> n <= String.length s
      | Frame.Decoded _ | Frame.Malformed _ -> false)

(* ---------- job codec ---------- *)

let test_job_roundtrip () =
  let job =
    {
      Job.kind = Job.Solve;
      pairs =
        [ "graph", "cycle:6"; "problem", "2hop"; "seed", "5";
          "faults", "loss=0.2,seed=21"; "empty", ""; "binary", "\x00\xff=\n";
        ];
    }
  in
  (match Job.decode (Job.encode job) with
  | Ok job' -> check "binary round-trip" true (job = job')
  | Error m -> Alcotest.fail m);
  match Job.of_text (Job.to_text job) with
  | Ok job' ->
    check "text round-trip (text-safe pairs)" true
      (List.filter (fun (k, _) -> k <> "binary" && k <> "empty") job'.Job.pairs
      = List.filter (fun (k, _) -> k <> "binary" && k <> "empty") job.Job.pairs)
  | Error m -> Alcotest.fail m

let test_job_text_parses () =
  match
    Job.of_text
      "# a job\nkind=solve\n\nproblem = 2hop\ngraph=cycle:6\nfaults=loss=0.2,seed=1\n"
  with
  | Error m -> Alcotest.fail m
  | Ok job ->
    check "kind" true (job.Job.kind = Job.Solve);
    check_string "spaces trimmed" "2hop" (Option.get (Job.get job "problem"));
    check_string "value keeps its own '='" "loss=0.2,seed=1"
      (Option.get (Job.get job "faults"))

let test_job_rejects () =
  check "missing kind" true (Result.is_error (Job.of_text "problem=mis\n"));
  check "unknown kind" true (Result.is_error (Job.of_text "kind=frobnicate\n"));
  check "no equals" true (Result.is_error (Job.of_text "kind=solve\nnonsense\n"));
  check "empty binary" true (Result.is_error (Job.decode ""));
  check "bad kind code" true (Result.is_error (Job.decode "\x7f\x00\x00"));
  let s = Job.encode { Job.kind = Job.Solve; pairs = [ "a", "b" ] } in
  check "truncated binary" true
    (Result.is_error (Job.decode (String.sub s 0 (String.length s - 1))));
  check "trailing garbage" true (Result.is_error (Job.decode (s ^ "x")))

let qcheck_job_roundtrip =
  QCheck.Test.make ~name:"job binary codec round-trips" ~count:200
    QCheck.(small_list (pair small_string string))
    (fun pairs ->
      let job = { Job.kind = Job.Experiment; pairs } in
      match Job.decode (Job.encode job) with
      | Ok job' -> job = job'
      | Error _ -> false)

(* ---------- addresses ---------- *)

let test_addr_parse () =
  check "unix" true
    (Addr.of_string "unix:/tmp/x.sock" = Ok (Addr.Unix_sock "/tmp/x.sock"));
  check "tcp" true
    (Addr.of_string "tcp:127.0.0.1:9000" = Ok (Addr.Tcp ("127.0.0.1", 9000)));
  check "bad scheme" true (Result.is_error (Addr.of_string "http:x"));
  check "bad port" true (Result.is_error (Addr.of_string "tcp:h:notaport"));
  check "empty unix path" true (Result.is_error (Addr.of_string "unix:"))

(* ---------- run error net band ---------- *)

let test_net_error_codes () =
  check_int "protocol = 10" 10
    (Run_error.exit_code (Run_error.Net (Run_error.Protocol { message = "m" })));
  check_int "rejected = 11" 11
    (Run_error.exit_code (Run_error.Net (Run_error.Rejected { message = "m" })));
  check_int "connection = 12" 12
    (Run_error.exit_code (Run_error.Net (Run_error.Connection { message = "m" })))

(* ---------- loopback integration ---------- *)

(* Strip the wall-clock fields ("ts" timestamps, "ns" span durations)
   from an NDJSON line; everything else must match byte for byte. *)
let scrub line =
  let drop_num_field key line =
    let pat = Printf.sprintf "\"%s\":" key in
    let plen = String.length pat and n = String.length line in
    let rec find i =
      if i + plen > n then None
      else if String.sub line i plen = pat then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> line
    | Some i ->
      let j = ref (i + plen) in
      while
        !j < n && (match line.[!j] with '0' .. '9' | '-' | '.' -> true | _ -> false)
      do
        incr j
      done;
      let i, j =
        if !j < n && line.[!j] = ',' then (i, !j + 1) (* leading field *)
        else if i > 0 && line.[i - 1] = ',' then (i - 1, !j)
        else (i, !j)
      in
      String.sub line 0 i ^ String.sub line j (n - j)
  in
  drop_num_field "ts" (drop_num_field "ns" line)

let solve_job seed =
  {
    Job.kind = Job.Solve;
    pairs =
      [ "problem", "2hop"; "graph", "cycle:6"; "seed", string_of_int seed;
        "faults", "loss=0.2,seed=21"; "retransmit", "true";
      ];
  }

let run_local job =
  let lines = ref [] in
  let obs = Obs.make ~events:(Events.ndjson_lines (fun l -> lines := l :: !lines)) () in
  let outcome = Runner.execute ~obs job in
  (outcome, List.rev_map scrub !lines)

let with_server ?(domains = 2) ?max_queue f =
  let path = Filename.temp_file "anonet-test" ".sock" in
  Sys.remove path;
  match Server.start ~domains ?max_queue (Addr.Unix_sock path) with
  | Error m -> Alcotest.fail ("server did not start: " ^ m)
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () -> f (Addr.Unix_sock path))

(* Exit code, stdout, stderr and the events (minus [ts]/[ns]) of two runs. *)
let check_same_run name (expected_outcome, expected_lines) (outcome, lines) =
  check_int (name ^ ": exit code") expected_outcome.Runner.code
    outcome.Runner.code;
  check_string (name ^ ": stdout text") expected_outcome.Runner.out
    outcome.Runner.out;
  check_string (name ^ ": stderr text") expected_outcome.Runner.err
    outcome.Runner.err;
  check_int (name ^ ": event count") (List.length expected_lines)
    (List.length lines);
  List.iter2 (check_string (name ^ ": event line")) expected_lines lines

let submit_collecting addr job =
  let lines = ref [] in
  let outcome = Client.submit addr job ~on_event:(fun l -> lines := l :: !lines) in
  (outcome, List.rev_map scrub !lines)

let test_loopback_two_concurrent_jobs () =
  let job_a = solve_job 5 and job_b = solve_job 42 in
  let expected_a = run_local job_a and expected_b = run_local job_b in
  with_server @@ fun addr ->
  (* two clients in flight at once, each on its own connection *)
  let result_b = ref None in
  let thread =
    Thread.create (fun () -> result_b := Some (submit_collecting addr job_b)) ()
  in
  let got_a = submit_collecting addr job_a in
  Thread.join thread;
  let got_b = Option.get !result_b in
  check_same_run "job a" expected_a got_a;
  check_same_run "job b" expected_b got_b

let derandomize_job pairs = { Job.kind = Job.Derandomize; pairs }

(* serve-open's six tiny derandomize shapes. *)
let tiny_derandomize_jobs =
  List.concat_map
    (fun meth ->
      List.map
        (fun g ->
          derandomize_job
            [ "problem", "mis"; "graph", g; "colors", "mod:3"; "method", meth ])
        [ "cycle:6"; "cycle:9"; "cycle:12" ])
    [ "a-star"; "a-infinity" ]

(* Every shape twice at once on a 2-domain server, so both workers run
   several jobs back to back, each in an interning arena of its own.  The
   in-process references run before the server starts: the server's
   worker on this domain shares its interning slot with every thread of
   the domain. *)
let test_loopback_tiny_derandomize_concurrent () =
  let jobs = tiny_derandomize_jobs @ tiny_derandomize_jobs in
  let expected = List.map run_local jobs in
  with_server ~domains:2 @@ fun addr ->
  let running =
    List.map
      (fun job ->
        let got = ref None in
        got, Thread.create (fun () -> got := Some (submit_collecting addr job)) ())
      jobs
  in
  List.iter (fun (_, th) -> Thread.join th) running;
  List.iteri
    (fun i ((got, _), expected) ->
      check_same_run (Printf.sprintf "job %d" i) expected (Option.get !got))
    (List.combine running expected)

(* A traced solve is one solve job with trace=true: served, it comes back
   as the in-process run — a lossy run's timeline, and a run whose nodes
   all crash (exit 4), whose failure is reported on stdout below its
   timeline, with nothing on stderr. *)
let test_loopback_trace () =
  let trace_job pairs =
    { Job.kind = Job.Solve; pairs = pairs @ [ "trace", "true" ] }
  in
  let jobs =
    [ trace_job
        [ "problem", "mis"; "graph", "cycle:8"; "faults", "loss=0.2,seed=7";
          "retransmit", "true" ];
      trace_job
        [ "problem", "2hop"; "graph", "path:2";
          "faults", "crash=0@1,crash=1@1" ];
    ]
  in
  let expected = List.map run_local jobs in
  let crashed = fst (List.nth expected 1) in
  check_int "all-crashed trace exit code" 4 crashed.Runner.code;
  check "failure below the timeline" true
    (String.starts_with ~prefix:"fault plan: " crashed.Runner.out
     && String.ends_with
          ~suffix:"failed: every node crash-stopped by round 1\n"
          crashed.Runner.out);
  with_server @@ fun addr ->
  List.iteri
    (fun i (job, expected) ->
      check_same_run (Printf.sprintf "trace job %d" i) expected
        (submit_collecting addr job))
    (List.combine jobs expected)

let test_loopback_failure_code () =
  (* a diverging job must come back with the same structured exit code the
     in-process run maps to (9) *)
  let job =
    {
      Job.kind = Job.Solve;
      pairs =
        [ "problem", "2hop"; "graph", "cycle:6"; "seed", "5";
          "faults", "loss=1.0,seed=3"; "retransmit", "true"; "divergence", "2.";
        ];
    }
  in
  let expected = run_local job in
  check_int "local run diverges" 9 (fst expected).Runner.code;
  check_string "local run prints its fault plan" "fault plan: loss=1,seed=3\n"
    (fst expected).Runner.out;
  with_server @@ fun addr ->
  check_same_run "diverging job" expected (submit_collecting addr job)

(* Loss makes the unwrapped 2-hop solver reject a mangled announce: the
   served job ends with the in-process diagnosis (code 1), not as a
   generic "job failed" rejection. *)
let test_loopback_protocol_break () =
  let job =
    {
      Job.kind = Job.Solve;
      pairs =
        [ "problem", "2hop"; "graph", "cycle:6"; "faults", "loss=0.3,seed=1" ];
    }
  in
  let expected = run_local job in
  check_int "local exit code" 1 (fst expected).Runner.code;
  check "local diagnosis" true
    (String.starts_with ~prefix:"fault injection broke the algorithm's protocol"
       (fst expected).Runner.err);
  check_string "local run prints its fault plan" "fault plan: loss=0.3,seed=1\n"
    (fst expected).Runner.out;
  with_server @@ fun addr ->
  check_same_run "broken job" expected (submit_collecting addr job)

(* A* on the Petersen graph exhausts its Update-Bits state budget: the
   job must end like any other derandomization error (code 1, the
   diagnostic in [err]), not escape as an uncaught exception. *)
let test_a_star_budget_is_typed_error () =
  let job =
    {
      Job.kind = Job.Derandomize;
      pairs =
        [ "problem", "mis"; "graph", "petersen"; "colors", "random:1";
          "method", "a-star";
        ];
    }
  in
  let outcome = Runner.execute job in
  check_int "exit code" 1 outcome.Runner.code;
  check_string "no stdout" "" outcome.Runner.out;
  check "names the state budget" true
    (String.starts_with ~prefix:"minimal-simulation search exceeded its state budget"
       outcome.Runner.err)

(* Nothing a job prints depends on what ran before it in the process: the
   reference is the job run cold, as this executable starts (top-level
   values are evaluated before the suite runs any test). *)
let grid_job =
  derandomize_job
    [ "problem", "mis"; "graph", "grid:2x4"; "colors", "random:11";
      "method", "a-star" ]

let cold_grid_run = run_local grid_job

let test_no_interning_history () =
  let nodes () = (Interned.stats ()).Interned.nodes in
  (* views outside any job land in this domain's default arena *)
  ignore
    (Interned.of_graph (Gen.label_with_ints (Gen.petersen ())) ~root:0 ~depth:6);
  let before = nodes () in
  check "the default arena holds views" true (before > 0);
  ignore
    (Runner.execute
       (derandomize_job
          [ "problem", "mis"; "graph", "path:5"; "colors", "unique";
            "method", "a-star" ]));
  ignore (Runner.execute (solve_job 3));
  check_int "the warm-up jobs' arenas were dropped" before (nodes ());
  let warm = run_local grid_job in
  check_int "the job's arena was dropped" before (nodes ());
  check_same_run "after warm-up = cold" cold_grid_run warm

(* Out-of-range generator arguments and a [mod:K] with K < 1 are spec

   errors: [Runner] raises [Bad_spec] with a message, never the
   generator's [Invalid_argument] or a [Division_by_zero]. *)
let test_bad_graph_and_coloring_specs () =
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Runner.Bad_spec m ->
      check (name ^ ": message names the spec") true
        (String.length m > 0 && not (String.starts_with ~prefix:"job failed" m))
  in
  List.iter
    (fun spec -> rejects spec (fun () -> Runner.graph_of_spec spec))
    [ "cycle:0"; "path:0"; "grid:0x3"; "random:10,2.0,7"; "regular:5,3,1";
      "gnp:0,8,1"; "torus:1x1"; "wheel:2"; "star:0"; "complete:0";
      "hypercube:-1"; "bintree:0"; "hamiltonian:2,0.5,1" ];
  (* non-numeric arguments: the message names the spec and the argument *)
  List.iter
    (fun (spec, expected) ->
      match Runner.graph_of_spec spec with
      | _ -> Alcotest.failf "%s: accepted" spec
      | exception Runner.Bad_spec m -> check_string (spec ^ ": message") expected m)
    [ "cycle:x", {|bad graph spec "cycle:x": "x" is not an integer|};
      "gnp:10,x,1", {|bad graph spec "gnp:10,x,1": "x" is not a number|};
      "grid:3xq", {|bad graph spec "grid:3xq": "q" is not an integer|};
      "torus:ax2", {|bad graph spec "torus:ax2": "a" is not an integer|} ];
  let c6 = Runner.graph_of_spec "cycle:6" in
  List.iter
    (fun spec -> rejects spec (fun () -> Runner.coloring_of_spec c6 spec))
    [ "mod:0"; "mod:-3" ];
  (* through a whole job, both kinds *)
  List.iter
    (fun (kind, pairs) ->
      rejects "job" (fun () -> Runner.execute { Job.kind; pairs }))
    [ Job.Solve, [ "problem", "mis"; "graph", "cycle:0" ];
      Job.Derandomize, [ "problem", "mis"; "graph", "cycle:6"; "colors", "mod:0" ];
    ]

(* A key the job's kind does not read, or a key given twice, is a spec
   error naming the key, not silently ignored. *)
let test_unread_job_keys () =
  let rejects kind pairs key =
    match Runner.execute { Job.kind; pairs } with
    | _ -> Alcotest.failf "%s=...: accepted" key
    | exception Runner.Bad_spec m ->
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
        in
        go 0
      in
      check (key ^ ": message names the key") true (contains (key ^ "="))
  in
  let solve = [ "problem", "mis"; "graph", "cycle:6" ] in
  let derandomize = [ "problem", "mis"; "graph", "cycle:6"; "colors", "mod:3" ] in
  rejects Job.Solve (solve @ [ "seeds", "5" ]) "seeds";
  rejects Job.Solve (solve @ [ "bogus", "1" ]) "bogus";
  rejects Job.Solve (solve @ [ "jobs", "2" ]) "jobs";
  rejects Job.Solve (solve @ [ "colors", "mod:3" ]) "colors";
  rejects Job.Solve (solve @ [ "seed", "1"; "seed", "2" ]) "seed";
  rejects Job.Derandomize (derandomize @ [ "jobs", "2" ]) "jobs";
  rejects Job.Derandomize (derandomize @ [ "seed", "3" ]) "seed";
  rejects Job.Derandomize (derandomize @ [ "method", "a-star"; "method", "a-infinity" ])
    "method";
  rejects Job.Experiment [ "id", "f1"; "graph", "cycle:6" ] "graph";
  rejects Job.Experiment [ "id", "f1"; "jobs", "1"; "jobs", "2" ] "jobs";
  (* every accepted key still runs *)
  check_int "solve with every key" 0
    (Runner.execute
       { Job.kind = Job.Solve;
         pairs =
           solve
           @ [ "seed", "2"; "faults", "loss=0.1,seed=3"; "adversary", "sniper=1";
               "divergence", "50."; "retransmit", "true" ] })
      .Runner.code;
  check_int "derandomize with every key" 0
    (Runner.execute
       { Job.kind = Job.Derandomize; pairs = derandomize @ [ "method", "a-star" ] })
      .Runner.code

(* [jobs] on an experiment job must be at least 1, and is clamped to the
   host's recommended domain count: the output is the same at any value,
   so a huge request runs on at most that many domains. *)
let test_experiment_jobs_bounds () =
  let run jobs =
    Runner.execute
      { Job.kind = Job.Experiment; pairs = [ "id", "t3"; "jobs", jobs ] }
  in
  List.iter
    (fun jobs ->
      match run jobs with
      | _ -> Alcotest.failf "jobs=%s: accepted" jobs
      | exception Runner.Bad_spec m ->
        check_string ("jobs=" ^ jobs) (Printf.sprintf "bad jobs=%s (want N >= 1)" jobs) m)
    [ "0"; "-4" ];
  let one = run "1" in
  check_int "jobs=1 exit code" 0 one.Runner.code;
  check_string "clamped jobs=1000000 = jobs=1" one.Runner.out (run "1000000").Runner.out

let test_loopback_bad_job_rejected () =
  (* A job text with two kind= lines is refused before any submit: it
     used to run as the first kind with the second line dropped. *)
  check "repeated kind= rejected" true
    (Result.is_error
       (Job.of_text "kind=experiment\nkind=solve\nproblem=mis\ngraph=cycle:6\n"));
  with_server @@ fun addr ->
  List.iter
    (fun (kind, pairs) ->
      let outcome, _ = submit_collecting addr { Job.kind; pairs } in
      check_int "rejected code" 11 outcome.Runner.code;
      check "message names the spec" true
        (let m = outcome.Runner.err in
         String.length m > 0 && m <> "cancelled"
         && not (String.starts_with ~prefix:"job failed" m)))
    [ Job.Solve, [ "problem", "mis"; "graph", "nope:1" ];
      Job.Solve, [ "problem", "mis"; "graph", "cycle:0" ];
      Job.Solve, [ "problem", "mis"; "graph", "cycle:x" ];
      Job.Solve, [ "problem", "mis"; "graph", "cycle:6"; "seeds", "5" ];
      Job.Derandomize, [ "problem", "mis"; "graph", "cycle:6"; "colors", "mod:0" ];
      Job.Experiment, [ "id", "t3"; "jobs", "0" ];
    ]

let test_loopback_queue_full () =
  (* max_queue 0 rejects every submit before it reaches a worker *)
  with_server ~max_queue:0 @@ fun addr ->
  let outcome, _ = submit_collecting addr (solve_job 5) in
  check_int "busy code" 11 outcome.Runner.code

(* A raw client socket, for tests that speak frames directly. *)
let with_raw_conn addr f =
  let domain, sa = Result.get_ok (Addr.resolve addr) in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sa;
      f fd)

let test_loopback_garbage_rejected () =
  with_server @@ fun addr ->
  with_raw_conn addr @@ fun fd ->
  let garbage = "GET / HTTP/1.1\r\n\r\n" in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  match Frame.read fd with
  | Ok (Some { Frame.typ = Frame.Error; payload; _ }) ->
    check_int "protocol error code" 10 (Char.code payload.[0])
  | _ -> Alcotest.fail "expected an error frame for garbage bytes"

(* Skips event frames; returns the result/error frame closing [stream]. *)
let await_final fd stream =
  let rec go () =
    match Frame.read fd with
    | Ok (Some { Frame.typ = Frame.Event; _ }) -> go ()
    | Ok (Some ({ Frame.typ = Frame.Result | Frame.Error; stream = s; _ } as f))
      when s = stream -> f
    | _ -> Alcotest.fail "connection died before the stream's final frame"
  in
  go ()

let test_stream_reuse_after_stale_cancel () =
  (* cancels for streams that never existed, or that already finished,
     must be no-ops: they must not poison a later submit reusing the id *)
  with_server @@ fun addr ->
  with_raw_conn addr @@ fun fd ->
  Frame.write fd { Frame.typ = Frame.Cancel; stream = 7; payload = "" };
  Frame.write fd
    { Frame.typ = Frame.Submit; stream = 7; payload = Job.encode (solve_job 5) };
  let first = await_final fd 7 in
  check "pre-submit cancel did not poison the stream" true
    (first.Frame.typ = Frame.Result);
  Frame.write fd { Frame.typ = Frame.Cancel; stream = 7; payload = "" };
  Frame.write fd
    { Frame.typ = Frame.Submit; stream = 7; payload = Job.encode (solve_job 42) };
  let second = await_final fd 7 in
  check "stream id is reusable after its final frame" true
    (second.Frame.typ = Frame.Result)

let test_duplicate_stream_rejected () =
  (* two submits on the same still-in-flight stream: the second is a
     protocol error, the first still completes normally.  The first job
     must outlast the reader's turn to the second frame, or the stream is
     free again and the duplicate is a legal reuse: a derandomization
     that searches ~10^5 states takes about a second, where the tiny
     solve jobs finish in about a millisecond. *)
  with_server @@ fun addr ->
  with_raw_conn addr @@ fun fd ->
  let submit job =
    Frame.write fd { Frame.typ = Frame.Submit; stream = 3; payload = Job.encode job }
  in
  submit
    {
      Job.kind = Job.Derandomize;
      pairs = [ "problem", "coloring"; "graph", "grid:3x3"; "colors", "unique" ];
    };
  submit (solve_job 42);
  (* per-connection frames are FIFO: the duplicate's rejection (enqueued
     by the reader) precedes the first job's result (enqueued later by a
     worker) *)
  let saw_dup = ref false in
  let rec go () =
    match Frame.read fd with
    | Ok (Some { Frame.typ = Frame.Error; stream = 3; payload }) ->
      check_int "duplicate rejected as protocol error" 10
        (Char.code payload.[0]);
      saw_dup := true;
      go ()
    | Ok (Some { Frame.typ = Frame.Result; stream = 3; _ }) -> ()
    | Ok (Some _) -> go ()
    | _ -> Alcotest.fail "connection died before the job's result"
  in
  go ();
  check "saw the duplicate-stream rejection" true !saw_dup

let test_client_connection_refused () =
  let outcome =
    Client.submit
      (Addr.Unix_sock "/tmp/anonet-no-such-socket.sock")
      (solve_job 1)
      ~on_event:(fun _ -> ())
  in
  check_int "connection code" 12 outcome.Runner.code

(* ---------- suite ---------- *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "anonet_net"
    [
      ( "frame",
        [ t "round-trips" test_frame_roundtrip_basic;
          t "decodes at an offset" test_frame_decode_at_offset;
          t "rejects bad magic/version/type/size" test_frame_rejections;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ qcheck_frame_roundtrip; qcheck_frame_truncation ] );
      ( "job",
        [ t "round-trips" test_job_roundtrip;
          t "parses job files" test_job_text_parses;
          t "rejects malformed specs" test_job_rejects;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ qcheck_job_roundtrip ] );
      ("addr", [ t "parses" test_addr_parse ]);
      ("run-error", [ t "net band codes" test_net_error_codes ]);
      ( "runner",
        [ t "a-star budget exhaustion is a typed error"
            test_a_star_budget_is_typed_error;
          t "bad graph and coloring specs are spec errors"
            test_bad_graph_and_coloring_specs;
          t "job keys its kind does not read are spec errors"
            test_unread_job_keys;
          t "experiment jobs= is bounded" test_experiment_jobs_bounds;
          t "no interning history across jobs" test_no_interning_history;
        ] );
      ( "loopback",
        [ t "two concurrent jobs byte-identical" test_loopback_two_concurrent_jobs;
          t "failure code survives the wire" test_loopback_failure_code;
          t "protocol break = in-process diagnosis" test_loopback_protocol_break;
          t "bad job rejected" test_loopback_bad_job_rejected;
          t "queue full rejected" test_loopback_queue_full;
          t "garbage bytes rejected" test_loopback_garbage_rejected;
          t "stale cancel does not poison stream reuse"
            test_stream_reuse_after_stale_cancel;
          t "duplicate in-flight stream rejected" test_duplicate_stream_rejected;
          t "connection refused reported" test_client_connection_refused;
          t "six tiny derandomize shapes on 2 domains"
            test_loopback_tiny_derandomize_concurrent;
          t "trace=true = in-process run" test_loopback_trace;
        ] );
    ]
