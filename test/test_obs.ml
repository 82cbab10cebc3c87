(* Tests for the observability layer: the metrics registry (sharded
   counters, gauges, histograms, snapshots, both renderers), the structured
   event sink (NDJSON schema, sequence numbers, escaping), profiling spans
   (nesting, exception safety), and the acceptance bar of the Run_ctx
   redesign — live-handle byte-identity of instrumented runs, and live
   counters matching the runtime's own reports exactly on the three fixed
   scenarios (fault-free run, lossy retransmitted solve, round-major
   search). *)

open Anonet_graph
open Anonet_runtime
open Anonet
module Metrics = Anonet_obs.Metrics
module Events = Anonet_obs.Events
module Obs = Anonet_obs.Obs
module Pool = Anonet_parallel.Pool
module Catalog = Anonet_problems.Catalog
module Problem = Anonet_problems.Problem
module Experiments = Anonet_experiments.Experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- a minimal JSON parser ----------

   The library renders JSON but deliberately does not parse it (it stays
   dependency-free); the tests validate the rendered output with this
   little recursive-descent parser.  Object fields keep their order, which
   the NDJSON schema tests rely on (ts/seq/event must come first). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d in %s" msg !pos s)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           (* the emitter only \u-escapes control characters *)
           Buffer.add_char buf (Char.chr (code land 0xff))
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance (); skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws (); expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | Some '[' ->
      advance (); skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_assoc = function Obj kvs -> kvs | _ -> Alcotest.fail "expected object"
let obj_field j k =
  match List.assoc_opt k (obj_assoc j) with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k
let as_num = function Num f -> f | _ -> Alcotest.fail "expected number"
let as_str = function Str s -> s | _ -> Alcotest.fail "expected string"
let as_int j = int_of_float (as_num j)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let with_temp_file f =
  let path = Filename.temp_file "anonet-obs" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* ---------- metrics registry ---------- *)

let test_counter_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "executor.rounds" in
  Metrics.incr c;
  Metrics.incr ~by:5 c;
  check_int "value" 6 (Metrics.counter_value c);
  (* registration is idempotent: same name = same metric *)
  let c' = Metrics.counter t "executor.rounds" in
  Metrics.incr c';
  check_int "shared" 7 (Metrics.counter_value c);
  let snap = Metrics.snapshot t in
  check_int "one counter" 1 (List.length snap.Metrics.counters);
  check_int "snapshot agrees" 7 (List.assoc "executor.rounds" snap.Metrics.counters)

let test_gauge_last_write () =
  let t = Metrics.create () in
  let g = Metrics.gauge t "frontier" in
  Metrics.set g 10;
  Metrics.set g 3;
  check_int "last write wins" 3 (Metrics.gauge_value g);
  check_int "snapshot" 3 (List.assoc "frontier" (Metrics.snapshot t).Metrics.gauges)

let test_histogram_stats () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "lat" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3 ];
  let s = List.assoc "lat" (Metrics.snapshot t).Metrics.histograms in
  check_int "count" 4 s.Metrics.count;
  check_int "sum" 6 s.Metrics.sum;
  check_int "min" 0 s.Metrics.min;
  check_int "max" 3 s.Metrics.max;
  (* bucket b holds samples of bit width b: 0 -> 0, 1 -> 1, {2,3} -> 2 *)
  check "buckets" true (s.Metrics.buckets = [ (0, 1); (1, 1); (2, 2) ])

let test_snapshot_sorted () =
  let t = Metrics.create () in
  Metrics.incr (Metrics.counter t "zeta");
  Metrics.incr (Metrics.counter t "alpha");
  Metrics.incr (Metrics.counter t "mid");
  let names = List.map fst (Metrics.snapshot t).Metrics.counters in
  check "sorted" true (names = [ "alpha"; "mid"; "zeta" ])

let test_sharded_counters () =
  (* The headline concurrency property: per-domain shards merge to the
     exact total, with racing writers. *)
  let t = Metrics.create () in
  let c = Metrics.counter t "hits" in
  let per_domain = 10_000 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  check_int "merged across shards" (4 * per_domain) (Metrics.counter_value c)

let test_render_json () =
  let t = Metrics.create () in
  Metrics.incr ~by:42 (Metrics.counter t "lv.rounds");
  Metrics.set (Metrics.gauge t "faults.spent") 7;
  Metrics.observe (Metrics.histogram t "span.run.ns") 1000;
  let line = Metrics.render_json (Metrics.snapshot t) in
  check "newline-terminated" true (String.length line > 0 && line.[String.length line - 1] = '\n');
  check "single line" true
    (not (String.contains (String.sub line 0 (String.length line - 1)) '\n'));
  let j = parse_json (String.trim line) in
  check_string "schema" "anonet-metrics/1" (as_str (obj_field j "schema"));
  check_int "counter" 42 (as_int (obj_field (obj_field j "counters") "lv.rounds"));
  check_int "gauge" 7 (as_int (obj_field (obj_field j "gauges") "faults.spent"));
  let h = obj_field (obj_field j "histograms") "span.run.ns" in
  check_int "hist count" 1 (as_int (obj_field h "count"));
  check_int "hist sum" 1000 (as_int (obj_field h "sum"))

let test_render_text () =
  let t = Metrics.create () in
  Metrics.incr ~by:9 (Metrics.counter t "executor.rounds");
  let txt = Metrics.render_text (Metrics.snapshot t) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "stats header" true (contains "stats:" txt);
  check "counter line" true (contains "executor.rounds" txt);
  check "value" true (contains "9" txt)

(* ---------- event sink ---------- *)

let test_null_sink () =
  check "not live" false (Events.live Events.null);
  (* emitting on the null sink is a no-op, not an error *)
  Events.emit Events.null "round" [ ("round", Events.Int 1) ];
  Events.flush Events.null

let test_ndjson_schema () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let sink = Events.ndjson oc in
  check "live" true (Events.live sink);
  Events.emit sink "round" [ ("round", Events.Int 3); ("ok", Events.Bool true) ];
  Events.emit sink "attempt.done"
    [ ("outcome", Events.String "quote\"back\\slash\nnewline"); ("ratio", Events.Float 0.5) ];
  Events.emit sink "bare" [];
  Events.flush sink;
  close_out oc;
  let lines = read_lines path in
  check_int "three lines" 3 (List.length lines);
  let parsed = List.map parse_json lines in
  (* the reserved fields come first, in order, on every line *)
  List.iteri
    (fun i j ->
      match obj_assoc j with
      | ("ts", Num ts) :: ("seq", Num seq) :: ("event", Str _) :: _ ->
        check "ts >= 0" true (ts >= 0.0);
        check_int (Printf.sprintf "seq %d" i) i (int_of_float seq)
      | _ -> Alcotest.fail "ts/seq/event must lead every line")
    parsed;
  let second = List.nth parsed 1 in
  check_string "event name" "attempt.done" (as_str (obj_field second "event"));
  check_string "string field round-trips" "quote\"back\\slash\nnewline"
    (as_str (obj_field second "outcome"));
  check "float field" true (Float.abs (as_num (obj_field second "ratio") -. 0.5) < 1e-9);
  let first = List.nth parsed 0 in
  check "bool field" true (obj_field first "ok" = Bool true);
  check_int "int field" 3 (as_int (obj_field first "round"))

let test_human_sink () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let sink = Events.human oc in
  Events.emit sink "attempt.start" [ ("attempt", Events.Int 1) ];
  Events.flush sink;
  close_out oc;
  match read_lines path with
  | [ line ] ->
    check "bracketed prefix" true (String.length line > 0 && line.[0] = '[');
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check "name" true (contains "attempt.start" line);
    check "field" true (contains "attempt=1" line)
  | lines -> Alcotest.failf "expected one line, got %d" (List.length lines)

(* ---------- obs handle and spans ---------- *)

let test_null_handle () =
  check "not live" false (Obs.live Obs.null);
  check "no metrics" true (Obs.metrics Obs.null = None);
  check "no counter handle" true (Obs.counter Obs.null "x" = None);
  Obs.incr (Obs.counter Obs.null "x");
  Obs.set (Obs.gauge Obs.null "y") 3;
  Obs.observe (Obs.histogram Obs.null "z") 9;
  Obs.event Obs.null "e" [];
  Obs.eventf Obs.null "e" (fun () -> Alcotest.fail "eventf must be lazy on null");
  check_int "span is transparent" 42 (Obs.span Obs.null "s" (fun () -> 42))

(* Without a registry the handle is events-only: no registry is built, and
   metric updates are the null handle's single branch. *)
let test_events_only_handle () =
  let lines = ref [] in
  let obs =
    Obs.make ~events:(Events.ndjson_lines (fun l -> lines := l :: !lines)) ()
  in
  check "live" true (Obs.live obs);
  check "no metrics" true (Obs.metrics obs = None);
  check "no counter handle" true (Obs.counter obs "x" = None);
  check_int "span is transparent" 42 (Obs.span obs "s" (fun () -> 42));
  check_int "span events still flow" 2 (List.length !lines)

let test_span_records () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry ~events:(Events.ndjson oc) () in
  let result = Obs.span obs "outer" (fun () -> Obs.span obs "inner" (fun () -> 7)) in
  close_out oc;
  check_int "result" 7 result;
  let snap = Metrics.snapshot registry in
  let stats name = List.assoc ("span." ^ name ^ ".ns") snap.Metrics.histograms in
  check_int "outer count" 1 (stats "outer").Metrics.count;
  check_int "inner count" 1 (stats "inner").Metrics.count;
  check "durations nest" true ((stats "inner").Metrics.sum <= (stats "outer").Metrics.sum);
  let events = List.map parse_json (read_lines path) in
  let of_kind k =
    List.filter (fun j -> as_str (obj_field j "event") = k) events
  in
  (* open/open/close/close, inner closing first *)
  check "nesting order" true
    (List.map (fun j -> (as_str (obj_field j "event"), as_str (obj_field j "span"))) events
     = [ ("span.open", "outer"); ("span.open", "inner");
         ("span.close", "inner"); ("span.close", "outer") ]);
  List.iter
    (fun j ->
      check "ok" true (obj_field j "ok" = Bool true);
      check "ns >= 0" true (as_int (obj_field j "ns") >= 0))
    (of_kind "span.close")

let test_span_exception_safety () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let registry = Metrics.create () in
  let obs = Obs.make ~metrics:registry ~events:(Events.ndjson oc) () in
  (match Obs.span obs "failing" (fun () -> raise Exit) with
   | () -> Alcotest.fail "exception swallowed"
   | exception Exit -> ());
  close_out oc;
  let snap = Metrics.snapshot registry in
  check_int "span still timed" 1
    (List.assoc "span.failing.ns" snap.Metrics.histograms).Metrics.count;
  let close =
    List.find
      (fun j -> as_str (obj_field j "event") = "span.close")
      (List.map parse_json (read_lines path))
  in
  check "closed with ok=false" true (obj_field close "ok" = Bool false)

(* ---------- acceptance: counters match the runtime's own reports ---------- *)

let live_ctx () =
  let registry = Metrics.create () in
  registry, Run_ctx.make ~obs:(Obs.make ~metrics:registry ()) ()

let counter_of registry name =
  match List.assoc_opt name (Metrics.snapshot registry).Metrics.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S not in snapshot" name

(* Scenario 1 (fault-free): executor.{rounds,messages} = Executor.outcome. *)
let test_counters_fault_free_run () =
  let registry, ctx = live_ctx () in
  match
    Executor.run ~ctx Anonet_algorithms.Rand_mis.algorithm (Gen.petersen ())
      ~tape:(Tape.random ~seed:3) ~max_rounds:1_000
  with
  | Error f -> Alcotest.failf "run failed: %a" Executor.pp_failure f
  | Ok o ->
    check_int "executor.rounds" o.Executor.rounds (counter_of registry "executor.rounds");
    check_int "executor.messages" o.Executor.messages
      (counter_of registry "executor.messages")

(* Scenario 2 (20% loss + retransmission): lv.* = the Las-Vegas report,
   and the fault injections show up under faults.*. *)
let test_counters_lossy_solve () =
  let g = Gen.cycle 6 in
  let registry = Metrics.create () in
  let ctx =
    Run_ctx.make
      ~faults:(Faults.with_loss 0.2 ~seed:21)
      ~obs:(Obs.make ~metrics:registry ())
      ()
  in
  match
    Las_vegas.solve ~ctx
      (Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm)
      g ~seed:5 ()
  with
  | Error f -> Alcotest.fail f.Las_vegas.message
  | Ok r ->
    check_int "lv.attempts" r.Las_vegas.attempts (counter_of registry "lv.attempts");
    check_int "lv.rounds_spent" r.Las_vegas.rounds_spent
      (counter_of registry "lv.rounds_spent");
    check_int "lv.rounds" r.Las_vegas.outcome.Executor.rounds
      (counter_of registry "lv.rounds");
    check_int "lv.messages" r.Las_vegas.outcome.Executor.messages
      (counter_of registry "lv.messages");
    check "output valid under loss" true
      (Catalog.two_hop_coloring.Problem.is_valid_output g
         r.Las_vegas.outcome.Executor.outputs)

(* Scenario 3 (round-major search): search.states_explored = found record. *)
let test_counters_round_major_search () =
  let registry, ctx = live_ctx () in
  match
    Min_search.minimal_successful ~ctx
      ~solver:Anonet_algorithms.Rand_coloring.algorithm (Gen.complete 2)
      ~base:(Bit_assignment.empty 2) ~max_len:8 ()
  with
  | None -> Alcotest.fail "search found nothing"
  | Some f ->
    check_int "search.states_explored" f.Min_search.states_explored
      (counter_of registry "search.states_explored");
    check "span present" true
      (List.mem_assoc "span.min_search.round_major.ns"
         (Metrics.snapshot registry).Metrics.histograms)

(* ---------- acceptance: live handles are byte-identical to null ---------- *)

let test_executor_obs_identity () =
  let g = Gen.petersen () in
  let plan = Faults.with_loss 0.3 ~seed:4 in
  let via_ctx =
    Executor.run
      ~ctx:(Run_ctx.make ~faults:plan ~scramble_seed:7 ())
      Anonet_algorithms.Rand_mis.algorithm g ~tape:(Tape.random ~seed:3)
      ~max_rounds:1_000
  in
  (* a live-metrics context never changes the result *)
  let _, live = live_ctx () in
  let observed =
    Executor.run
      ~ctx:{ live with Run_ctx.faults = Some plan; scramble_seed = Some 7 }
      Anonet_algorithms.Rand_mis.algorithm g ~tape:(Tape.random ~seed:3)
      ~max_rounds:1_000
  in
  check "instrumented run agrees" true (via_ctx = observed)

let test_las_vegas_obs_identity () =
  let g = Gen.cycle 6 in
  let plan = Faults.with_loss 0.2 ~seed:21 in
  let algo = Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm in
  let solve_with obs () =
    Las_vegas.solve ~ctx:(Run_ctx.make ~faults:plan ~obs ()) algo g ~seed:5 ()
  in
  let sequential = solve_with Obs.null () in
  (* a live handle, on the calling domain and on four concurrent domains
     (one registry each), never changes the report *)
  let live () = solve_with (Obs.make ~metrics:(Metrics.create ()) ()) () in
  check "live handle agrees" true (sequential = live ());
  Array.iter
    (fun r -> check "jobs=4 agrees with jobs=1" true (sequential = r))
    (Pool.map ~domains:4 live (Array.make 4 ()))

(* ---------- acceptance: NDJSON stream of a seed-fixed faulty solve ---------- *)

let test_ndjson_golden_solve () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let registry = Metrics.create () in
  let result =
    let ctx =
      Run_ctx.make
        ~faults:(Faults.with_loss 0.2 ~seed:21)
        ~obs:(Obs.make ~metrics:registry ~events:(Events.ndjson oc) ())
        ()
    in
    Las_vegas.solve ~ctx
      (Retransmit.wrap Anonet_algorithms.Rand_two_hop.algorithm)
      (Gen.cycle 6) ~seed:5 ()
  in
  close_out oc;
  (match result with
  | Error f -> Alcotest.fail f.Las_vegas.message
  | Ok _ -> ());
  let events = List.map parse_json (read_lines path) in
  check "stream non-empty" true (events <> []);
  let allowed =
    [ "span.open"; "span.close"; "attempt.start"; "attempt.done";
      "attempt.win"; "lv.fail" ]
  in
  List.iteri
    (fun i j ->
      (* schema: ts/seq/event lead every object; seq is dense from 0 *)
      (match obj_assoc j with
       | ("ts", Num _) :: ("seq", Num seq) :: ("event", Str name) :: _ ->
         check_int "seq dense" i (int_of_float seq);
         check ("known event: " ^ name) true (List.mem name allowed)
       | _ -> Alcotest.fail "ts/seq/event must lead every line"))
    events;
  let named k = List.filter (fun j -> as_str (obj_field j "event") = k) events in
  check_int "exactly one winner" 1 (List.length (named "attempt.win"));
  check_int "solve span opened once" 1 (List.length (named "span.open"));
  check_int "solve span closed once" 1 (List.length (named "span.close"));
  check "span is the solve" true
    (as_str (obj_field (List.hd (named "span.open")) "span") = "las_vegas.solve");
  (* every started attempt is resolved *)
  check_int "attempts resolved"
    (List.length (named "attempt.start"))
    (List.length (named "attempt.done"))

(* ---------- acceptance: null-handle overhead stays within noise ---------- *)

let test_null_overhead_guard () =
  (* The null handle must keep the executor's hot loop cheap: a
     live-metrics run of the same fixed workload may not be wildly slower
     than the null-handle run (generous 10x bound — this is a regression
     tripwire for accidental allocation on the hot path, not a benchmark). *)
  let workload ctx =
    for seed = 1 to 30 do
      match
        Executor.run ~ctx Anonet_algorithms.Rand_mis.algorithm (Gen.petersen ())
          ~tape:(Tape.random ~seed) ~max_rounds:1_000
      with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "workload failed: %a" Executor.pp_failure f
    done
  in
  let time ctx =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      workload ctx;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let null_t = time Run_ctx.default in
  let _, live = live_ctx () in
  let live_t = time live in
  check "live within 10x of null (+1ms grace)" true (live_t <= (null_t *. 10.) +. 0.001)

(* ---------- experiments return structured rows ---------- *)

let test_experiments_structured () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let registry = Metrics.create () in
  let ctx =
    Run_ctx.make ~obs:(Obs.make ~metrics:registry ~events:(Events.ndjson oc) ()) ()
  in
  let out =
    match Experiments.run ~ctx "lemmas" with
    | Ok out -> out
    | Error m -> Alcotest.fail m
  in
  close_out oc;
  check_string "id" "lemmas" out.Experiments.id;
  check "has rows" true (out.Experiments.rows <> []);
  check "banner prelude" true
    (String.length out.Experiments.prelude > 4
     && String.sub out.Experiments.prelude 0 4 = "\n===");
  check "coda present" true (out.Experiments.coda <> "");
  List.iter
    (fun r ->
      let line = r.Experiments.line in
      check "row is one line" true
        (String.length line > 0 && line.[String.length line - 1] = '\n'))
    out.Experiments.rows;
  (* one experiment.row event per structured row *)
  let rows_emitted =
    List.filter
      (fun j -> as_str (obj_field j "event") = "experiment.row")
      (List.map parse_json (read_lines path))
  in
  check_int "row events" (List.length out.Experiments.rows) (List.length rows_emitted);
  List.iter
    (fun j -> check_string "tagged" "lemmas" (as_str (obj_field j "experiment")))
    rows_emitted;
  (* the run is timed under experiment.<id> *)
  check "span recorded" true
    (List.mem_assoc "span.experiment.lemmas.ns"
       (Metrics.snapshot registry).Metrics.histograms);
  check_int "unknown id is an error" 1
    (match Experiments.run "nope" with Ok _ -> 0 | Error _ -> 1)

(* ---------- runner ---------- *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "metrics",
        [ t "counter basics" test_counter_basics;
          t "gauge last write" test_gauge_last_write;
          t "histogram stats" test_histogram_stats;
          t "snapshot sorted" test_snapshot_sorted;
          t "sharded counters merge exactly" test_sharded_counters;
          t "render json" test_render_json;
          t "render text" test_render_text;
        ] );
      ( "events",
        [ t "null sink" test_null_sink;
          t "ndjson schema" test_ndjson_schema;
          t "human sink" test_human_sink;
        ] );
      ( "spans",
        [ t "null handle" test_null_handle;
          t "events-only handle" test_events_only_handle;
          t "span records" test_span_records;
          t "span exception safety" test_span_exception_safety;
        ] );
      ( "acceptance",
        [ t "counters: fault-free run" test_counters_fault_free_run;
          t "counters: lossy retransmitted solve" test_counters_lossy_solve;
          t "counters: round-major search" test_counters_round_major_search;
          t "obs identity: executor" test_executor_obs_identity;
          t "obs identity: las-vegas, jobs 1 and 4" test_las_vegas_obs_identity;
          t "ndjson golden solve" test_ndjson_golden_solve;
          t "null-handle overhead guard" test_null_overhead_guard;
        ] );
      ( "experiments",
        [ t "structured rows" test_experiments_structured ] );
    ]
