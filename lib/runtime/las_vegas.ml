module Graph = Anonet_graph.Graph
module Prng = Anonet_graph.Prng
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events

type report = {
  outcome : Executor.outcome;
  attempts : int;
  seed_used : int;
  rounds_spent : int;
}

type failure_reason = No_success | Diverged | Network_dead

type failure = { reason : failure_reason; message : string }

let fail reason message = { reason; message }

let failure_reason_name = function
  | No_success -> "no_success"
  | Diverged -> "diverged"
  | Network_dead -> "network_dead"

let pp_failure fmt f = Format.pp_print_string fmt f.message

(* Saturating addition: round budgets are clamped at [max_int / 2], so
   totals across attempts can still approach [max_int]. *)
let ( ++ ) a b = if a > max_int - b then max_int else a + b

(* ---------- diagnostics ---------- *)

let describe_last = function
  | None -> ""
  | Some (f, seed_used, budget) ->
    Format.asprintf " (last attempt: %a; budget %d; seed %d)"
      Executor.pp_failure f budget seed_used

let no_success_msg ~attempts ~spent ~last =
  Printf.sprintf "Las_vegas.solve: no success in %d attempts (%d rounds spent)%s"
    attempts spent (describe_last last)

let crash_msg f i seed_used =
  Format.asprintf
    "Las_vegas.solve: %a on attempt %d (seed %d) — fault plan leaves no node \
     running"
    Executor.pp_failure f i seed_used

let diverged_msg ~attempt ~budget ~threshold ~spent ~seed_used =
  Printf.sprintf
    "Las_vegas.solve: divergence detected on attempt %d: no output within %d \
     rounds (threshold %d; %d rounds spent; seed %d)"
    attempt budget threshold spent seed_used

(* ---------- one attempt ---------- *)

type attempt_outcome =
  | Done of Executor.outcome
  | Crashed of Executor.failure  (** [All_nodes_crashed]: retrying cannot help *)
  | Out_of_rounds of Executor.failure

let attempt_outcome_name = function
  | Done _ -> "success"
  | Crashed _ -> "crashed"
  | Out_of_rounds _ -> "out_of_rounds"

let attempt ~obs algo g ~seed ~faults ~adversary i ~budget =
  (* Splitmix-style hash of (seed, attempt): attempts draw unrelated tapes
     even for adjacent or arithmetically related seeds. *)
  let seed_used = Prng.hash2 seed i in
  Obs.eventf obs "attempt.start" (fun () ->
      [
        ("attempt", Events.Int i);
        ("budget", Events.Int budget);
        ("seed", Events.Int seed_used);
      ]);
  (* Each attempt gets its own context with a fresh injector (instantiated
     inside [Executor.run]) and a *null* observability handle: a failed
     attempt must not pollute the run's counters, so attempts surface only
     as events and the solve-level [lv.*] counters are posted from the
     final report. *)
  let ctx = Run_ctx.make ?faults ?adversary () in
  let outcome =
    match
      Executor.run ~ctx algo g ~tape:(Tape.random ~seed:seed_used)
        ~max_rounds:budget
    with
    | Ok outcome -> Done outcome
    | Error (Executor.Tape_exhausted _) ->
      (* Random tapes never exhaust. *)
      assert false
    | Error (Executor.All_nodes_crashed _ as f) -> Crashed f
    | Error (Executor.Max_rounds_exceeded _ as f) -> Out_of_rounds f
  in
  Obs.eventf obs "attempt.done" (fun () ->
      [
        ("attempt", Events.Int i);
        ("outcome", Events.String (attempt_outcome_name outcome));
      ]);
  outcome

(* ---------- the attempt loop ---------- *)

let run_attempts ~obs algo g ~seed ~budget_for ~attempts ~threshold ~faults
    ~adversary =
  let rec go i ~spent ~last_failure =
    if i > attempts then
      Error (fail No_success (no_success_msg ~attempts ~spent ~last:last_failure))
    else begin
      let budget = budget_for i in
      let seed_used = Prng.hash2 seed i in
      match attempt ~obs algo g ~seed ~faults ~adversary i ~budget with
      | Done outcome ->
        Ok { outcome; attempts = i; seed_used; rounds_spent = spent ++ outcome.rounds }
      | Crashed f ->
        (* The fault plan is deterministic: retrying cannot help. *)
        Error (fail Network_dead (crash_msg f i seed_used))
      | Out_of_rounds _ when budget >= threshold ->
        (* An attempt this generous failing is divergence, not bad luck:
           the run is systematically prevented from stabilizing (e.g. an
           unbounded adversary re-corrupting every round).  Terminal —
           escalating the budget further cannot help. *)
        Error
          (fail Diverged
             (diverged_msg ~attempt:i ~budget ~threshold ~spent:(spent ++ budget)
                ~seed_used))
      | Out_of_rounds f ->
        go (i + 1) ~spent:(spent ++ budget) ~last_failure:(Some (f, seed_used, budget))
    end
  in
  go 1 ~spent:0 ~last_failure:None

let solve ?(ctx = Run_ctx.default) algo g ~seed ?max_rounds ?(attempts = 20)
    ?divergence () =
  (match divergence with
   | Some d when not (d > 0.0) -> invalid_arg "Las_vegas.solve: divergence <= 0"
   | _ -> ());
  let obs = Run_ctx.obs ctx in
  let base_rounds =
    match max_rounds with Some r -> r | None -> 64 * (Graph.n g + 4)
  in
  let clamp f = if f >= float_of_int (max_int / 2) then max_int / 2 else int_of_float f in
  let budget_for i =
    (* Exponential backoff: unlucky (or faulted) attempts double their
       round budget instead of burning the same one [attempts] times.
       Clamped at [max_int / 2]: with enough attempts [2 ** (i-1)]
       leaves the integer range, and an unclamped [int_of_float] would
       wrap the budget negative. *)
    clamp (float_of_int base_rounds *. (2.0 ** float_of_int (i - 1)))
  in
  (* Divergence threshold: an attempt whose budget reached
     [divergence * base_rounds] and still ran out of rounds is declared
     diverged rather than retried.  The clamp keeps a huge or infinite
     [divergence] from wrapping the threshold; [max_int] (never reached —
     budgets are clamped below it) disables the check. *)
  let threshold =
    match divergence with
    | None -> max_int
    | Some d -> clamp (d *. float_of_int base_rounds)
  in
  let result =
    Obs.span obs "las_vegas.solve" (fun () ->
        run_attempts ~obs algo g ~seed ~budget_for ~attempts ~threshold
          ~faults:(Run_ctx.faults ctx) ~adversary:(Run_ctx.adversary ctx))
  in
  (* The [lv.*] counters mirror the report exactly — the acceptance tests
     compare them field by field — so they are posted from it rather than
     accumulated along the way. *)
  (match result with
   | Ok r ->
     Obs.incr ~by:r.attempts (Obs.counter obs "lv.attempts");
     Obs.incr ~by:r.rounds_spent (Obs.counter obs "lv.rounds_spent");
     Obs.incr ~by:r.outcome.rounds (Obs.counter obs "lv.rounds");
     Obs.incr ~by:r.outcome.messages (Obs.counter obs "lv.messages");
     Obs.eventf obs "attempt.win" (fun () ->
         [
           ("attempt", Events.Int r.attempts);
           ("rounds", Events.Int r.outcome.rounds);
           ("seed", Events.Int r.seed_used);
         ])
   | Error f ->
     Obs.eventf obs "lv.fail" (fun () ->
         [
           ("error", Events.String f.message);
           ("reason", Events.String (failure_reason_name f.reason));
         ]));
  result

let solve_msg ?ctx algo g ~seed ?max_rounds ?attempts ?divergence () =
  Result.map_error
    (fun f -> f.message)
    (solve ?ctx algo g ~seed ?max_rounds ?attempts ?divergence ())
