module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Prng = Anonet_graph.Prng
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events

type scheduler =
  | Fifo
  | Random_delay of { seed : int; max_delay : int }
  | Skewed of { seed : int; max_delay : int; slow_node : int }

type outcome = {
  outputs : Label.t array;
  events : int;
  virtual_rounds : int;
}

type failure =
  | Event_limit_exceeded of int
  | Tape_exhausted of { round : int }
  | Stalled of { events : int }

let pp_failure fmt = function
  | Event_limit_exceeded n -> Format.fprintf fmt "no output after %d events" n
  | Tape_exhausted { round } ->
    Format.fprintf fmt "tape exhausted at synchronizer round %d" round
  | Stalled { events } ->
    Format.fprintf fmt "stalled after %d events: no messages in flight" events

let sample_delay scheduler rng ~source =
  match scheduler with
  | Fifo -> 1
  | Random_delay { max_delay; _ } -> 1 + Prng.int rng (max 1 max_delay)
  | Skewed { max_delay; slow_node; _ } ->
    if source = slow_node then max 1 max_delay
    else 1 + Prng.int rng (max 1 max_delay)

(* A message in flight: [round] is the synchronous round it belongs to;
   [payload = None] is the synchronizer's explicit null. *)
type message = {
  target : int;
  port : int;  (* the target's port on which it arrives *)
  round : int;
  payload : Label.t option;
}

module Timeline = Map.Make (Int)

exception Tape_out of int

let run_mod (type s) ?faults ?adversary ~obs
    (module A : Algorithm.S with type state = s) g ~tape ~scheduler ~max_events =
  let n = Graph.n g in
  (* Port p of v reaches u, arriving on u's port twin.(off.(v) + p) - off.(u). *)
  let off = Graph.offsets g and twin = Graph.reverse_slots g in
  let delay_rng = Prng.create (Hashtbl.hash scheduler) in
  let delay ~source = sample_delay scheduler delay_rng ~source in
  (* Per-node synchronizer state. *)
  let states = Array.make n None in
  let next_round = Array.make n 1 in
  (* buffers.(v) maps a round to (messages per port, count received). *)
  let buffers = Array.init n (fun _ -> Hashtbl.create 8) in
  let outputs = Array.make n None in
  let timeline = ref Timeline.empty in
  let now = ref 0 in
  let seq = ref 0 in
  let events = ref 0 in
  let max_round = ref 0 in
  let schedule_raw msg ~source =
    let t = !now + delay ~source in
    incr seq;
    timeline :=
      Timeline.update t
        (fun q -> Some ((!seq, msg) :: Option.value ~default:[] q))
        !timeline
  in
  (* The wire is where faults live: every scheduled message passes through
     the injector — including the synchronizer's explicit nulls, which are
     real messages and can be lost (stalling the receiver forever).  The
     adversary taps what the fault layer lets through; the synchronizer's
     nulls carry no payload to tamper with, but the adversary still cannot
     see dropped messages.  Duplicates are tampered once — both copies are
     the same wire message. *)
  let adversary_tap ~source ~target ~round payload =
    match adversary, payload with
    | Some a, Some l -> Some (Adversary.tamper a ~src:source ~dst:target ~round l)
    | _ -> payload
  in
  let schedule msg ~source =
    let tap payload =
      adversary_tap ~source ~target:msg.target ~round:msg.round payload
    in
    match faults with
    | None -> schedule_raw { msg with payload = tap msg.payload } ~source
    | Some f ->
      (match
         Faults.on_send_async f ~src:source ~dst:msg.target ~round:msg.round
           msg.payload
       with
       | Faults.Async_drop -> ()
       | Faults.Async_deliver payload ->
         schedule_raw { msg with payload = tap payload } ~source
       | Faults.Async_duplicate payload ->
         let payload = tap payload in
         schedule_raw { msg with payload } ~source;
         schedule_raw { msg with payload } ~source)
  in
  let record_output v state =
    match outputs.(v), A.output state with
    | None, o -> outputs.(v) <- o
    | Some prev, Some cur when Label.equal prev cur -> ()
    | Some _, _ ->
      invalid_arg (Printf.sprintf "Async.run: %s revoked an irrevocable output" A.name)
  in
  let buffer_for v round =
    match Hashtbl.find_opt buffers.(v) round with
    | Some b -> b
    | None ->
      let b = Array.make (Graph.degree g v) None, ref 0 in
      Hashtbl.add buffers.(v) round b;
      b
  in
  (* Node activation passes through the fault injector: a crashed node
     never executes again (the asynchronous substrate has no global clock
     to schedule a recovery, so crashes are crash-stop here). *)
  let crashed v =
    match faults with
    | None -> false
    | Some f -> Faults.crashed_forever f ~node:v ~round:next_round.(v)
  in
  (* Execute node [v]'s next synchronous round with the given inbox. *)
  let execute v ~inbox =
    let r = next_round.(v) in
    let bit =
      match Tape.bit tape ~node:v ~round:r with
      | Some b -> b
      | None -> raise (Tape_out r)
    in
    let state =
      match states.(v) with
      | Some s -> s
      | None -> assert false
    in
    let state', sends = A.round state ~bit ~inbox in
    if Array.length sends <> Graph.degree g v then
      invalid_arg "Async.run: wrong send-array length";
    states.(v) <- Some state';
    record_output v state';
    next_round.(v) <- r + 1;
    if r > !max_round then max_round := r;
    (* Send every port an explicit (possibly null) round-r message. *)
    Array.iteri
      (fun p payload ->
        let u = Graph.neighbor g v p in
        let q = twin.(off.(v) + p) - off.(u) in
        schedule { target = u; port = q; round = r; payload } ~source:v)
      sends
  in
  (* A node may advance when the inbox of its next round is complete; the
     inbox of round r is the set of round-(r-1) messages. *)
  let rec advance v =
    let r = next_round.(v) in
    let d = Graph.degree g v in
    if crashed v then ()
    else if d = 0 then begin
      (* isolated node: free-running until it outputs *)
      if outputs.(v) = None then begin
        incr events;
        if !events > max_events then raise Exit;
        execute v ~inbox:[||];
        advance v
      end
    end
    else if r = 1 then ()
    else begin
      match Hashtbl.find_opt buffers.(v) (r - 1) with
      | Some (inbox, count) when !count = d ->
        Hashtbl.remove buffers.(v) (r - 1);
        execute v ~inbox;
        advance v
      | Some _ | None -> ()
    end
  in
  let all_output () = Array.for_all Option.is_some outputs in
  let finish result =
    (* Counters are posted once, after the event loop: the totals equal the
       outcome's [events]/[virtual_rounds] by construction, and the hot loop
       stays untouched. *)
    Obs.incr ~by:!events (Obs.counter obs "async.events");
    Obs.set (Obs.gauge obs "async.virtual_rounds") !max_round;
    (match faults with Some f -> Run_ctx.observe_faults obs f | None -> ());
    (match adversary with
     | Some a -> Run_ctx.observe_adversary obs a
     | None -> ());
    Obs.eventf obs "async.done" (fun () ->
        [
          ("events", Events.Int !events);
          ("virtual_rounds", Events.Int !max_round);
          ("ok", Events.Bool (Result.is_ok result));
        ]);
    result
  in
  finish @@ Obs.span obs "async.run" @@ fun () ->
  try
    (* Initialize and run round 1 everywhere (empty inboxes). *)
    for v = 0 to n - 1 do
      states.(v) <- Some (A.init ~input:(Graph.label g v) ~degree:(Graph.degree g v));
      record_output v (Option.get states.(v))
    done;
    for v = 0 to n - 1 do
      if not (crashed v) then begin
        execute v ~inbox:(Array.make (Graph.degree g v) None);
        advance v
      end
    done;
    let finished = ref (all_output ()) in
    while (not !finished) && not (Timeline.is_empty !timeline) do
      let t, batch = Timeline.min_binding !timeline in
      timeline := Timeline.remove t !timeline;
      now := t;
      let batch = List.sort (fun (a, _) (b, _) -> Int.compare a b) batch in
      List.iter
        (fun (_, msg) ->
          incr events;
          if !events > max_events then raise Exit;
          let inbox, count = buffer_for msg.target msg.round in
          inbox.(msg.port) <- msg.payload;
          incr count;
          advance msg.target)
        batch;
      if all_output () then finished := true
    done;
    if all_output () then
      Ok
        {
          outputs = Array.map Option.get outputs;
          events = !events;
          virtual_rounds = !max_round;
        }
    else if Timeline.is_empty !timeline then
      (* Nothing in flight and nodes still undecided: a dropped message (or
         a crashed sender) starved the synchronizer — it deadlocks, by
         design, because it has no retransmission. *)
      Error (Stalled { events = !events })
    else Error (Event_limit_exceeded max_events)
  with
  | Exit -> Error (Event_limit_exceeded max_events)
  | Tape_out round -> Error (Tape_exhausted { round })

let run ?(ctx = Run_ctx.default) algo g ~tape ~scheduler ~max_events =
  let (module A : Algorithm.S) = algo in
  run_mod
    ?faults:(Run_ctx.injector ctx)
    ?adversary:(Run_ctx.adversary_instance ctx)
    ~obs:(Run_ctx.obs ctx)
    (module A) g ~tape ~scheduler ~max_events

