module Graph = Anonet_graph.Graph

type t = {
  n : int;
  output_rounds : int option array;
  messages_by_round : int list;
  rounds : int;
  fault_events : Faults.event list;
  adversary_events : Adversary.event list;
  crashed : int -> round:int -> bool;  (* node crashed in the given round? *)
}

let record ?(ctx = Run_ctx.default) algo g ~tape ~max_rounds =
  let n = Graph.n g in
  let hooks = Executor.hooks ctx in
  let output_rounds = Array.make n None in
  let messages_by_round = ref [] in
  let note ~round ~messages ~has_output =
    for v = 0 to n - 1 do
      if output_rounds.(v) = None && has_output v then output_rounds.(v) <- Some round
    done;
    if round > 0 then messages_by_round := messages :: !messages_by_round
  in
  let e =
    Executor.drive ~obs:(Run_ctx.obs ctx) ~span:"trace.record" ~note hooks algo g
      ~tape ~max_rounds
  in
  let trace =
    {
      n;
      output_rounds;
      messages_by_round = List.rev !messages_by_round;
      rounds = e.last_round;
      fault_events = (match hooks.faults with None -> [] | Some f -> Faults.events f);
      adversary_events =
        (match hooks.adversary with None -> [] | Some a -> Adversary.events a);
      crashed =
        (match hooks.faults with
         | None -> fun _ ~round:_ -> false
         | Some f -> fun v ~round -> not (Faults.active f ~node:v ~round));
    }
  in
  match Executor.to_result e with
  | Ok outcome -> Ok (trace, outcome)
  | Error f -> Error (trace, f)

let output_rounds t = Array.copy t.output_rounds

let messages_by_round t = t.messages_by_round

let rounds t = t.rounds

let fault_events t = t.fault_events

let adversary_events t = t.adversary_events

let render t =
  let buf = Buffer.create 256 in
  let any_crashed = ref false in
  for v = 0 to t.n - 1 do
    for r = 1 to t.rounds do
      if t.crashed v ~round:r then any_crashed := true
    done
  done;
  let legend =
    if !any_crashed then "'#' = output set; 'x' = crashed" else "'#' = output set"
  in
  Buffer.add_string buf
    (Printf.sprintf "rounds: %d (columns); nodes: %d (rows); %s\n" t.rounds t.n
       legend);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "node %2d " v);
    let decided = t.output_rounds.(v) in
    for r = 1 to t.rounds do
      let mark =
        if t.crashed v ~round:r then 'x'
        else
          match decided with
          | Some d when r >= d -> '#'
          | Some _ | None -> '.'
      in
      Buffer.add_char buf mark
    done;
    (match decided with
     | Some d -> Buffer.add_string buf (Printf.sprintf "  (output at round %d)" d)
     | None -> Buffer.add_string buf "  (no output)");
    Buffer.add_char buf '\n'
  done;
  let total = List.fold_left ( + ) 0 t.messages_by_round in
  Buffer.add_string buf (Printf.sprintf "messages per round: %s (total %d)\n"
                           (String.concat " "
                              (List.map string_of_int t.messages_by_round))
                           total);
  if t.fault_events <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "fault events (%d):\n" (List.length t.fault_events));
    List.iter
      (fun e ->
        Buffer.add_string buf (Format.asprintf "  %a\n" Faults.pp_event e))
      t.fault_events
  end;
  if t.adversary_events <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "adversary events (%d):\n"
         (List.length t.adversary_events));
    List.iter
      (fun e ->
        Buffer.add_string buf (Format.asprintf "  %a\n" Adversary.pp_event e))
      t.adversary_events
  end;
  Buffer.contents buf
