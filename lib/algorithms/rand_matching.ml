module Label = Anonet_graph.Label
module Algorithm = Anonet_runtime.Algorithm

let name = "rand-matching"

type status =
  | Active
  | Matched of int  (* port *)
  | Done_unmatched

type step =
  | Propose
  | Accept
  | Commit

type state = {
  degree : int;
  status : status;
  step : step;
  phase : int;
  nbr_status : string array;  (* last heard status per port; "?" initially *)
  proposed_port : int option;
  out : Label.t option;
}

let init ~input:_ ~degree =
  {
    degree;
    status = Active;
    step = Propose;
    phase = 0;
    nbr_status = Array.make degree "?";
    proposed_port = None;
    out = None;
  }

let output s = s.out

let status_tag = function
  | Active -> "active"
  | Matched _ -> "matched"
  | Done_unmatched -> "done"

let msg s tag = Label.Pair (Label.Str (status_tag s.status), Label.Str tag)

let decode = function
  | Label.Pair (Label.Str status, Label.Str tag) -> status, tag
  | _ -> invalid_arg "rand-matching: malformed message"

(* Fold the inbox into the port-indexed last-known neighbor statuses and
   return the tags received per port ("-" where nothing arrived). *)
let absorb s inbox =
  let nbr_status = Array.copy s.nbr_status in
  let tags = Array.make s.degree "-" in
  Array.iteri
    (fun p m ->
      match m with
      | None -> ()
      | Some m ->
        let status, tag = decode m in
        nbr_status.(p) <- status;
        tags.(p) <- tag)
    inbox;
  { s with nbr_status }, tags

let eligible_ports s =
  List.filter
    (fun p -> s.nbr_status.(p) = "active" || s.nbr_status.(p) = "?")
    (List.init s.degree (fun p -> p))

let statuses_only s = Algorithm.broadcast ~degree:s.degree (msg s "-")

let round s ~bit ~inbox =
  let s, tags = absorb s inbox in
  match s.step with
  | Propose ->
    let s = { s with step = Accept; phase = s.phase + 1 } in
    (match s.status with
     | Matched _ | Done_unmatched -> s, statuses_only s
     | Active ->
       (match eligible_ports s with
        | [] ->
          let s = { s with status = Done_unmatched; out = Some Label.Unit } in
          s, statuses_only s
        | eligible ->
          if bit then begin
            (* Proposer: offer to one eligible neighbor, cycling by phase. *)
            let port = List.nth eligible (s.phase mod List.length eligible) in
            let s = { s with proposed_port = Some port } in
            let sends =
              Array.init s.degree (fun p ->
                  Some (msg s (if p = port then "p" else "-")))
            in
            s, sends
          end
          else s, statuses_only s))
  | Accept ->
    let s = { s with step = Commit } in
    (match s.status, s.proposed_port with
     | Active, None ->
       (* Responder: accept the lowest-port proposal, if any. *)
       let proposals =
         List.filter (fun p -> tags.(p) = "p") (List.init s.degree (fun p -> p))
       in
       (match proposals with
        | [] -> s, statuses_only s
        | port :: _ ->
          let s = { s with status = Matched port; out = Some (Label.Int port) } in
          let sends =
            Array.init s.degree (fun p ->
                Some (msg s (if p = port then "a" else "-")))
          in
          s, sends)
     | (Active | Matched _ | Done_unmatched), _ -> s, statuses_only s)
  | Commit ->
    let s = { s with step = Propose } in
    (match s.status, s.proposed_port with
     | Active, Some port ->
       let s = { s with proposed_port = None } in
       if tags.(port) = "a" then begin
         let s = { s with status = Matched port; out = Some (Label.Int port) } in
         s, statuses_only s
       end
       else s, statuses_only s
     | (Active | Matched _ | Done_unmatched), _ ->
       { s with proposed_port = None }, statuses_only s)

(* Flat companion: ported, one message word per port.

   State span (3 + max-degree words): word 0 = step (bits 0-1: 0 Propose,
   1 Accept, 2 Commit) lor [status lsl 2], status 0 = Active, 1 =
   Done_unmatched, [2 + p] = Matched p; word 1 = phase; word 2 = proposed
   port + 1 (0 = none); words 3.. = the last status heard per port (0 "?",
   1 active, 2 matched, 3 done), zero past the node's degree.  [degree]
   is constant and [out] is determined by the status, so the span is an
   injective encoding of the boxed state.

   Message word: [1 + 3 * status + tag], status 0 active / 1 matched /
   2 done and tag 0 "-" / 1 "p" / 2 "a" — never 0, and every node sends
   on every port every round, as the boxed round does. *)

let tag_none = 0 and tag_propose = 1 and tag_accept = 2

(* The tag that arrived on the port at [ports.(i)] ("-" when nothing did). *)
let tag_at inbox ports i =
  let m = Array.unsafe_get inbox (Array.unsafe_get ports i) in
  if m = 0 then tag_none else (m - 1) mod 3

(* Send [status] on every port, with [tag] on [port] (no port: -1). *)
let send_status send soff degree status ~port ~tag =
  let wire = if status = 0 then 0 else if status = 1 then 2 else 1 in
  let base = 1 + (3 * wire) in
  for p = 0 to degree - 1 do
    Array.unsafe_set send (soff + p) (if p = port then base + tag else base)
  done

let flat_round ~node:_ ~bit ~degree ~state ~off ~inbox ~ports ~pslot ~send ~soff =
  for p = 0 to degree - 1 do
    let m = Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p)) in
    if m <> 0 then Array.unsafe_set state (off + 3 + p) (((m - 1) / 3) + 1)
  done;
  let w0 = Array.unsafe_get state off in
  let step = w0 land 3 in
  (* The new status, and the port that carries [tag] (none: -1). *)
  let status = ref (w0 lsr 2) and port = ref (-1) and tag = ref tag_none in
  (match step with
   | 0 ->
     (* Propose *)
     let phase = Array.unsafe_get state (off + 1) + 1 in
     Array.unsafe_set state (off + 1) phase;
     if !status = 0 then begin
       let eligible = ref 0 in
       for p = 0 to degree - 1 do
         if Array.unsafe_get state (off + 3 + p) <= 1 then incr eligible
       done;
       if !eligible = 0 then status := 1
       else if bit then begin
         (* offer to the [phase mod eligible]-th eligible port *)
         let k = ref (phase mod !eligible) in
         port := 0;
         while !k > 0 || Array.unsafe_get state (off + 3 + !port) > 1 do
           if Array.unsafe_get state (off + 3 + !port) <= 1 then decr k;
           incr port
         done;
         Array.unsafe_set state (off + 2) (!port + 1);
         tag := tag_propose
       end
     end
   | 1 ->
     (* Accept: an active non-proposer takes the lowest-port proposal. *)
     if !status = 0 && Array.unsafe_get state (off + 2) = 0 then begin
       let p = ref 0 in
       while !p < degree && tag_at inbox ports (pslot + !p) <> tag_propose do
         incr p
       done;
       if !p < degree then begin
         status := 2 + !p;
         port := !p;
         tag := tag_accept
       end
     end
   | _ ->
     (* Commit: a proposer whose proposal was accepted matches. *)
     let proposed = Array.unsafe_get state (off + 2) in
     Array.unsafe_set state (off + 2) 0;
     if
       !status = 0 && proposed > 0
       && tag_at inbox ports (pslot + proposed - 1) = tag_accept
     then status := 2 + proposed - 1);
  Array.unsafe_set state off (((step + 1) mod 3) lor (!status lsl 2));
  send_status send soff degree !status ~port:!port ~tag:!tag;
  true

let flat_plan g =
  {
    Algorithm.Flat.state_words = 3 + Anonet_graph.Graph.max_degree g;
    msg_words = 1;
    ported = true;
    init = (fun ~node:_ ~input:_ ~degree:_ ~state:_ ~off:_ -> ());
    (* all-zero span = Propose, Active, phase 0, nothing proposed or heard *)
    round = flat_round;
    output =
      (fun ~state ~off ->
        match Array.unsafe_get state off lsr 2 with
        | 0 -> None
        | 1 -> Some Label.Unit
        | s -> Some (Label.Int (s - 2)));
    has_output = (fun ~state ~off -> Array.unsafe_get state off lsr 2 <> 0);
  }

let algorithm : Algorithm.t =
  (module struct
    type nonrec state = state

    let name = name

    let init = init

    let round = round

    let output = output

    let flat = Some { Algorithm.Flat.plan = flat_plan }
  end)
