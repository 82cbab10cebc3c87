module Label = Anonet_graph.Label
module Obs = Anonet_obs.Obs
module IntMap = Map.Make (Int)

(* Wire format, one message per port per outer round:
     Pair (Int checksum,
           Pair (Int cumulative_ack,
                 List [Pair (Int inner_round, List payload_opt); ...]))
   where payload_opt is [] for an explicit null (the inner algorithm sent
   nothing on that port that round) and [l] for a real payload [l].  The
   list carries the whole unacknowledged window — retransmission is simply
   "send the window again".

   [checksum] is an FNV-1a hash of the body's canonical encoding: a frame
   whose checksum does not match its body is dropped whole, and since the
   window is resent every outer round anyway, the next clean copy recovers
   it — corruption degrades into loss, which the protocol already survives.
   Defense in depth against checksum collisions (and adversaries that
   recompute it): receivers also validate the round tags and the ack
   against the plausible window [0 .. outer_round] — an honest peer can
   never be ahead of the receiver's own outer round, so a corrupted tag or
   ack outside that window is rejected without ever being "taken at face
   value" (the pre-checksum protocol let a single flipped ack bit discard
   unacknowledged window entries and stall the link forever). *)

exception Reject

let checksum body =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x0100_0193 land 0x3FFF_FFFF)
    (Label.encode body);
  !h

let encode_payload = function
  | None -> Label.List []
  | Some l -> Label.List [ l ]

let decode_payload = function
  | Label.List [] -> None
  | Label.List [ l ] -> Some l
  | _ -> raise Reject

(* [decode_wire ~outer msg] is [Some (ack, window)] for an intact,
   plausible frame received at outer round [outer], [None] otherwise. *)
let decode_wire ~outer = function
  | Label.Pair (Label.Int sum, body) when sum = checksum body -> begin
      match body with
      | Label.Pair (Label.Int ack, Label.List items)
        when ack >= 0 && ack <= outer -> begin
          try
            Some
              ( ack,
                List.map
                  (function
                    | Label.Pair (Label.Int r, p) when r >= 1 && r <= outer ->
                      r, decode_payload p
                    | _ -> raise Reject)
                  items )
          with Reject -> None
        end
      | _ -> None
    end
  | _ -> None

type port_state = {
  pending : (int * Label.t option) list;
      (* unacknowledged data, ascending inner round *)
  got : Label.t option IntMap.t;  (* received data by inner round *)
  recv_upto : int;  (* gap-free prefix received — the cumulative ack we send *)
}

let fresh_port = { pending = []; got = IntMap.empty; recv_upto = 0 }

let wrap ?(obs = Obs.null) (module A : Algorithm.S) : Algorithm.t =
  (* Handles resolved once at wrap time and shared by every node of the
     wrapped run — counting only, never part of the protocol. *)
  let resent_c = Obs.counter obs "retransmit.resent" in
  let rejected_c = Obs.counter obs "retransmit.rejected" in
  let window_h = Obs.histogram obs "retransmit.window" in
  (module struct
    type state = {
      degree : int;
      inner : A.state;
      inner_round : int;  (* inner rounds executed so far *)
      outer_round : int;  (* outer rounds executed so far *)
      ports : port_state array;  (* treated as immutable: copied on update *)
    }

    let name = Printf.sprintf "retransmit(%s)" A.name

    let init ~input ~degree =
      {
        degree;
        inner = A.init ~input ~degree;
        inner_round = 0;
        outer_round = 0;
        ports = Array.init degree (fun _ -> fresh_port);
      }

    let output s = A.output s.inner

    let flat = None

    (* Rejected (corrupted or implausible) frames leave the port state
       untouched: the peer resends its window every round, so the next
       intact copy carries everything this one did. *)
    let absorb ~outer port_state msg =
      match decode_wire ~outer msg with
      | None ->
        Obs.incr rejected_c;
        port_state
      | Some (ack, items) ->
        let pending =
          List.filter (fun (r, _) -> r > ack) port_state.pending
        in
        let got =
          List.fold_left
            (fun got (r, payload) ->
              if r > port_state.recv_upto && not (IntMap.mem r got) then
                IntMap.add r payload got
              else got)
            port_state.got items
        in
        let rec catch_up upto = if IntMap.mem (upto + 1) got then catch_up (upto + 1) else upto in
        { pending; got; recv_upto = catch_up port_state.recv_upto }

    let round s ~bit ~inbox =
      let s = { s with outer_round = s.outer_round + 1 } in
      (* 1. Absorb this outer round's wire traffic. *)
      let ports =
        Array.mapi
          (fun p ps ->
            match inbox.(p) with
            | None -> ps
            | Some m -> absorb ~outer:s.outer_round ps m)
          s.ports
      in
      (* 2. Execute at most one inner round, when its inbox is complete:
         round 1 needs nothing; round r+1 needs round-r data on every
         port.  One inner round per outer round keeps the inner algorithm
         on fresh tape bits. *)
      let can_execute =
        (* Nodes keep running their inner rounds after producing their own
           output, exactly like the plain executor: neighbors may still
           need their messages to decide. *)
        s.inner_round = 0
        || Array.for_all (fun ps -> ps.recv_upto >= s.inner_round) ports
      in
      let s, executed_now =
        if not can_execute then { s with ports }, false
        else begin
          let inner_inbox =
            if s.inner_round = 0 then Array.make s.degree None
            else Array.map (fun ps -> IntMap.find s.inner_round ps.got) ports
          in
          let inner, sends = A.round s.inner ~bit ~inbox:inner_inbox in
          if Array.length sends <> s.degree then
            invalid_arg "retransmit: inner algorithm sent on wrong port count";
          let executed = s.inner_round + 1 in
          let ports =
            Array.mapi
              (fun p ps ->
                {
                  ps with
                  pending = ps.pending @ [ executed, sends.(p) ];
                  (* data at or below the consumed round is never read again *)
                  got = IntMap.filter (fun r _ -> r > s.inner_round) ps.got;
                })
              ports
          in
          { s with inner; inner_round = executed; ports }, true
        end
      in
      (* A port's window beyond this round's freshly appended entry (one per
         port iff the inner round executed) is being sent again. *)
      (match resent_c with
       | None -> ()
       | Some c ->
         let total =
           Array.fold_left (fun acc ps -> acc + List.length ps.pending) 0 s.ports
         in
         let fresh = if executed_now then s.degree else 0 in
         if total > fresh then Anonet_obs.Metrics.incr ~by:(total - fresh) c;
         Array.iter
           (fun ps -> Obs.observe window_h (List.length ps.pending))
           s.ports);
      (* 3. Send the window + cumulative ack on every port, every round. *)
      let wire ps =
        let body =
          Label.Pair
            ( Label.Int ps.recv_upto,
              Label.List
                (List.map
                   (fun (r, payload) ->
                     Label.Pair (Label.Int r, encode_payload payload))
                   ps.pending) )
        in
        Some (Label.Pair (Label.Int (checksum body), body))
      in
      s, Array.map wire s.ports
  end)
