module Label = Anonet_graph.Label
module Algorithm = Anonet_runtime.Algorithm

let name = "rand-mis"

type status =
  | Undecided
  | In_mis
  | Out_mis

type state = {
  degree : int;
  status : status;
  my_coin : bool option;  (* the coin broadcast in the previous round *)
  out : Label.t option;
}

let init ~input:_ ~degree = { degree; status = Undecided; my_coin = None; out = None }

let output s = s.out

let encode_status = function
  | Undecided -> "u"
  | In_mis -> "in"
  | Out_mis -> "out"

let msg status coin = Label.Pair (Label.Str (encode_status status), Label.Bool coin)

let decode = function
  | Label.Pair (Label.Str s, Label.Bool coin) -> s, coin
  | _ -> invalid_arg "rand-mis: malformed message"

let round s ~bit ~inbox =
  (* Round 1 has an empty inbox; from round 2 on every port carries a
     status message. *)
  let received = List.filter_map (Option.map decode) (Array.to_list inbox) in
  let s =
    match s.status with
    | In_mis | Out_mis -> s
    | Undecided ->
      let neighbor_joined = List.exists (fun (st, _) -> st = "in") received in
      if neighbor_joined then
        { s with status = Out_mis; out = Some (Label.Bool false) }
      else begin
        let undecided_heads =
          List.exists (fun (st, coin) -> st = "u" && coin) received
        in
        match s.my_coin with
        | Some true when (not undecided_heads) && List.length received = s.degree ->
          { s with status = In_mis; out = Some (Label.Bool true) }
        | _ -> s
      end
  in
  (* Broadcast the (possibly new) status.  A decided node's coin is dead
     state — receivers ignore the coin on non-"u" messages and the node
     never reads its own coin after deciding — so it is canonicalized
     away: once decided, the successor state and outgoing messages no
     longer depend on the tape, which both collapses duplicate states in
     the search dedup tables and lets the core-guided pruner certify the
     node's bit as insensitive. *)
  match s.status with
  | Undecided ->
    let s = { s with my_coin = Some bit } in
    s, Algorithm.broadcast ~degree:s.degree (msg s.status bit)
  | In_mis | Out_mis ->
    let s = { s with my_coin = None } in
    s, Algorithm.broadcast ~degree:s.degree (msg s.status false)

(* Flat companion: one word per node, one word per message slot.

   State word: bits 0-1 = status (0 undecided / 1 in / 2 out), bits 2-3 =
   my_coin (0 none / 1 Some false / 2 Some true; always 0 once decided —
   the boxed round canonicalizes the dead coin to [None] the same way).
   [degree] is constant and [out] is determined by [status], so the word
   is an injective encoding of the boxed state — the flat dedup key
   distinguishes exactly the structurally different boxed states.

   Message word: [1 + (status lsl 1 lor coin)] (so nonzero; a zero slot
   means no message, which never happens here — every node broadcasts
   every round). *)
let flat_out_true = Some (Label.Bool true)
let flat_out_false = Some (Label.Bool false)

let flat_instance : Algorithm.Flat.instance =
  {
    state_words = 1;
    msg_words = 1;
    ported = false;
    init = (fun ~node:_ ~input:_ ~degree:_ ~state:_ ~off:_ -> ());
    (* all-zero span = Undecided, no coin yet *)
    round =
      (fun ~node:_ ~bit ~degree ~state ~off ~inbox ~ports ~pslot ~send ~soff ->
        let w = Array.unsafe_get state off in
        let status = w land 3 and coin = (w lsr 2) land 3 in
        let status =
          if status <> 0 then status
          else begin
            let received = ref 0 in
            let neighbor_joined = ref false in
            let undecided_heads = ref false in
            for p = 0 to degree - 1 do
              let m = Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p)) in
              if m <> 0 then begin
                incr received;
                let m = m - 1 in
                let mstatus = m lsr 1 in
                if mstatus = 1 then neighbor_joined := true
                else if mstatus = 0 && m land 1 = 1 then undecided_heads := true
              end
            done;
            if !neighbor_joined then 2
            else if coin = 2 && (not !undecided_heads) && !received = degree
            then 1
            else 0
          end
        in
        (* Decided nodes canonicalize their dead coin to "none" and
           broadcast coin=false, mirroring the boxed round exactly. *)
        let coin_bits = if status <> 0 then 0 else if bit then 2 else 1 in
        let sent_coin = if status = 0 && bit then 1 else 0 in
        Array.unsafe_set state off (status lor (coin_bits lsl 2));
        Array.unsafe_set send soff (1 + ((status lsl 1) lor sent_coin));
        true);
    output =
      (fun ~state ~off ->
        match Array.unsafe_get state off land 3 with
        | 1 -> flat_out_true
        | 2 -> flat_out_false
        | _ -> None);
    has_output = (fun ~state ~off -> Array.unsafe_get state off land 3 <> 0);
  }

let algorithm : Algorithm.t =
  (module struct
    type nonrec state = state

    let name = name

    let init = init

    let round = round

    let output = output

    let flat = Some { Algorithm.Flat.plan = (fun _g -> flat_instance) }
  end)
