module Label = Anonet_graph.Label
module Bits = Anonet_graph.Bits
module Algorithm = Anonet_runtime.Algorithm

let name = "rand-coloring"

type step =
  | Announce
  | Decide

type state = {
  degree : int;
  cand : Bits.t;
  final : bool;
  out : Label.t option;
  step : step;
}

let init ~input:_ ~degree =
  { degree; cand = Bits.empty; final = false; out = None; step = Announce }

let output s = s.out

let decode = function
  | Some (Label.Bits b) -> b
  | _ -> invalid_arg "rand-coloring: malformed announce"

let round s ~bit ~inbox =
  match s.step with
  | Announce ->
    { s with step = Decide }, Algorithm.broadcast ~degree:s.degree (Label.Bits s.cand)
  | Decide ->
    let heard = Array.map decode inbox in
    let s =
      if s.final then s
      else if Array.exists (Bits.equal s.cand) heard then
        { s with cand = Bits.append s.cand bit }
      else { s with final = true; out = Some (Label.Bits s.cand) }
    in
    { s with step = Announce }, Algorithm.silence ~degree:s.degree

(* Flat companion: two words per node, one word per message slot.

   State span: word 0 = step (bit 0: 0 Announce, 1 Decide) lor final
   flag (bit 1); word 1 = the candidate's [Bits.to_code].  [degree] is
   constant and [out] is determined by [final] and the candidate, so the
   span is an injective encoding of the boxed state.  Message word: the
   announced candidate's code (never 0, the empty candidate is code 1);
   Decide rounds are silent on both paths. *)
let flat_instance : Algorithm.Flat.instance =
  {
    state_words = 2;
    msg_words = 1;
    ported = false;
    init =
      (fun ~node:_ ~input:_ ~degree:_ ~state ~off ->
        Array.unsafe_set state (off + 1) (Bits.to_code Bits.empty));
    round =
      (fun ~node:_ ~bit ~degree ~state ~off ~inbox ~ports ~pslot ~send ~soff ->
        let w0 = Array.unsafe_get state off in
        let cand = Array.unsafe_get state (off + 1) in
        if w0 land 1 = 0 then begin
          (* Announce: broadcast the candidate code. *)
          Array.unsafe_set state off (w0 lor 1);
          Array.unsafe_set send soff cand;
          true
        end
        else begin
          (* Decide: keep the candidate, extend it on a conflict, or
             finalize; then return to Announce silently. *)
          let final =
            w0 land 2 <> 0
            ||
            let conflict = ref false in
            for p = 0 to degree - 1 do
              if Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p)) = cand then
                conflict := true
            done;
            if !conflict then
              Array.unsafe_set state (off + 1) (Bits.append_code cand bit);
            not !conflict
          in
          Array.unsafe_set state off (if final then 2 else 0);
          false
        end);
    output =
      (fun ~state ~off ->
        if Array.unsafe_get state off land 2 <> 0 then
          Some (Label.Bits (Bits.of_code (Array.unsafe_get state (off + 1))))
        else None);
    has_output = (fun ~state ~off -> Array.unsafe_get state off land 2 <> 0);
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
