module Label = Anonet_graph.Label
module Bits = Anonet_graph.Bits
module Algorithm = Anonet_runtime.Algorithm

let name = "rand-2hop-coloring"

(* Phase structure (3 rounds per phase):
     Announce: send own candidate on all ports.
     Relay:    receive announcements; send their sorted multiset.
     Decide:   receive relays; detect conflicts; append the random bit or
               finalize.
   The [step] field names the sub-round the node is about to perform. *)

type step =
  | Announce
  | Relay
  | Decide

type state = {
  degree : int;
  cand : Bits.t;
  final : bool;
  out : Label.t option;
  step : step;
  heard : Bits.t array;  (* candidates announced by neighbors, port-indexed *)
}

let init ~input:_ ~degree =
  { degree; cand = Bits.empty; final = false; out = None; step = Announce; heard = [||] }

let output s = s.out

let announce_msg cand = Label.Bits cand

let relay_msg heard =
  Label.List (List.sort Label.compare (List.map (fun b -> Label.Bits b) (Array.to_list heard)))

let decode_announce = function
  | Some (Label.Bits b) -> b
  | _ -> invalid_arg "rand-2hop: malformed announce"

let decode_relay = function
  | Some (Label.List xs) -> List.map Label.to_bits xs
  | _ -> invalid_arg "rand-2hop: malformed relay"

(* Conflict: some neighbor announced my candidate, or my candidate occurs
   at least twice in some neighbor's relayed multiset (once for me, once
   for a distinct node within two hops). *)
let in_conflict cand heard relays =
  Array.exists (Bits.equal cand) heard
  || List.exists
       (fun multiset ->
         List.length (List.filter (Bits.equal cand) multiset) >= 2)
       relays

let round s ~bit ~inbox =
  match s.step with
  | Announce ->
    { s with step = Relay }, Algorithm.broadcast ~degree:s.degree (announce_msg s.cand)
  | Relay ->
    let heard = Array.map decode_announce inbox in
    { s with step = Decide; heard }, Algorithm.broadcast ~degree:s.degree (relay_msg heard)
  | Decide ->
    let relays = Array.to_list (Array.map decode_relay inbox) in
    let s =
      if s.final then s
      else if in_conflict s.cand s.heard relays then
        { s with cand = Bits.append s.cand bit }
      else { s with final = true; out = Some (Label.Bits s.cand) }
    in
    { s with step = Announce; heard = [||] }, Algorithm.silence ~degree:s.degree

(* Flat companion.

   A candidate bitstring packs into one word as its [Bits.to_code],
   whose numeric order coincides with [Bits.compare] (length-major, then
   lexicographic) — so sorting relay words numerically reproduces the
   boxed sorted multiset exactly.  The empty candidate is code 1; code 0
   doubles as "no message" in inbox slots and "no announcement stored"
   in the heard words.

   State span (2 + max-degree words): word 0 = step (bits 0-1) lor
   final flag (bit 2); word 1 = candidate code; words 2.. = heard
   announcement codes, port-indexed, zeroed outside the Relay->Decide
   window — mirroring the boxed [heard = [||]] so the two
   representations deduplicate identically.  Message span (1 +
   max-degree words): an announce is [cand-code, 0...]; a relay is
   [count, sorted codes..., 0...].  Receivers know which to expect from
   their own step; Decide rounds are silent on both paths. *)

let empty_code = Bits.to_code Bits.empty

let flat_plan g =
  let maxdeg = Anonet_graph.Graph.max_degree g in
  let sw = 2 + maxdeg in
  let mw = 1 + maxdeg in
  {
    Algorithm.Flat.state_words = sw;
    msg_words = mw;
    ported = false;
    init =
      (fun ~node:_ ~input:_ ~degree:_ ~state ~off ->
        Array.unsafe_set state (off + 1) empty_code);
    round =
      (fun ~node:_ ~bit ~degree ~state ~off ~inbox ~ports ~pslot ~send ~soff ->
        let w0 = Array.unsafe_get state off in
        match w0 land 3 with
        | 0 ->
          (* Announce: broadcast the candidate code. *)
          Array.unsafe_set state off (w0 lor 1);
          Array.unsafe_set send soff (Array.unsafe_get state (off + 1));
          for k = 1 to mw - 1 do
            Array.unsafe_set send (soff + k) 0
          done;
          true
        | 1 ->
          (* Relay: store announcements, broadcast their sorted multiset. *)
          for p = 0 to degree - 1 do
            Array.unsafe_set state (off + 2 + p)
              (Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p)))
          done;
          Array.unsafe_set state off ((w0 land lnot 3) lor 2);
          Array.unsafe_set send soff degree;
          for p = 0 to degree - 1 do
            (* insertion sort as we copy: degree is tiny *)
            let c = Array.unsafe_get state (off + 2 + p) in
            let j = ref (soff + 1 + p) in
            while
              !j > soff + 1 && Array.unsafe_get send (!j - 1) > c
            do
              Array.unsafe_set send !j (Array.unsafe_get send (!j - 1));
              decr j
            done;
            Array.unsafe_set send !j c
          done;
          for k = degree + 1 to mw - 1 do
            Array.unsafe_set send (soff + k) 0
          done;
          true
        | _ ->
          (* Decide: detect conflicts, then return to Announce silently. *)
          let final = w0 land 4 <> 0 in
          let final =
            if final then true
            else begin
              let cand = Array.unsafe_get state (off + 1) in
              let conflict = ref false in
              for p = 0 to degree - 1 do
                if Array.unsafe_get state (off + 2 + p) = cand then
                  conflict := true
              done;
              for p = 0 to degree - 1 do
                let base = Array.unsafe_get ports (pslot + p) in
                let cnt = Array.unsafe_get inbox base in
                let occ = ref 0 in
                for j = 1 to cnt do
                  if Array.unsafe_get inbox (base + j) = cand then incr occ
                done;
                if !occ >= 2 then conflict := true
              done;
              if !conflict then begin
                Array.unsafe_set state (off + 1) (Bits.append_code cand bit);
                false
              end
              else true
            end
          in
          for p = 0 to degree - 1 do
            Array.unsafe_set state (off + 2 + p) 0
          done;
          Array.unsafe_set state off (if final then 4 else 0);
          false);
    output =
      (fun ~state ~off ->
        if Array.unsafe_get state off land 4 <> 0 then
          Some (Label.Bits (Bits.of_code (Array.unsafe_get state (off + 1))))
        else None);
    has_output = (fun ~state ~off -> Array.unsafe_get state off land 4 <> 0);
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
