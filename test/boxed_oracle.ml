(* A persistent, hook-free boxed stepper: the algorithm's own [round] on
   OCaml values, the reference the flat companions are checked against.

   Every step builds a fresh execution and never mutates its argument, so
   executions can be branched like the search's flat states.  No faults,
   adversaries or scrambles: the semantics is the fault-free synchronous
   model of Section 1.1, the one the minimal-simulation search runs. *)

open Anonet_graph
module Algorithm = Anonet_runtime.Algorithm

(* [inboxes.(v).(p)] is the message node [v] reads on port [p] in the
   next round.  Two executions of one algorithm on one graph are the same
   execution state iff they are structurally equal ([=]). *)
type 's exec = {
  states : 's array;
  inboxes : Label.t option array array;
}

let start (type s) (module A : Algorithm.S with type state = s) g : s exec =
  {
    states =
      Array.init (Graph.n g) (fun v ->
          A.init ~input:(Graph.label g v) ~degree:(Graph.degree g v));
    inboxes = Array.init (Graph.n g) (fun v -> Array.make (Graph.degree g v) None);
  }

(* One round; bit [v] of [bits] is node [v]'s random bit. *)
let step (type s) (module A : Algorithm.S with type state = s) g (e : s exec) ~bits
    : s exec =
  let inboxes = Array.init (Graph.n g) (fun v -> Array.make (Graph.degree g v) None) in
  let states =
    Array.mapi
      (fun v s ->
        let s', sends = A.round s ~bit:(Bitvec.get bits v) ~inbox:e.inboxes.(v) in
        Array.iteri
          (fun p msg ->
            let u = Graph.neighbor g v p in
            inboxes.(u).(Graph.port_to g u v) <- msg)
          sends;
        s')
      e.states
  in
  { states; inboxes }

let outputs (type s) (module A : Algorithm.S with type state = s) (e : s exec) =
  Array.map A.output e.states

let all_output m e = Array.for_all Option.is_some (outputs m e)

(* Exact node-local sensitivity: node [v]'s bit matters this round iff the
   two bit values give it a different successor state or different
   messages.  No other node's transition reads [v]'s bit in this round. *)
let sensitive (type s) (module A : Algorithm.S with type state = s) (e : s exec) v =
  let s = e.states.(v) and inbox = e.inboxes.(v) in
  A.round s ~bit:false ~inbox <> A.round s ~bit:true ~inbox

type found = {
  assignment : Bits.t array;
  outputs : Label.t option array;
  rounds : int;
  states_explored : int;
}

(* The minimal successful simulation of length at most [max_len] from the
   empty base, by the round-major breadth-first search [Min_search] runs,
   rebuilt on boxed states: a frontier in lexicographic prefix order;
   each entry branched on the vectors that are 0 on its insensitive
   nodes, in increasing order (node 0 most significant); a child dropped
   if its state occurred earlier in this level or at any earlier level
   (the root included); an all-output child recorded as a success and not
   expanded; the search stops at the first level holding a success.
   [states_explored] counts every child stepped, duplicates included. *)
let search (type s) (module A : Algorithm.S with type state = s) g ~max_len =
  let m = (module A : Algorithm.S with type state = s) in
  let module H = Hashtbl.Make (struct
    type t = s exec

    let equal = ( = )
    let hash e = Hashtbl.hash_param 50 200 e
  end) in
  let n = Graph.n g in
  let root = start m g in
  let ever = H.create 256 in
  H.add ever root ();
  let explored = ref 0 and found = ref None in
  let rec level r frontier =
    if r <= max_len && frontier <> [] then begin
      let seen = H.create 256 and next = ref [] in
      List.iter
        (fun (rev_rounds, e) ->
          let mask = ref 0 in
          for v = 0 to n - 1 do
            if sensitive m e v then mask := !mask lor (1 lsl (n - 1 - v))
          done;
          for code = 0 to (1 lsl n) - 1 do
            if code land lnot !mask = 0 then begin
              incr explored;
              let bits = Bitvec.create n in
              for v = 0 to n - 1 do
                Bitvec.set bits v ((code lsr (n - 1 - v)) land 1 = 1)
              done;
              let child = step m g e ~bits in
              if not (H.mem seen child) then begin
                H.add seen child ();
                if not (H.mem ever child) then begin
                  H.add ever child ();
                  let rev_rounds = bits :: rev_rounds in
                  if all_output m child then begin
                    if Option.is_none !found then found := Some (rev_rounds, child, r)
                  end
                  else next := (rev_rounds, child) :: !next
                end
              end
            end
          done)
        frontier;
      if Option.is_none !found then level (r + 1) (List.rev !next)
    end
  in
  if not (all_output m root) then level 1 [ [], root ];
  match !found with
  | None when all_output m root ->
    Some
      { assignment = Array.make n Bits.empty; outputs = outputs m root; rounds = 0;
        states_explored = 0 }
  | None -> None
  | Some (rev_rounds, e, r) ->
    let rounds = Array.of_list (List.rev rev_rounds) in
    Some
      {
        assignment =
          Array.init n (fun v -> Bits.of_list (List.init r (fun i -> Bitvec.get rounds.(i) v)));
        outputs = outputs m e;
        rounds = r;
        states_explored = !explored;
      }
