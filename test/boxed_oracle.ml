(* A persistent, hook-free boxed stepper: the algorithm's own [round] on
   OCaml values, the reference the flat companions are checked against.

   Every step builds a fresh execution and never mutates its argument, so
   executions can be branched like the search's flat states.  No faults,
   adversaries or scrambles: the semantics is the fault-free synchronous
   model of Section 1.1, the one the minimal-simulation search runs. *)

open Anonet_graph
module Algorithm = Anonet_runtime.Algorithm

(* [algo] without its flat companion: the driver steps its own [round]
   on the boxed machine. *)
let twin (algo : Algorithm.t) : Algorithm.t =
  let module A = (val algo) in
  (module struct
    include A

    let flat = None
  end)

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

(* The children of [e] in the order the search steps them: one per vector
   that is 0 on the free nodes (the bits of [free], node [v] weighing
   [2^(n-1-v)]) that are insensitive when [pruning] holds, and that
   carries the bits of [fixed] on the other nodes, in increasing order
   (node 0 most significant). *)
let branch (type s) (m : (module Algorithm.S with type state = s)) g (e : s exec)
    ~free ~fixed ~pruning f =
  let n = Graph.n g in
  let mask = ref 0 in
  for v = 0 to n - 1 do
    let weight = 1 lsl (n - 1 - v) in
    if free land weight <> 0 && ((not pruning) || sensitive m e v) then
      mask := !mask lor weight
  done;
  for code = 0 to (1 lsl n) - 1 do
    if code land lnot !mask = fixed then begin
      let bits = Bitvec.create n in
      for v = 0 to n - 1 do
        Bitvec.set bits v ((code lsr (n - 1 - v)) land 1 = 1)
      done;
      f bits (step m g e ~bits)
    end
  done

(* Raised by a level's first success: the children after it in stepping
   order have round-major greater prefixes, so no completion of them can
   win. *)
exception Cut

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
   (the root included); the search stops at the first all-output child,
   its answer.  [states_explored] counts every child stepped, duplicates
   included. *)
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
          branch m g e ~free:((1 lsl n) - 1) ~fixed:0 ~pruning:true (fun bits child ->
              incr explored;
              if not (H.mem seen child) then begin
                H.add seen child ();
                if not (H.mem ever child) then begin
                  H.add ever child ();
                  let rev_rounds = bits :: rev_rounds in
                  if all_output m child then begin
                    found := Some (rev_rounds, child, r);
                    raise Cut
                  end;
                  next := (rev_rounds, child) :: !next
                end
              end))
        frontier;
      level (r + 1) (List.rev !next)
    end
  in
  if not (all_output m root) then (try level 1 [ [], root ] with Cut -> ());
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

(* The [Exactly len] counterpart for every [len] up to [max_len], by the
   round-major breadth-first search [Min_search.Resumable] runs for
   [Exactly] targets, rebuilt on boxed states with no memo at all: no
   state table outlives its level, and every level re-steps every entry.
   Round [r] prescribes node [v]'s base bit where [base.(v)] has one and
   leaves the other nodes free; an entry branches on the vectors that
   carry the prescribed bits and are 0 on every free node that is
   insensitive (with [pruning]), in increasing order (node 0 most
   significant); a child is dropped if its state occurred earlier in this
   level; an all-output child is recorded as a success, not expanded, and
   ends its level: the children stepped after it have greater prefixes.
   Every level runs, whatever it finds.  The answer for [len] is the
   round-major minimum over the successes of levels [<= len], each
   completed to [len] bits by the base, then zeros.

   Element [len - 1] of the result is [(explored, found)]: the children
   stepped over levels [1..len], duplicates included, and that answer
   ([found.states_explored = explored]).  The exploration of a level does
   not depend on the target, so one run answers every target. *)
let search_exactly (type s) (module A : Algorithm.S with type state = s) g ~base
    ~pruning ~max_len =
  let m = (module A : Algorithm.S with type state = s) in
  let module H = Hashtbl.Make (struct
    type t = s exec

    let equal = ( = )
    let hash e = Hashtbl.hash_param 50 200 e
  end) in
  let n = Graph.n g in
  let max_base = Array.fold_left (fun acc b -> max acc (Bits.length b)) 0 base in
  let complete rev_rounds level len =
    let rounds = Array.of_list (List.rev rev_rounds) in
    Array.init n (fun v ->
        Bits.of_list
          (List.init len (fun i ->
               if i < level then Bitvec.get rounds.(i) v
               else i < Bits.length base.(v) && Bits.get base.(v) i)))
  in
  let best = ref None in
  let record rev_rounds level e =
    match !best with
    | Some (rev_best, level_best, _) ->
      let len = max max_base (max level level_best) in
      if
        Search_oracle.compare_round_major (complete rev_rounds level len)
          (complete rev_best level_best len)
        < 0
      then best := Some (rev_rounds, level, outputs m e)
    | None -> best := Some (rev_rounds, level, outputs m e)
  in
  let explored = ref 0 in
  let answer len =
    ( !explored,
      Option.map
        (fun (rev_rounds, level, outputs) ->
          { assignment = complete rev_rounds level len; outputs; rounds = level;
            states_explored = !explored })
        !best )
  in
  let root = start m g in
  let frontier = ref [] in
  if all_output m root then record [] 0 root else frontier := [ [], root ];
  Array.init max_len (fun i ->
      let r = i + 1 in
      let seen = H.create 256 and next = ref [] in
      (* The prescribed bits of round [r] as a code, and the nodes free
         in it. *)
      let fixed = ref 0 and free = ref 0 in
      for v = 0 to n - 1 do
        let weight = 1 lsl (n - 1 - v) in
        if Bits.length base.(v) >= r then begin
          if Bits.get base.(v) (r - 1) then fixed := !fixed lor weight
        end
        else free := !free lor weight
      done;
      (try
         List.iter
           (fun (rev_rounds, e) ->
             branch m g e ~free:!free ~fixed:!fixed ~pruning (fun bits child ->
                 incr explored;
                 if not (H.mem seen child) then begin
                   H.add seen child ();
                   let rev_rounds = bits :: rev_rounds in
                   if all_output m child then begin
                     record rev_rounds r child;
                     raise Cut
                   end;
                   next := (rev_rounds, child) :: !next
                 end))
           !frontier
       with Cut -> ());
      frontier := List.rev !next;
      answer r)
