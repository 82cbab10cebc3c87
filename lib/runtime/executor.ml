module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Bitvec = Anonet_graph.Bitvec
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events

type failure =
  | Max_rounds_exceeded of int
  | Tape_exhausted of { round : int }
  | All_nodes_crashed of { round : int }

let pp_failure fmt = function
  | Max_rounds_exceeded r -> Format.fprintf fmt "no output after %d rounds" r
  | Tape_exhausted { round } -> Format.fprintf fmt "tape exhausted at round %d" round
  | All_nodes_crashed { round } ->
    Format.fprintf fmt "every node crash-stopped by round %d" round

type outcome = {
  outputs : Label.t array;
  rounds : int;
  messages : int;
}

(* Branchless whole-array compare: the dedup tables call this almost
   exclusively on arrays whose 62-bit hashes already matched, i.e. on
   genuine duplicates, where an early-exit loop pays its per-word branch
   on every word and never exits early.  OR-accumulating the XOR of each
   word pair pipelines at ~1 word/cycle instead. *)
let int_array_equal a b =
  let la = Array.length a in
  la = Array.length b
  &&
  let acc = ref 0 in
  for i = 0 to la - 1 do
    acc := !acc lor (Array.unsafe_get a i lxor Array.unsafe_get b i)
  done;
  !acc = 0

(* Two independent accumulator lanes halve the serial multiply-chain
   latency that dominates a one-lane [h*31+x] fold; the lanes are combined
   at the end, and a multiply-xorshift mix spreads the fold's weak low
   bits, which index the search's linear-probing intern table.  Only dedup-key quality depends on this function — the
   values never leave the process — so the formula is free to change. *)
let hash_int_array seed a =
  let n = Array.length a in
  let h1 = ref seed and h2 = ref (seed lxor 0x9e3779b9) in
  let i = ref 0 in
  while !i + 1 < n do
    h1 := (!h1 * 31) + Array.unsafe_get a !i;
    h2 := (!h2 * 31) + Array.unsafe_get a (!i + 1);
    i := !i + 2
  done;
  if !i < n then h1 := (!h1 * 31) + Array.unsafe_get a !i;
  let h = (!h1 * 31) + !h2 in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* Injection hooks, instantiated once when an execution starts: a fault
   injector and an adversary are stateful, so each execution owns its own
   and no step can swap them. *)
type hooks = {
  scramble : (node:int -> degree:int -> round:int -> int array) option;
  faults : Faults.t option;
  adversary : Adversary.t option;
}

let no_hooks = { scramble = None; faults = None; adversary = None }

let hooks ctx =
  {
    scramble = Run_ctx.scramble ctx;
    faults = Run_ctx.injector ctx;
    adversary = Run_ctx.adversary_instance ctx;
  }

(* ---------- flat arenas ---------- *)

(* Graph-shaped immutable geometry shared by every flat state of one
   execution.  [slot_off.(v)] is the first directed-edge slot of node [v]
   (its port [p] is slot [slot_off.(v) + p]); [twin.(s)] is the send span
   that feeds slot [s]: the sending neighbor's own span for a broadcast
   instance, the sender's slot on the edge back for a ported one. *)
type layout = {
  n : int;
  degrees : int array;
  state_words : int;
  msg_words : int;
  total_slots : int;
  slot_off : int array;
  twin : int array;
  inst : Algorithm.Flat.instance;
}

let send_len lay = (if lay.inst.ported then lay.total_slots else lay.n) * lay.msg_words

(* The flat layout of [algo] on [g] under [flat], or under its registered
   companion; [None] when it has neither. *)
let flat_layout ?flat algo g =
  match if Option.is_some flat then flat else Algorithm.find_flat algo with
  | None -> None
  | Some flat ->
    let inst = flat.Algorithm.Flat.plan g in
    let n = Graph.n g in
    (* The graph already stores its adjacency as exactly this CSR shape:
       [Graph.offsets] is the slot-offset array and [Graph.adjacency] the
       per-slot source node.  Alias both — the layout never mutates them —
       so building a broadcast layout is O(n). *)
    let slot_off = Graph.offsets g and src = Graph.adjacency g in
    Some
      {
        n;
        degrees = Array.init n (fun v -> slot_off.(v + 1) - slot_off.(v));
        state_words = inst.state_words;
        msg_words = inst.msg_words;
        total_slots = slot_off.(n);
        slot_off;
        twin = (if inst.ported then Graph.reverse_slots g else src);
        inst;
      }

let count_outputs lay states =
  let out = ref 0 in
  for v = 0 to lay.n - 1 do
    if lay.inst.has_output ~state:states ~off:(v * lay.state_words) then incr out
  done;
  !out

let init_flat_states lay g states =
  for v = 0 to lay.n - 1 do
    lay.inst.init ~node:v ~input:(Graph.label g v) ~degree:lay.degrees.(v)
      ~state:states ~off:(v * lay.state_words)
  done

(* The one flat node loop, shared by the driver's in-place run and
   [Incremental]'s probe: run every node's transition on its span of
   [state], reading its arrivals from [inbox] through the port table
   [ports] and writing its sends into [send]; a silent node gets word 0
   of its span(s) zeroed, so the tails keep whatever they held.  [bits]
   holds each node's bit this round; it is a packed vector, not a
   closure, so the loop pays no indirect call per node.  Returns the
   nodes with output after the round and the messages sent in it. *)
let flat_nodes lay ~(bits : Bitvec.t) ~state ~inbox ~ports ~send =
  let inst = lay.inst in
  let sw = lay.state_words and mw = lay.msg_words in
  let out = ref 0 and messages = ref 0 in
  for v = 0 to lay.n - 1 do
    let pslot = Array.unsafe_get lay.slot_off v in
    let degree = Array.unsafe_get lay.degrees v in
    let soff = (if inst.ported then pslot else v) * mw in
    if
      inst.round ~node:v ~bit:(Bitvec.unsafe_get bits v) ~degree ~state ~off:(v * sw)
        ~inbox ~ports ~pslot ~send ~soff
    then messages := !messages + degree
    else if inst.ported then
      for p = 0 to degree - 1 do
        Array.unsafe_set send (soff + (p * mw)) 0
      done
    else Array.unsafe_set send soff 0;
    if inst.has_output ~state ~off:(v * sw) then incr out
  done;
  !out, !messages

module Incremental = struct
  (* A persistent execution: one int arena holds the whole network — node
     states first ([state_words] ints per node), then the inbox
     ([msg_words] ints per directed-edge slot, all 0 when empty).  The
     arena is immutable once the state is built, so a state may be
     retained and branched from; a committed step allocates exactly one
     array, and the arena itself is the dedup key.  [mat.(s)] is where
     slot [s]'s span starts in the arena, the port table its readers
     use. *)
  type t = {
    lay : layout;
    mat : int array;
    arena : int array;
    out : int;  (* nodes with output (irrevocable, so a plain count) *)
    hash : int;  (* of [arena]: the state is its own dedup key *)
  }

  let state_size lay = lay.n * lay.state_words

  let arena_size lay = state_size lay + (lay.total_slots * lay.msg_words)

  let start algo g =
    match flat_layout algo g with
    | None ->
      let module A = (val algo : Algorithm.S) in
      invalid_arg
        (Printf.sprintf "Executor.Incremental.start: %s has no flat companion" A.name)
    | Some lay ->
      let arena = Array.make (arena_size lay) 0 in
      init_flat_states lay g arena;
      let ssize = state_size lay in
      let mat = Array.init lay.total_slots (fun s -> ssize + (s * lay.msg_words)) in
      {
        lay;
        mat;
        arena;
        out = count_outputs lay arena;
        hash = hash_int_array 17 arena;
      }

  (* Per-domain scratch: the send buffer lives only within one probe, the
     probe buffer only until the next probe, so one growable record per
     domain serves searches running concurrently on other domains (server
     workers, experiment rows) without locking. *)
  type scratch = {
    mutable ss_send : int array;
    mutable ss_probe : int array;  (* probe child arena, exact [arena_size] *)
    mutable ss_sense : int array;  (* two (state span, send span) micro-runs *)
  }

  let scratch_key =
    Domain.DLS.new_key (fun () ->
        { ss_send = [||]; ss_probe = [||]; ss_sense = [||] })

  let outputs t =
    Array.init t.lay.n (fun v ->
        t.lay.inst.output ~state:t.arena ~off:(v * t.lay.state_words))

  let all_output t = t.out = t.lay.n

  (* A state is its own dedup key: equality compares arenas, and the hash
     is computed once, when the state is built, so a membership check
     then an insertion walk the arena once, not three times. *)
  type key = t

  let dedup_key t = t

  module Key = struct
    type nonrec t = t

    let equal a b = a.hash = b.hash && int_array_equal a.arena b.arena

    let hash k = k.hash
  end

  (* Probe/commit stepping: the branch searches discard most children as
     duplicates, so stepping into a reusable per-domain buffer and only
     materializing a fresh arena when the caller's seen-set misses makes
     the common (duplicate) case allocation-free.  A probe is the child
     state over the per-domain buffer (exactly [arena_size] words), valid
     until the next [probe_vec] on the same domain; [probe_commit] copies
     the buffer into a stable state. *)
  type probe = t

  let probe_vec t ~bits =
    let lay = t.lay in
    if Bitvec.length bits <> lay.n then invalid_arg "Executor.probe_vec: wrong bits length";
    let s = Domain.DLS.get scratch_key in
    let slen = send_len lay in
    if Array.length s.ss_send < slen then s.ss_send <- Array.make slen 0;
    let ssize = state_size lay in
    let asize = arena_size lay in
    (* Key equality compares whole arrays, so the buffer must be the exact
       arena size; every word of it is overwritten below. *)
    if Array.length s.ss_probe <> asize then s.ss_probe <- Array.make asize 0;
    let buf = s.ss_probe in
    (* Manual word loop rather than [Array.blit]: arenas are a few dozen
       words, far below where memmove's call overhead pays for itself. *)
    let parent = t.arena in
    for i = 0 to ssize - 1 do
      Array.unsafe_set buf i (Array.unsafe_get parent i)
    done;
    let send = s.ss_send and mw = lay.msg_words in
    let out, _ = flat_nodes lay ~bits ~state:buf ~inbox:parent ~ports:t.mat ~send in
    (* Materialize the inbox: each slot gets the span that feeds it when
       that span carries a message (word 0 nonzero), zeros otherwise. *)
    for s = 0 to lay.total_slots - 1 do
      let src_off = Array.unsafe_get lay.twin s * mw and dst_off = ssize + (s * mw) in
      if Array.unsafe_get send src_off <> 0 then
        for k = 0 to mw - 1 do
          Array.unsafe_set buf (dst_off + k) (Array.unsafe_get send (src_off + k))
        done
      else
        for k = 0 to mw - 1 do
          Array.unsafe_set buf (dst_off + k) 0
        done
    done;
    { t with arena = buf; out; hash = hash_int_array 17 buf }

  let probe_key p = p

  let probe_commit p =
    let t = { p with arena = Array.copy p.arena } in
    t, t

  (* Per-node bit sensitivity: in one synchronous round a node's random
     bit can only influence that node's own successor state and the
     messages it emits — never another node's transition within the same
     round — so sensitivity factors per node.  Each node's transition is
     re-run with both bit values against the *same* parent state and the
     results compared word for word; the companion's encoding is
     injective, so the comparison is exact: a clear bit certifies that
     every setting of that node's bit yields the identical successor
     execution state, and a set bit that it does not. *)
  let bit_sensitivity t =
    let lay = t.lay in
    let inst = lay.inst in
    let sw = lay.state_words and mw = lay.msg_words in
    (* A node sends [degree] spans when ported, one otherwise. *)
    let span =
      sw + if inst.ported then Array.fold_left Int.max 0 lay.degrees * mw else mw
    in
    let scratch = Domain.DLS.get scratch_key in
    if Array.length scratch.ss_sense < 2 * span then
      scratch.ss_sense <- Array.make (2 * span) 0;
    let buf = scratch.ss_sense in
    let sens = Bitvec.create lay.n in
    for v = 0 to lay.n - 1 do
      let pslot = Array.unsafe_get lay.slot_off v in
      let degree = Array.unsafe_get lay.degrees v in
      let run ~bit off =
        for k = 0 to sw - 1 do
          Array.unsafe_set buf (off + k) (Array.unsafe_get t.arena ((v * sw) + k))
        done;
        inst.round ~node:v ~bit ~degree ~state:buf ~off ~inbox:t.arena ~ports:t.mat
          ~pslot ~send:buf ~soff:(off + sw)
      in
      let b0 = run ~bit:false 0 in
      let b1 = run ~bit:true span in
      let equal =
        b0 = b1
        &&
        let acc = ref 0 in
        (* Send words only count when the node sends: a silent node's
           send span is scratch garbage by contract. *)
        let words =
          if not b0 then sw else if inst.ported then sw + (degree * mw) else span
        in
        for k = 0 to words - 1 do
          acc := !acc lor (Array.unsafe_get buf k lxor Array.unsafe_get buf (span + k))
        done;
        !acc = 0
      in
      if not equal then Bitvec.set sens v true
    done;
    sens
end

(* ---------- the round driver ---------- *)

(* An execution in progress as the driver sees it: [advance] runs one
   round on the given bits and returns the messages delivered in it. *)
type machine = {
  advance : Bitvec.t -> int;
  all_output : unit -> bool;
  has_output : int -> bool;
  outputs : unit -> Label.t option array;
}

(* A run that never branches needs no persistence: the states arena is
   mutated in place, and receivers read last round's send buffer
   directly — [pull.(s)] is where slot [s]'s message starts in it — so
   two send buffers alternate and a round neither zeroes nor copies an
   inbox, and allocates nothing. *)
let in_place lay g =
  let n = lay.n and sw = lay.state_words and mw = lay.msg_words in
  let states = Array.make (n * sw) 0 in
  init_flat_states lay g states;
  let pull = if mw = 1 then lay.twin else Array.map (fun s -> s * mw) lay.twin in
  let prev = ref (Array.make (send_len lay) 0) in
  let cur = ref (Array.make (send_len lay) 0) in
  let out = ref (count_outputs lay states) in
  {
    advance =
      (fun bits ->
        let inbox = !prev and send = !cur in
        let o, messages = flat_nodes lay ~bits ~state:states ~inbox ~ports:pull ~send in
        prev := send;
        cur := inbox;
        out := o;
        messages);
    all_output = (fun () -> !out = n);
    has_output = (fun v -> lay.inst.has_output ~state:states ~off:(v * sw));
    outputs =
      (fun () -> Array.init n (fun v -> lay.inst.output ~state:states ~off:(v * sw)));
  }

(* The boxed machine runs the algorithm's own [round] on OCaml values, for
   runs with injection hooks (faults, adversaries and scrambles act on
   [Label.t] payloads) and for algorithms without a flat companion.  The
   driver never branches, so the states and outputs arrays are updated in
   place; each round's deliveries go into fresh inbox arrays, since an
   algorithm may keep the inbox it was handed. *)
let boxed { scramble; faults; adversary } (module A : Algorithm.S) g =
  let n = Graph.n g in
  (* Port [p] of [v] is slot [off.(v) + p]; it reaches [u], whose port
     [twin.(off.(v) + p) - off.(u)] comes back to [v]. *)
  let off = Graph.offsets g and twin = Graph.reverse_slots g in
  let states =
    Array.init n (fun v -> A.init ~input:(Graph.label g v) ~degree:(Graph.degree g v))
  in
  let inboxes = ref (Array.init n (fun v -> Array.make (Graph.degree g v) None)) in
  let outputs = Array.map A.output states in
  let round = ref 0 in
  let advance bits =
    incr round;
    let round = !round in
    let next_inboxes = Array.init n (fun v -> Array.make (Graph.degree g v) None) in
    let messages = ref 0 in
    for v = 0 to n - 1 do
      let crashed =
        match faults with
        | None -> false
        | Some f -> not (Faults.active f ~node:v ~round)
      in
      (* A crashed node neither computes nor sends; its round's inbox is
         lost (the per-round inbox array is simply not read). *)
      if not crashed then begin
        let state', sends =
          A.round states.(v) ~bit:(Bitvec.unsafe_get bits v) ~inbox:!inboxes.(v)
        in
        if Array.length sends <> Graph.degree g v then
          invalid_arg
            (Printf.sprintf "Executor.step: %s sent on %d ports at a degree-%d node"
               A.name (Array.length sends) (Graph.degree g v));
        states.(v) <- state';
        Array.iteri
          (fun p msg ->
            match msg with
            | None -> ()
            | Some m ->
              let u = Graph.neighbor g v p in
              let q = twin.(off.(v) + p) - off.(u) in
              let delivered =
                match faults with
                | None -> Some m
                | Some f -> Faults.on_send_sync f ~src:v ~dst:u ~port:q ~round m
              in
              (match delivered with
               | None -> ()
               | Some d ->
                 (* The adversary taps the wire after the fault layer: it
                    observes (and may tamper with) what actually crosses —
                    dropped messages are invisible to it. *)
                 let d =
                   match adversary with
                   | None -> d
                   | Some a -> Adversary.tamper a ~src:v ~dst:u ~round d
                 in
                 next_inboxes.(u).(q) <- Some d;
                 incr messages))
          sends;
        match outputs.(v), A.output state' with
        | None, o -> outputs.(v) <- o
        | Some prev, Some cur when Label.equal prev cur -> ()
        | Some _, _ ->
          invalid_arg
            (Printf.sprintf "Executor.step: %s revoked an irrevocable output" A.name)
      end
    done;
    (* Stale duplicates land one round behind the original, on ports that
       would otherwise be idle (a port carries one message per round). *)
    (match faults with
     | None -> ()
     | Some f ->
       for v = 0 to n - 1 do
         List.iter
           (fun (p, payload) ->
             if p < Array.length next_inboxes.(v) && next_inboxes.(v).(p) = None then begin
               next_inboxes.(v).(p) <- Some payload;
               incr messages
             end)
           (Faults.stale_sync f ~dst:v ~round:(round + 1))
       done);
    (inboxes :=
       match scramble with
       | None -> next_inboxes
       | Some permutation ->
         Array.mapi
           (fun v inbox ->
             let d = Array.length inbox in
             let p = permutation ~node:v ~degree:d ~round in
             if Array.length p <> d then
               invalid_arg "Executor.step: scramble returned wrong-size permutation";
             Array.init d (fun j -> inbox.(p.(j))))
           next_inboxes);
    !messages
  in
  {
    advance;
    all_output = (fun () -> Array.for_all Option.is_some outputs);
    has_output = (fun v -> Option.is_some outputs.(v));
    outputs = (fun () -> Array.copy outputs);
  }

type ending = {
  last_outputs : Label.t option array;
  last_round : int;
  delivered : int;
  failure : failure option;
}

let drive ?(obs = Obs.null) ?(span = "executor.run") ?note ?flat hooks algo g ~tape
    ~max_rounds =
  let n = Graph.n g in
  let rounds_c = Obs.counter obs "executor.rounds" in
  let msgs_c = Obs.counter obs "executor.messages" in
  let ending =
    Obs.span obs span (fun () ->
        let m =
          let flat =
            match hooks with
            | { scramble = None; faults = None; adversary = None } ->
              flat_layout ?flat algo g
            | _ -> None
          in
          match flat with Some lay -> in_place lay g | None -> boxed hooks algo g
        in
        let notify round messages =
          match note with
          | None -> ()
          | Some f -> f ~round ~messages ~has_output:m.has_output
        in
        let bits = Bitvec.create n in
        let rec loop last_round delivered =
          let stop failure =
            { last_outputs = m.outputs (); last_round; delivered; failure }
          in
          if m.all_output () then stop None
          else begin
            let round = last_round + 1 in
            if round > max_rounds then stop (Some (Max_rounds_exceeded max_rounds))
            else if
              match hooks.faults with
              | Some f -> Faults.doomed f ~round ~nodes:n
              | None -> false
            then stop (Some (All_nodes_crashed { round }))
            else if not (Tape.fill tape ~round bits) then
              stop (Some (Tape_exhausted { round }))
            else begin
              let messages = m.advance bits in
              Obs.incr rounds_c;
              Obs.incr ~by:messages msgs_c;
              notify round messages;
              loop round (delivered + messages)
            end
          end
        in
        notify 0 0;
        loop 0 0)
  in
  Option.iter (Run_ctx.observe_faults obs) hooks.faults;
  Option.iter (Run_ctx.observe_adversary obs) hooks.adversary;
  ending

let to_result = function
  | { failure = Some f; _ } -> Error f
  | { last_outputs; last_round; delivered; failure = None } ->
    Ok
      {
        outputs = Array.map Option.get last_outputs;
        rounds = last_round;
        messages = delivered;
      }

let run ?(ctx = Run_ctx.default) ?flat algo g ~tape ~max_rounds =
  let obs = Run_ctx.obs ctx in
  let note ~round ~messages ~has_output:_ =
    if round > 0 then
      Obs.eventf obs "round" (fun () ->
          [ ("round", Events.Int round); ("messages", Events.Int messages) ])
  in
  to_result (drive ~obs ~note ?flat (hooks ctx) algo g ~tape ~max_rounds)
