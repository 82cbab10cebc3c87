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
   at the end.  Only dedup-key quality depends on this function — the
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
  ((!h1 * 31) + !h2) land max_int

module Incremental = struct
  (* Existentially packed execution state.  [inboxes.(v).(p)] holds the
     message node [v] will receive on port [p] this round (sent by its
     neighbor last round).  [reverse.(v).(p)] is the pair [(u, q)] such
     that port [p] of [v] reaches [u] whose port [q] comes back to [v]. *)
  type boxed =
    | Pack : {
        algo : (module Algorithm.S with type state = 's);
        graph : Graph.t;
        reverse : (int * int) array array;
        states : 's array;
        inboxes : Label.t option array array;
        outputs : Label.t option array;
        round : int;
        messages : int;
        (* Context defaults captured at [start ?ctx]; explicit [step]
           arguments override them.  [None] for pre-context callers. *)
        d_scramble : (node:int -> degree:int -> round:int -> int array) option;
        d_faults : Faults.t option;
        d_adversary : Adversary.t option;
      }
        -> boxed

  (* Graph-shaped immutable geometry shared by every flat state of one
     execution (and, via [Scratch], across many executions on the same
     graph).  [slot_off.(v)] is the first directed-edge slot of node [v]
     (its port [p] is slot [slot_off.(v) + p]); [src.(s)] is the neighbor
     whose broadcast lands in slot [s]. *)
  type layout = {
    n : int;
    degrees : int array;
    state_words : int;
    msg_words : int;
    total_slots : int;
    slot_off : int array;
    src : int array;
    inst : Algorithm.Flat.instance;
  }

  (* Flat execution state: one int arena holds the whole network — node
     states first ([state_words] ints per node), then the inbox
     ([msg_words] ints per directed-edge slot, first word 0 when empty).
     The arena is immutable once the state is built, so the persistence
     contract is the same as the boxed path's — a step allocates exactly
     one array regardless of message structure, and the arena itself is
     the dedup key. *)
  type flat = {
    lay : layout;
    arena : int array;
    fout : int;  (* nodes with output (irrevocable, so a plain count) *)
    fround : int;
    fmessages : int;
  }

  let state_size lay = lay.n * lay.state_words

  let arena_size lay = state_size lay + (lay.total_slots * lay.msg_words)

  type t =
    | Boxed of boxed
    | Flat of flat

  let reverse_ports g =
    Array.init (Graph.n g) (fun v ->
        Array.init (Graph.degree g v) (fun p ->
            let u = Graph.neighbor g v p in
            u, Graph.port_to g u v))

  let layout_of (flat : Algorithm.Flat.t) g =
    match flat.plan g with
    | None -> None
    | Some inst ->
      let n = Graph.n g in
      (* The graph already stores its adjacency as exactly this CSR shape:
         [Graph.offsets] is the slot-offset array (port [p] of node [v] is
         directed slot [offsets.(v) + p]) and [Graph.adjacency] is the
         per-slot source node.  Alias both — the layout never mutates
         them, and sharing makes layout construction O(n) (the degree
         diff) instead of re-walking every edge through the accessor
         API. *)
      let slot_off = Graph.offsets g in
      let degrees = Array.init n (fun v -> slot_off.(v + 1) - slot_off.(v)) in
      Some
        {
          n;
          degrees;
          state_words = inst.state_words;
          msg_words = inst.msg_words;
          total_slots = slot_off.(n);
          slot_off;
          src = Graph.adjacency g;
          inst;
        }

  let count_outputs lay states =
    let out = ref 0 in
    for v = 0 to lay.n - 1 do
      if lay.inst.has_output ~state:states ~off:(v * lay.state_words) then
        incr out
    done;
    !out

  let init_flat_states lay g states =
    for v = 0 to lay.n - 1 do
      lay.inst.init ~node:v ~input:(Graph.label g v) ~degree:lay.degrees.(v)
        ~state:states ~off:(v * lay.state_words)
    done

  let start_flat algo g =
    match Algorithm.find_flat algo with
    | None -> None
    | Some flat ->
      (match layout_of flat g with
       | None -> None
       | Some lay ->
         let arena = Array.make (arena_size lay) 0 in
         init_flat_states lay g arena;
         Some
           {
             lay;
             arena;
             fout = count_outputs lay arena;
             fround = 0;
             fmessages = 0;
           })

  let start_boxed ~d_scramble ~d_faults ~d_adversary (module A : Algorithm.S) g =
    let n = Graph.n g in
    let states =
      Array.init n (fun v ->
          A.init ~input:(Graph.label g v) ~degree:(Graph.degree g v))
    in
    Pack
      {
        algo = (module A);
        graph = g;
        reverse = reverse_ports g;
        states;
        inboxes = Array.init n (fun v -> Array.make (Graph.degree g v) None);
        outputs = Array.init n (fun v -> A.output states.(v));
        round = 0;
        messages = 0;
        d_scramble;
        d_faults;
        d_adversary;
      }

  let start ?(ctx = Run_ctx.default) ?(use_flat = true) algo g =
    let d_scramble = Run_ctx.scramble ctx in
    let d_faults = Run_ctx.injector ctx in
    let d_adversary = Run_ctx.adversary_instance ctx in
    let flat =
      (* Faults, adversaries and scrambles operate on boxed [Label.t]
         payloads (and their observable event streams are defined over
         them), so any injection hook pins the boxed representation. *)
      if
        use_flat && Option.is_none d_scramble && Option.is_none d_faults
        && Option.is_none d_adversary
      then start_flat algo g
      else None
    in
    match flat with
    | Some f -> Flat f
    | None -> Boxed (start_boxed ~d_scramble ~d_faults ~d_adversary algo g)

  (* Per-domain scratch for the persistent flat step: the send buffer and
     sent flags live only within one [step] call, and the probe buffer
     only until the next probe, so one growable record per domain serves
     searches running concurrently on other domains (server workers,
     experiment rows) without locking. *)
  type step_scratch = {
    mutable ss_send : int array;
    mutable ss_sent : Bytes.t;
    mutable ss_probe : int array;  (* probe child arena, exact [arena_size] *)
    mutable ss_sense : int array;  (* two (state span, send span) micro-runs *)
  }

  let step_scratch_key =
    Domain.DLS.new_key (fun () ->
        { ss_send = [||]; ss_sent = Bytes.empty; ss_probe = [||]; ss_sense = [||] })

  let get_step_scratch ~send_len ~n =
    let s = Domain.DLS.get step_scratch_key in
    if Array.length s.ss_send < send_len then s.ss_send <- Array.make send_len 0;
    if Bytes.length s.ss_sent < n then s.ss_sent <- Bytes.make n '\000';
    s

  (* One persistent flat round into a caller-provided [child] arena
     (exactly [arena_size], inbox section already zeroed): copy the
     parent's states into it, run every node's transition in place, then
     route broadcasts into the child's inbox section — the parent arena
     supplies this round's arrivals.  [bits] holds each node's random bit
     this round.  Takes the packed vector directly (not a [get_bit]
     closure) so the hot search loops pay neither a closure allocation nor
     an indirect call per node.  Returns the child's (output count,
     cumulative message count). *)
  let flat_step_into f scratch ~(bits : Bitvec.t) child =
    let lay = f.lay in
    let inst = lay.inst in
    let sw = lay.state_words and mw = lay.msg_words in
    let n = lay.n in
    let ssize = state_size lay in
    (* Manual word loops rather than [Array.blit]: arenas are a few dozen
       words, far below where memmove's call overhead pays for itself. *)
    let parent0 = f.arena in
    for i = 0 to ssize - 1 do
      Array.unsafe_set child i (Array.unsafe_get parent0 i)
    done;
    let send = scratch.ss_send and sent = scratch.ss_sent in
    let parent = f.arena in
    let out = ref 0 in
    for v = 0 to n - 1 do
      let broadcast =
        inst.round ~node:v ~bit:(Bitvec.unsafe_get bits v)
          ~degree:(Array.unsafe_get lay.degrees v)
          ~state:child ~off:(v * sw) ~inbox:parent
          ~ioff:(ssize + (Array.unsafe_get lay.slot_off v * mw))
          ~send ~soff:(v * mw)
      in
      Bytes.unsafe_set sent v (if broadcast then '\001' else '\000');
      if inst.has_output ~state:child ~off:(v * sw) then incr out
    done;
    let messages = ref f.fmessages in
    for s = 0 to lay.total_slots - 1 do
      let u = Array.unsafe_get lay.src s in
      if Bytes.unsafe_get sent u = '\001' then begin
        let src_off = u * mw and dst_off = ssize + (s * mw) in
        for k = 0 to mw - 1 do
          Array.unsafe_set child (dst_off + k) (Array.unsafe_get send (src_off + k))
        done;
        incr messages
      end
    done;
    !out, !messages

  let flat_step f ~bits =
    let scratch =
      get_step_scratch ~send_len:(f.lay.n * f.lay.msg_words) ~n:f.lay.n
    in
    let child = Array.make (arena_size f.lay) 0 in
    let out, messages = flat_step_into f scratch ~bits child in
    { f with arena = child; fout = out; fround = f.fround + 1; fmessages = messages }

  let boxed_step ?scramble ?faults ?adversary (Pack e) ~get_bit =
    let scramble = match scramble with Some _ as s -> s | None -> e.d_scramble in
    let faults = match faults with Some _ as f -> f | None -> e.d_faults in
    let adversary =
      match adversary with Some _ as a -> a | None -> e.d_adversary
    in
    let module A = (val e.algo) in
    let g = e.graph in
    let n = Graph.n g in
    let round = e.round + 1 in
    let states = Array.copy e.states in
    let next_inboxes = Array.init n (fun v -> Array.make (Graph.degree g v) None) in
    let messages = ref e.messages in
    let outputs = Array.copy e.outputs in
    for v = 0 to n - 1 do
      let crashed =
        match faults with
        | None -> false
        | Some f -> not (Faults.active f ~node:v ~round)
      in
      (* A crashed node neither computes nor sends; its round's inbox is
         lost (the per-round inbox array is simply not read). *)
      if not crashed then begin
        let state', sends = A.round states.(v) ~bit:(get_bit v) ~inbox:e.inboxes.(v) in
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
              let u, q = e.reverse.(v).(p) in
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
        (match outputs.(v), A.output state' with
         | None, o -> outputs.(v) <- o
         | Some prev, Some cur when Label.equal prev cur -> ()
         | Some _, _ ->
           invalid_arg
             (Printf.sprintf "Executor.step: %s revoked an irrevocable output" A.name))
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
             if p < Array.length next_inboxes.(v) && next_inboxes.(v).(p) = None
             then begin
               next_inboxes.(v).(p) <- Some payload;
               incr messages
             end)
           (Faults.stale_sync f ~dst:v ~round:(round + 1))
       done);
    let next_inboxes =
      match scramble with
      | None -> next_inboxes
      | Some permutation ->
        Array.mapi
          (fun v inbox ->
            let d = Array.length inbox in
            let p = permutation ~node:v ~degree:d ~round:(e.round + 1) in
            if Array.length p <> d then
              invalid_arg "Executor.step: scramble returned wrong-size permutation";
            Array.init d (fun j -> inbox.(p.(j))))
          next_inboxes
    in
    Pack
      {
        e with
        states;
        inboxes = next_inboxes;
        outputs;
        round = e.round + 1;
        messages = !messages;
      }

  let reject_injection () =
    invalid_arg
      "Executor.step: faults/scramble/adversary require the boxed execution \
       path — pass them via the ctx given to start (or start ~use_flat:false)"

  let step ?scramble ?faults ?adversary t ~bits =
    match t with
    | Boxed (Pack e as b) ->
      if Array.length bits <> Graph.n e.graph then
        invalid_arg "Executor.step: wrong bits length";
      Boxed
        (boxed_step ?scramble ?faults ?adversary b
           ~get_bit:(fun v -> Array.unsafe_get bits v))
    | Flat f ->
      (match scramble, faults, adversary with
       | None, None, None ->
         if Array.length bits <> f.lay.n then
           invalid_arg "Executor.step: wrong bits length";
         Flat (flat_step f ~bits:(Bitvec.of_bool_array bits))
       | _ -> reject_injection ())

  let step_vec t ~bits =
    match t with
    | Boxed (Pack e as b) ->
      if Bitvec.length bits <> Graph.n e.graph then
        invalid_arg "Executor.step_vec: wrong bits length";
      Boxed (boxed_step b ~get_bit:(fun v -> Bitvec.unsafe_get bits v))
    | Flat f ->
      if Bitvec.length bits <> f.lay.n then
        invalid_arg "Executor.step_vec: wrong bits length";
      Flat (flat_step f ~bits)

  let outputs = function
    | Boxed (Pack e) -> Array.copy e.outputs
    | Flat f ->
      Array.init f.lay.n (fun v ->
          f.lay.inst.output ~state:f.arena ~off:(v * f.lay.state_words))

  let all_output = function
    | Boxed (Pack e) -> Array.for_all Option.is_some e.outputs
    | Flat f -> f.fout = f.lay.n

  let round = function Boxed (Pack e) -> e.round | Flat f -> f.fround

  let messages = function Boxed (Pack e) -> e.messages | Flat f -> f.fmessages

  let is_flat = function Flat _ -> true | Boxed _ -> false

  let fingerprint = function
    | Boxed (Pack e) ->
      (* Marshal bytes determine structure, so equal digests mean equal
         states; differing sharing can only cause false negatives. *)
      Marshal.to_string (e.states, e.inboxes, e.outputs) []
    | Flat f ->
      (* The arena *is* the whole state (outputs derive from states). *)
      Marshal.to_string f.arena []

  (* Dedup keys: what the fingerprint is for, minus the serialization.  A
     flat key aliases the state's own (immutable) arena, so taking one
     costs a single hash walk over ints instead of a Marshal round-trip —
     which was ~45% of per-state cost in the search loops.  The hash is
     precomputed so the usual membership-check-then-insert sequence walks
     the arena once, not three times. *)
  type key =
    | Kboxed of string
    | Kflat of {
        khash : int;
        karena : int array;
      }

  let dedup_key = function
    | Boxed _ as t -> Kboxed (fingerprint t)
    | Flat f -> Kflat { khash = hash_int_array 17 f.arena; karena = f.arena }

  module Key = struct
    type t = key

    let equal a b =
      match a, b with
      | Kboxed x, Kboxed y -> String.equal x y
      | Kflat x, Kflat y ->
        x.khash = y.khash && int_array_equal x.karena y.karena
      | Kboxed _, Kflat _ | Kflat _, Kboxed _ -> false

    let hash = function Kboxed s -> Hashtbl.hash s | Kflat k -> k.khash
  end

  (* Probe/commit stepping: the branch searches discard most children as
     duplicates, so stepping into a reusable per-domain buffer and only
     materializing a fresh arena when the caller's seen-set misses makes
     the common (duplicate) case allocation-free.  A probe — and the key
     [probe_key] returns for it — is valid until the next [probe_vec] on
     the same domain; [probe_commit] yields a stable state and key. *)
  type probe =
    | Pboxed of t * key
    | Pflat of {
        pf : flat;
        pbuf : int array;  (* per-domain buffer, exactly [arena_size] *)
        phash : int;
        pout : int;
        pmessages : int;
      }

  let probe_vec t ~bits =
    match t with
    | Boxed _ ->
      let t' = step_vec t ~bits in
      Pboxed (t', dedup_key t')
    | Flat f ->
      if Bitvec.length bits <> f.lay.n then
        invalid_arg "Executor.probe_vec: wrong bits length";
      let scratch =
        get_step_scratch ~send_len:(f.lay.n * f.lay.msg_words) ~n:f.lay.n
      in
      let ssize = state_size f.lay in
      let asize = arena_size f.lay in
      let buf =
        (* Key equality compares whole arrays, so the buffer must be the
           exact arena size; only the inbox section needs re-zeroing (the
           states prefix is fully overwritten by the parent copy). *)
        if Array.length scratch.ss_probe = asize then begin
          Array.fill scratch.ss_probe ssize (asize - ssize) 0;
          scratch.ss_probe
        end
        else begin
          let b = Array.make asize 0 in
          scratch.ss_probe <- b;
          b
        end
      in
      let out, messages = flat_step_into f scratch ~bits buf in
      Pflat
        {
          pf = f;
          pbuf = buf;
          phash = hash_int_array 17 buf;
          pout = out;
          pmessages = messages;
        }

  let probe_key = function
    | Pboxed (_, k) -> k
    | Pflat p -> Kflat { khash = p.phash; karena = p.pbuf }

  (* Per-node bit sensitivity: in one synchronous round a node's random
     bit can only influence that node's own successor state and the
     messages it emits — never another node's transition within the same
     round — so sensitivity factors per node.  Each node's transition is
     re-run with both bit values against the *same* parent state and the
     results compared; a clear bit certifies that every setting of that
     node's bit yields the identical successor execution state, so a
     search may pin it without losing any outcome.  Conservative in the
     sound direction only: a set bit may be a false positive (the boxed
     path compares serialized bytes, where sharing differences can mask
     equality), a clear bit is always a proof. *)
  let flat_sensitivity f =
    let lay = f.lay in
    let inst = lay.inst in
    let sw = lay.state_words and mw = lay.msg_words in
    let span = sw + mw in
    let scratch = get_step_scratch ~send_len:(lay.n * mw) ~n:lay.n in
    if Array.length scratch.ss_sense < 2 * span then
      scratch.ss_sense <- Array.make (2 * span) 0;
    let buf = scratch.ss_sense in
    let ssize = state_size lay in
    let sens = Bitvec.create lay.n in
    for v = 0 to lay.n - 1 do
      let ioff = ssize + (Array.unsafe_get lay.slot_off v * mw) in
      let degree = Array.unsafe_get lay.degrees v in
      let run ~bit off =
        for k = 0 to sw - 1 do
          Array.unsafe_set buf (off + k) (Array.unsafe_get f.arena ((v * sw) + k))
        done;
        inst.round ~node:v ~bit ~degree ~state:buf ~off ~inbox:f.arena ~ioff
          ~send:buf ~soff:(off + sw)
      in
      let b0 = run ~bit:false 0 in
      let b1 = run ~bit:true span in
      let equal =
        b0 = b1
        &&
        let acc = ref 0 in
        (* Send words only count when the node broadcasts: a silent
           node's send span is scratch garbage by contract. *)
        let words = if b0 then span else sw in
        for k = 0 to words - 1 do
          acc := !acc lor (Array.unsafe_get buf k lxor Array.unsafe_get buf (span + k))
        done;
        !acc = 0
      in
      if not equal then Bitvec.set sens v true
    done;
    sens

  let boxed_sensitivity (Pack e) =
    let module A = (val e.algo) in
    let n = Graph.n e.graph in
    let sens = Bitvec.create n in
    for v = 0 to n - 1 do
      let run bit = A.round e.states.(v) ~bit ~inbox:e.inboxes.(v) in
      let enc r = Marshal.to_string r [] in
      if not (String.equal (enc (run false)) (enc (run true))) then
        Bitvec.set sens v true
    done;
    sens

  let bit_sensitivity = function
    | Flat f -> flat_sensitivity f
    | Boxed b -> boxed_sensitivity b

  let probe_commit = function
    | Pboxed (t, k) -> t, k
    | Pflat p ->
      let arena = Array.copy p.pbuf in
      ( Flat
          {
            p.pf with
            arena;
            fout = p.pout;
            fround = p.pf.fround + 1;
            fmessages = p.pmessages;
          },
        Kflat { khash = p.phash; karena = arena } )
end

(* Reusable whole-run scratch: lets [simulate_flat] run a complete
   simulation with zero per-round allocation by double-buffering the inbox
   arena in place.  Also memoizes the layout of the last (algorithm, graph)
   pair — batched candidate searches simulate the same graph millions of
   times — including negative answers (no flat companion / plan declined). *)
module Scratch = struct
  type t = {
    mutable c_algo : Algorithm.t option;
    mutable c_gid : int;
    mutable c_lay : Incremental.layout option;
    mutable states : int array;
    mutable inbox_a : int array;
    mutable inbox_b : int array;
    mutable send : int array;
    mutable sent : Bytes.t;
  }

  let create () =
    {
      c_algo = None;
      c_gid = -1;
      c_lay = None;
      states = [||];
      inbox_a = [||];
      inbox_b = [||];
      send = [||];
      sent = Bytes.empty;
    }

  let layout t algo g =
    let gid = Graph.id g in
    match t.c_algo with
    | Some a when a == algo && t.c_gid = gid -> t.c_lay
    | _ ->
      let lay =
        match Algorithm.find_flat algo with
        | None -> None
        | Some flat -> Incremental.layout_of flat g
      in
      t.c_algo <- Some algo;
      t.c_gid <- gid;
      t.c_lay <- lay;
      lay

  let ensure_ints arr len = if Array.length arr < len then Array.make len 0 else arr
end

let simulate_flat ~(scratch : Scratch.t) algo g ~bit ~len =
  match Scratch.layout scratch algo g with
  | None -> None
  | Some lay ->
    let open Incremental in
    let inst = lay.inst in
    let n = lay.n and sw = lay.state_words and mw = lay.msg_words in
    let inbox_len = lay.total_slots * mw in
    let states = Scratch.ensure_ints scratch.states (n * sw) in
    scratch.states <- states;
    let inbox_a = Scratch.ensure_ints scratch.inbox_a inbox_len in
    scratch.inbox_a <- inbox_a;
    let inbox_b = Scratch.ensure_ints scratch.inbox_b inbox_len in
    scratch.inbox_b <- inbox_b;
    let send = Scratch.ensure_ints scratch.send (n * mw) in
    scratch.send <- send;
    if Bytes.length scratch.sent < n then scratch.sent <- Bytes.make n '\000';
    let sent = scratch.sent in
    Array.fill states 0 (n * sw) 0;
    Array.fill inbox_a 0 inbox_len 0;
    init_flat_states lay g states;
    let out = ref (count_outputs lay states) in
    let cur = ref inbox_a and nxt = ref inbox_b in
    let rec loop r =
      if !out = n then (true, r - 1)
      else if r > len then (false, r - 1)
      else begin
        let inbox = !cur in
        for v = 0 to n - 1 do
          let broadcast =
            inst.round ~node:v ~bit:(bit ~node:v ~round:r)
              ~degree:(Array.unsafe_get lay.degrees v)
              ~state:states ~off:(v * sw) ~inbox
              ~ioff:(Array.unsafe_get lay.slot_off v * mw)
              ~send ~soff:(v * mw)
          in
          Bytes.unsafe_set sent v (if broadcast then '\001' else '\000')
        done;
        let next = !nxt in
        Array.fill next 0 inbox_len 0;
        for s = 0 to lay.total_slots - 1 do
          let u = Array.unsafe_get lay.src s in
          if Bytes.unsafe_get sent u = '\001' then begin
            let src_off = u * mw and dst_off = s * mw in
            for k = 0 to mw - 1 do
              Array.unsafe_set next (dst_off + k)
                (Array.unsafe_get send (src_off + k))
            done
          end
        done;
        cur := next;
        nxt := inbox;
        out := count_outputs lay states;
        loop (r + 1)
      end
    in
    let successful, rounds_run = loop 1 in
    let outputs =
      Array.init n (fun v -> inst.output ~state:states ~off:(v * sw))
    in
    Some (outputs, rounds_run, successful)

let run_with ~scramble ~faults ~adversary ~obs algo g ~tape ~max_rounds =
  let n = Graph.n g in
  let rounds_c = Obs.counter obs "executor.rounds" in
  let msgs_c = Obs.counter obs "executor.messages" in
  let use_flat =
    Option.is_none scramble && Option.is_none faults && Option.is_none adversary
  in
  let result =
    Obs.span obs "executor.run" (fun () ->
        let rec loop exec =
          if Incremental.all_output exec then begin
            let outputs = Array.map Option.get (Incremental.outputs exec) in
            Ok
              {
                outputs;
                rounds = Incremental.round exec;
                messages = Incremental.messages exec;
              }
          end
          else begin
            let round = Incremental.round exec + 1 in
            if round > max_rounds then Error (Max_rounds_exceeded max_rounds)
            else begin
              match faults with
              | Some f when Faults.doomed f ~round ~nodes:n ->
                Error (All_nodes_crashed { round })
              | _ ->
                let exhausted = ref false in
                let bits =
                  Array.init n (fun v ->
                      match Tape.bit tape ~node:v ~round with
                      | Some b -> b
                      | None ->
                        exhausted := true;
                        false)
                in
                if !exhausted then Error (Tape_exhausted { round })
                else begin
                  let exec' =
                    Incremental.step exec ?scramble ?faults ?adversary ~bits
                  in
                  Obs.incr rounds_c;
                  Obs.incr ~by:(Incremental.messages exec' - Incremental.messages exec)
                    msgs_c;
                  Obs.eventf obs "round" (fun () ->
                      [
                        ("round", Events.Int round);
                        ( "messages",
                          Events.Int
                            (Incremental.messages exec' - Incremental.messages exec) );
                      ]);
                  loop exec'
                end
            end
          end
        in
        loop (Incremental.start ~use_flat algo g))
  in
  (match faults with Some f -> Run_ctx.observe_faults obs f | None -> ());
  (match adversary with Some a -> Run_ctx.observe_adversary obs a | None -> ());
  result

let run ?(ctx = Run_ctx.default) algo g ~tape ~max_rounds =
  run_with ~scramble:(Run_ctx.scramble ctx) ~faults:(Run_ctx.injector ctx)
    ~adversary:(Run_ctx.adversary_instance ctx) ~obs:(Run_ctx.obs ctx) algo g
    ~tape ~max_rounds

