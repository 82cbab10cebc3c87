module Graph = Anonet_graph.Graph
module Bits = Anonet_graph.Bits
module Bitvec = Anonet_graph.Bitvec
module Executor = Anonet_runtime.Executor
module Run_ctx = Anonet_runtime.Run_ctx
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics
module Events = Anonet_obs.Events

type found = {
  assignment : Bit_assignment.t;
  sim : Simulation.result;
  states_explored : int;
}

exception Search_limit_exceeded

exception Branching_limit_exceeded of { free_bits : int; limit : int }

let catch_limits f =
  match f () with
  | v -> Ok v
  | exception Search_limit_exceeded ->
    Error
      "minimal-simulation search exceeded its state budget \
       (Min_search.Search_limit_exceeded)"
  | exception Branching_limit_exceeded { free_bits; limit } ->
    Error
      (Printf.sprintf
         "minimal-simulation search would branch on %d free bits at once \
          (limit %d) — the view graph is too large for the generic \
          derandomization"
         free_bits limit)

(* Enumerating [2^f] branches at once is hopeless beyond a few dozen free
   bits; the search branches once per round, on that round's free bits,
   and this limit keeps a runaway instance from looking like a hang. *)
let branching_limit = 24

module Key = Executor.Incremental.Key

(* ---------- round-major breadth-first search with state dedup ---------- *)

(* Complete a prefix of [level] rounds to a full assignment of length
   [len]: prescribed base bits where they exist, zeros elsewhere. *)
let complete ~base ~rev_rounds ~level ~len =
  let n = Array.length base in
  let rounds = Array.of_list (List.rev rev_rounds) in
  Array.init n (fun v ->
      let bit r =
        if r < level then Bitvec.get rounds.(r) v
        else if r < Bits.length base.(v) then Bits.get base.(v) r
        else false
      in
      Bits.of_list (List.init len bit))

(* Nodes whose base string does not prescribe a bit for round [r]
   (1-based) — the free bits of that round's branching. *)
let free_nodes ~base ~r =
  let n = Array.length base in
  List.filter (fun v -> Bits.length base.(v) < r) (List.init n (fun v -> v))

(* The bit vector prescribed for round [r] (1-based): base bits where
   they exist, zeros on the free nodes. *)
let prescribed_vec ~base ~r =
  let n = Array.length base in
  let prescribed = Bitvec.create n in
  for v = 0 to n - 1 do
    if Bits.length base.(v) >= r then
      Bitvec.unsafe_set prescribed v (Bits.get base.(v) (r - 1))
  done;
  prescribed

(* The round vector encoded by [code]: free node at position [pos] (in
   [free] order) carries bit [f - 1 - pos] of [code], so increasing codes
   enumerate the vectors in lexicographic order over the node index. *)
let vector_of_code ~prescribed ~free ~f code =
  let bits = Bitvec.copy prescribed in
  List.iteri
    (fun pos v -> Bitvec.unsafe_set bits v (code lsr (f - 1 - pos) land 1 = 1))
    free;
  bits

(* What an interned state's expansions past [max_base] have left behind.
   Past the longest base string every node is free and no bit is
   prescribed, so an entry's representative vectors (its sensitivity
   core) and its children are a function of its state alone: the second
   expansion of a state records them, and every later one replays them
   without stepping.  Recording waits for that second expansion because
   most states of a search whose states never recur (a step counter in
   the state) are expanded once. *)
type replay =
  | Unexpanded
  | Expanded_once
  | Recorded of {
      reps : Bitvec.t array;
      succ : int array;  (* the interned child of each representative *)
    }

(* A frontier entry: the per-round bit vectors chosen so far (most recent
   first, packed — one bit per node per round) and the execution they
   induce, with its interned id.  Entries are kept in lexicographic order
   of their prefixes.  The vectors are shared, not copied: every entry
   aliases a level's preallocated vector table. *)
type entry = {
  rev_rounds : Bitvec.t list;
  id : int;
  exec : Executor.Incremental.t;
}

(* The interned states of one search.  Every state the search commits
   gets the next dense id through one key table — open addressing with
   linear probing over the keys' hashes ([-1] marks a free slot; a hash is
   never negative) and their ids, at most 3/4 full — so a lookup scans
   ints and looks at a state only when the hashes match.  Per id, a flat
   growable store keeps the execution, the last level that absorbed it
   ([-1] before the first) and its replay record.  A child is new within
   level [r] iff its stamp is not [r], so the stamps are the per-level
   seen-set. *)
type store = {
  mutable hashes : int array;
  mutable slots : int array;
  mutable execs : Executor.Incremental.t array;
  mutable stamps : int array;
  mutable replays : replay array;
  mutable count : int;
}

let store_create root =
  {
    hashes = Array.make 64 (-1);
    slots = Array.make 64 0;
    execs = Array.make 32 root;
    stamps = Array.make 32 (-1);
    replays = Array.make 32 Unexpanded;
    count = 0;
  }

let rec probe_slot s h key i =
  let hi = Array.unsafe_get s.hashes i in
  if
    hi < 0
    || hi = h
       && Key.equal
            (Executor.Incremental.dedup_key
               (Array.unsafe_get s.execs (Array.unsafe_get s.slots i)))
            key
  then i
  else probe_slot s h key ((i + 1) land (Array.length s.hashes - 1))

(* The slot holding [key]'s id, or the free slot where it belongs. *)
let slot s key =
  let h = Key.hash key in
  probe_slot s h key (h land (Array.length s.hashes - 1))

let id_at s i =
  if Array.unsafe_get s.hashes i >= 0 then Array.unsafe_get s.slots i else -1

(* Intern [exec] in the free slot [i] (from [slot]) under the next id.
   The store grows by [Array.append], not [Array.make]: a major-heap
   array made with a young initial value forces a minor collection. *)
let intern s i exec =
  let id = s.count in
  if id = Array.length s.execs then begin
    s.execs <- Array.append s.execs s.execs;
    s.stamps <- Array.append s.stamps s.stamps;
    s.replays <- Array.append s.replays s.replays
  end;
  Array.unsafe_set s.execs id exec;
  Array.unsafe_set s.stamps id (-1);
  Array.unsafe_set s.replays id Unexpanded;
  Array.unsafe_set s.hashes i (Key.hash (Executor.Incremental.dedup_key exec));
  Array.unsafe_set s.slots i id;
  s.count <- id + 1;
  let cap = Array.length s.hashes in
  if 4 * s.count > 3 * cap then begin
    s.hashes <- Array.make (2 * cap) (-1);
    s.slots <- Array.make (2 * cap) 0;
    for id = 0 to s.count - 1 do
      let key = Executor.Incremental.dedup_key (Array.unsafe_get s.execs id) in
      let k = slot s key in
      Array.unsafe_set s.hashes k (Key.hash key);
      Array.unsafe_set s.slots k id
    done
  end;
  id

(* A recorded success: the chosen prefix, the level it completed at, and
   the outputs it produced.  Completing it to any length at or past
   [max found_level max_base] appends only unprescribed zero bits. *)
type success = {
  rev_rounds : Bitvec.t list;
  found_level : int;
  outputs : Anonet_graph.Label.t option array;
}

(* The round-major BFS state of one search.  [level] counts fully expanded
   levels; [explored] is cumulative across every level expanded so far;
   [best] is the last success recorded, which is the round-major smallest
   (see [expand_level]'s incumbent cut).

   Every state the search commits is interned in [store], one table for
   the whole search: stepping to a state any level already reached costs
   a lookup, not an allocation.

   A [length_first] search finds the minimal-length success: it stops at
   its best success's completion length, since no longer assignment can
   win.  Otherwise the search serves [Exactly] targets, whose level loop
   runs to the target whatever it has recorded.

   [pruning] enables core-guided pruning (see DESIGN.md "Core-guided
   pruning"): per-entry bit-sensitivity cores collapse provably
   equivalent sibling vectors onto their lexicographically smallest
   representative, and — in a length-first search — a child whose state
   was already absorbed at an earlier level at or past [max_base] is
   pruned (the stamp doubles as that cross-level mark; the root counts as
   absorbed at level 0).  Subsumption is sound only length-first
   (length-first domination; [Exactly]'s completion padding breaks the
   argument) and only at levels >= [max_base], where the set of allowed
   continuations no longer depends on the level. *)
type bfs = {
  base : Bit_assignment.t;
  max_states : int;
  obs : Obs.t;
  pruning : bool;
  length_first : bool;
  max_base : int;
  states_c : Metrics.counter option;
  frontier_g : Metrics.gauge option;
  pruned_c : Metrics.counter option;
  probes_c : Metrics.counter option;
  store : store;
  mutable frontier : entry list;
  mutable level : int;
  mutable explored : int;
  mutable best : success option;
}

(* [true] iff [entry], reached at [level], has all-output, in which case it
   is recorded as the best success and pruned: its descendants cannot beat
   its own completion. *)
let consider t entry level =
  Executor.Incremental.all_output entry.exec
  && begin
    t.best <-
      Some
        {
          rev_rounds = entry.rev_rounds;
          found_level = level;
          outputs = Executor.Incremental.outputs entry.exec;
        };
    true
  end

(* The search's answer: success [s] completed to length [len]. *)
let found t s ~len =
  {
    assignment =
      complete ~base:t.base ~rev_rounds:s.rev_rounds ~level:s.found_level ~len;
    sim =
      {
        Simulation.successful = true;
        outputs = Array.copy s.outputs;
        rounds_run = s.found_level;
      };
    states_explored = t.explored;
  }

let bfs_start ~obs ~solver g ~base ~max_states ~pruning ~length_first =
  if Array.length base <> Graph.n g then
    invalid_arg "Min_search: assignment size differs from graph size";
  let exec = Executor.Incremental.start solver g in
  let t =
    {
      base;
      max_states;
      obs;
      pruning;
      length_first;
      max_base = Bit_assignment.max_length base;
      states_c = Obs.counter obs "search.states_explored";
      frontier_g = Obs.gauge obs "search.frontier";
      pruned_c = Obs.counter obs "search.pruned";
      probes_c = Obs.counter obs "search.core_probes";
      store = store_create exec;
      frontier = [];
      level = 0;
      explored = 0;
      best = None;
    }
  in
  (* The root is absorbed at level 0.  With no prescribed rounds at all it
     therefore subsumes: a child re-reaching the initial state restarts
     the search one level deeper and can only produce longer (dominated)
     successes. *)
  let s = t.store in
  let id = intern s (slot s (Executor.Incremental.dedup_key exec)) exec in
  s.stamps.(id) <- 0;
  let root = { rev_rounds = []; id; exec } in
  if not (consider t root 0) then t.frontier <- [ root ];
  t

exception Cut

(* Expand the frontier by one BFS level.  Children are generated in
   round-major order of their prefixes, so the level stops at its first
   success (the incumbent cut): every child not yet generated has a
   prefix greater on rounds [<= r], and so has every completion of it, to
   any length.  The non-success children absorbed before the success
   become the next frontier; all of them, and every success that descends
   from them, are round-major smaller than the success just recorded.
   Running out of the state budget raises [Search_limit_exceeded] with
   [explored = max_states + 1]. *)
let expand_level t =
  let r = t.level + 1 in
  (* Per-level constants, hoisted out of the per-entry loop: the free-node
     set, the prescribed bits and the vector tables are the same for
     every frontier entry. *)
  let free = free_nodes ~base:t.base ~r in
  let f = List.length free in
  if f > branching_limit then
    raise (Branching_limit_exceeded { free_bits = f; limit = branching_limit });
  let frontier_size = List.length t.frontier in
  Obs.set t.frontier_g frontier_size;
  Obs.eventf t.obs "search.level" (fun () ->
      [
        ("level", Events.Int r);
        ("frontier", Events.Int frontier_size);
        ("free_bits", Events.Int f);
      ]);
  let prescribed = prescribed_vec ~base:t.base ~r in
  let vectors =
    Array.init (1 lsl f) (vector_of_code ~prescribed ~free ~f)
  in
  let nvec = Array.length vectors in
  (* Core-guided enumeration: an entry's sensitivity mask (sensitive free
     positions, in code-bit weights) partitions this round's [2^f]
     vectors into classes whose members provably step the entry to the
     same child; enumerating the subsets of the mask in increasing order
     visits exactly the lexicographically smallest representative of each
     class, so first-occurrence order — and hence the search's value — is
     preserved while [nvec - 2^sensitive] siblings per entry are skipped.
     Tables are memoized per distinct mask: frontier entries overwhelmingly
     share masks, so the common case builds one table per level. *)
  let full_mask = (1 lsl f) - 1 in
  let pruning = t.pruning && f > 0 in
  let mask_tables = Hashtbl.create 8 in
  let mask_of sens =
    let m = ref 0 in
    List.iteri
      (fun pos v -> if Bitvec.get sens v then m := !m lor (1 lsl (f - 1 - pos)))
      free;
    !m
  in
  let reps_of_mask mask =
    if mask = full_mask then vectors
    else
      match Hashtbl.find_opt mask_tables mask with
      | Some a -> a
      | None ->
        let acc = ref [] in
        let s = ref 0 in
        let continue = ref true in
        while !continue do
          acc := vector_of_code ~prescribed ~free ~f !s :: !acc;
          s := (!s - mask) land mask;
          if !s = 0 then continue := false
        done;
        let a = Array.of_list (List.rev !acc) in
        Hashtbl.add mask_tables mask a;
        a
  in
  (* An entry counts in [search.core_probes] and [search.pruned] exactly
     when the expansion loop reaches it within budget, whether its core
     is probed or replayed. *)
  let count_core reps =
    if pruning then begin
      Obs.incr t.probes_c;
      let collapsed = nvec - Array.length reps in
      if collapsed > 0 then Obs.incr ~by:collapsed t.pruned_c
    end
  in
  let open_entry exec =
    let reps =
      if pruning then
        reps_of_mask (mask_of (Executor.Incremental.bit_sensitivity exec))
      else vectors
    in
    count_core reps;
    reps
  in
  let replayable = r > t.max_base in
  let subsume = t.pruning && t.length_first && r >= t.max_base in
  let next = ref [] in
  let tick () =
    t.explored <- t.explored + 1;
    Obs.incr t.states_c;
    if t.explored > t.max_states then raise Search_limit_exceeded
  in
  (* A child stepped to within this level: unless the level already
     absorbed it, stamp it, then either prune it as cross-level subsumed,
     record it as a success ([consider]) and cut the level, or push it
     onto the next frontier. *)
  let s = t.store in
  let absorb (entry : entry) bits id =
    let last = Array.unsafe_get s.stamps id in
    if last <> r then begin
      Array.unsafe_set s.stamps id r;
      if subsume && last >= t.max_base then
        Obs.incr t.pruned_c
      else begin
        let child =
          { rev_rounds = bits :: entry.rev_rounds; id; exec = s.execs.(id) }
        in
        if consider t child r then raise_notrace Cut;
        next := child :: !next
      end
    end
  in
  (* Successors in lexicographic prefix order: entries outer (the
     frontier is sorted), this round's vectors inner.  The first
     occurrence of an execution state is its lexicographically smallest
     prefix, so deduplication must scan in exactly this order.
     Probe/commit stepping: write the child into the per-domain probe
     buffer, look its transient key up in the intern table, and only
     materialize (allocate) the child when it is genuinely new —
     duplicates, the common case on symmetric graphs, cost nothing.  A
     recorded entry replays its children instead: no stepping, no core
     probe, no hashing. *)
  let step_children entry ~record =
    let reps = open_entry entry.exec in
    let succ = if record then Array.make (Array.length reps) 0 else [||] in
    Array.iteri
      (fun k bits ->
        tick ();
        let probe = Executor.Incremental.probe_vec entry.exec ~bits in
        let i = slot s (Executor.Incremental.probe_key probe) in
        let id = id_at s i in
        let id =
          if id >= 0 then id
          else intern s i (fst (Executor.Incremental.probe_commit probe))
        in
        if record then Array.unsafe_set succ k id;
        absorb entry bits id)
      reps;
    reps, succ
  in
  (* Replay marks are only ever set at replayable levels, and levels only
     grow, so a marked entry is expanded at a replayable level. *)
  let expand entry =
    match s.replays.(entry.id) with
    | Unexpanded ->
      ignore (step_children entry ~record:false);
      if replayable then s.replays.(entry.id) <- Expanded_once
    | Expanded_once ->
      let reps, succ = step_children entry ~record:true in
      s.replays.(entry.id) <- Recorded { reps; succ }
    | Recorded { reps; succ } ->
      count_core reps;
      Array.iteri
        (fun k bits ->
          tick ();
          absorb entry bits (Array.unsafe_get succ k))
        reps
  in
  (try List.iter expand t.frontier with Cut -> ());
  t.level <- r;
  t.frontier <- List.rev !next

(* Expand levels until level [len], an empty frontier, or — length-first
   — the best success's completion length.  The frontier gauge must not
   outlive the search: it is reset on every exit (success, exhaustion,
   raised limits) so later runs sharing the registry do not inherit a
   stale size. *)
let advance t ~len =
  let cap () =
    match t.best with
    | Some s when t.length_first -> min len (max s.found_level t.max_base)
    | Some _ | None -> len
  in
  Fun.protect ~finally:(fun () -> Obs.set t.frontier_g 0) @@ fun () ->
  while t.frontier <> [] && t.level < cap () do
    expand_level t
  done

let minimal_successful ?(ctx = Run_ctx.default) ~solver g ~base
    ?(max_states = 1_000_000) ?(pruning = true) ~max_len () =
  let obs = Run_ctx.obs ctx in
  Obs.span obs "min_search.round_major" @@ fun () ->
  let t =
    bfs_start ~obs ~solver g ~base ~max_states ~pruning ~length_first:true
  in
  advance t ~len:max_len;
  Option.bind t.best (fun s ->
      let len = max s.found_level t.max_base in
      if len <= max_len then Some (found t s ~len) else None)

(* ---------- resumable round-major search (the [Exactly] search) ---------- *)

module Resumable = struct
  type t = bfs

  let create ?(ctx = Run_ctx.default) ?(max_states = 1_000_000)
      ?(pruning = true) ~solver g ~base () =
    bfs_start ~obs:(Run_ctx.obs ctx) ~solver g ~base ~max_states ~pruning
      ~length_first:false

  let level t = t.level

  let states_explored t = t.explored

  let extend t ~len =
    if t.max_base > len then
      invalid_arg "Min_search: base longer than exact target";
    if len < t.level then
      invalid_arg "Min_search.Resumable.extend: target below explored level"
    else if len = t.level && Option.is_none t.best then
      (* Level [len] is fully expanded and recorded no success: there is
         nothing to expand and nothing to complete.  A*'s node classes
         that select one candidate ask for the same phase in turn. *)
      None
    else
      Obs.span t.obs "min_search.extend" (fun () ->
          advance t ~len;
          Option.map (fun s -> found t s ~len) t.best)
end
