module Graph = Anonet_graph.Graph
module Bits = Anonet_graph.Bits
module Bitvec = Anonet_graph.Bitvec
module Executor = Anonet_runtime.Executor
module Run_ctx = Anonet_runtime.Run_ctx
module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics
module Events = Anonet_obs.Events

type length_constraint =
  | Exactly of int
  | At_most of int

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

(* The round-major BFS state, shared by the one-shot search and the
   resumable handle.  [level] counts fully expanded levels; [explored]
   is cumulative across every level expanded so far.

   Every state the search commits is interned in [store], one table for
   the whole search: stepping to a state any level already reached costs
   a lookup, not an allocation.

   [pruning] enables core-guided pruning (see DESIGN.md "Core-guided
   pruning"): per-entry bit-sensitivity cores collapse provably
   equivalent sibling vectors onto their lexicographically smallest
   representative, and — when [subsume] holds — a child whose state was
   already absorbed at an earlier level at or past [max_base] is pruned
   (the stamp doubles as that cross-level mark; the root counts as
   absorbed at level 0).  Subsumption is sound only for [At_most] targets
   (length-first domination; completion padding breaks the argument for
   [Exactly]) and only at levels >= [max_base], where the set of allowed
   continuations no longer depends on the level. *)
type bfs = {
  base : Bit_assignment.t;
  max_states : int;
  obs : Obs.t;
  pruning : bool;
  subsume : bool;
  max_base : int;
  states_c : Metrics.counter option;
  frontier_g : Metrics.gauge option;
  pruned_c : Metrics.counter option;
  probes_c : Metrics.counter option;
  store : store;
  mutable frontier : entry list;
  mutable level : int;
  mutable explored : int;
}

let bfs_start ~obs ~solver g ~base ~max_states ~pruning ~subsume
    ~consider =
  let exec = Executor.Incremental.start solver g in
  let t =
    {
      base;
      max_states;
      obs;
      pruning;
      subsume = pruning && subsume;
      max_base = Bit_assignment.max_length base;
      states_c = Obs.counter obs "search.states_explored";
      frontier_g = Obs.gauge obs "search.frontier";
      pruned_c = Obs.counter obs "search.pruned";
      probes_c = Obs.counter obs "search.core_probes";
      store = store_create exec;
      frontier = [];
      level = 0;
      explored = 0;
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
  if not (consider root 0) then t.frontier <- [ root ];
  t

(* Result of expanding one level: [Truncated] means the state budget ran
   out mid-level.  The in-budget lexicographic prefix of the level has
   then been fully absorbed — any success in it was recorded via
   [consider], and the explored counters hold [max_states + 1] — but
   [level]/[frontier] are left untouched; the caller decides whether
   truncation is fatal. *)
type level_outcome =
  | Complete
  | Truncated

exception Budget

(* Expand the frontier by one BFS level.  [consider entry level] must
   return [true] iff the entry has all-output (recording it as a success
   candidate as a side effect); such entries are pruned — their
   descendants cannot beat the entry's own completion. *)
let expand_level t ~consider =
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
  let next = ref [] in
  let tick () =
    t.explored <- t.explored + 1;
    Obs.incr t.states_c;
    if t.explored > t.max_states then raise_notrace Budget
  in
  (* A child stepped to within this level: unless the level already
     absorbed it, stamp it, then either prune it as cross-level subsumed,
     prune it as a recorded success ([consider]), or push it onto the
     next frontier. *)
  let s = t.store in
  let absorb entry bits id =
    let last = Array.unsafe_get s.stamps id in
    if last <> r then begin
      Array.unsafe_set s.stamps id r;
      if t.subsume && r >= t.max_base && last >= t.max_base then
        Obs.incr t.pruned_c
      else begin
        let child =
          { rev_rounds = bits :: entry.rev_rounds; id; exec = s.execs.(id) }
        in
        if not (consider child r) then next := child :: !next
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
  match List.iter expand t.frontier with
  | () ->
    t.level <- r;
    t.frontier <- List.rev !next;
    Complete
  | exception Budget -> Truncated

let search_round_major ~obs ~solver g ~base ~max_states ~pruning
    ~len_constraint =
  let max_base = Bit_assignment.max_length base in
  let hard_cap =
    match len_constraint with Exactly l -> l | At_most l -> l
  in
  (match len_constraint with
   | Exactly l when max_base > l ->
     invalid_arg "Min_search: base longer than exact target"
   | Exactly _ | At_most _ -> ());
  let best : (Bit_assignment.t * Simulation.result) option ref = ref None in
  let candidate_len level =
    match len_constraint with
    | Exactly l -> Some l
    | At_most l ->
      let cl = max level max_base in
      if cl <= l then Some cl else None
  in
  let consider entry level =
    if Executor.Incremental.all_output entry.exec then begin
      (match candidate_len level with
       | None -> ()
       | Some len ->
         let assignment =
           complete ~base ~rev_rounds:entry.rev_rounds ~level ~len
         in
         let sim =
           {
             Simulation.successful = true;
             outputs = Executor.Incremental.outputs entry.exec;
             rounds_run = level;
           }
         in
         let better =
           match !best with
           | None -> true
           | Some (a, _) -> Bit_assignment.compare_round_major assignment a < 0
         in
         if better then best := Some (assignment, sim));
      true (* prune: descendants cannot beat this entry's own completion *)
    end
    else false
  in
  let cap () =
    (* Once a candidate exists, no strictly longer assignment can win. *)
    match !best, len_constraint with
    | Some (a, _), At_most _ -> min hard_cap (Bit_assignment.max_length a)
    | _, _ -> hard_cap
  in
  let subsume = match len_constraint with At_most _ -> true | Exactly _ -> false in
  let t =
    bfs_start ~obs ~solver g ~base ~max_states ~pruning ~subsume
      ~consider
  in
  let truncated = ref false in
  (* The frontier gauge must not outlive the search: reset it on every
     exit path (success, exhaustion, raised limits) so later runs sharing
     the registry do not inherit a stale size. *)
  Fun.protect
    ~finally:(fun () -> Obs.set t.frontier_g 0)
    (fun () ->
      while (not !truncated) && t.frontier <> [] && t.level < cap () do
        if expand_level t ~consider = Truncated then truncated := true
      done);
  if !truncated then begin
    (* Budget exhaustion mid-level.  The in-budget lexicographic prefix
       of the truncated level [r] was expanded, so a recorded best may already be the global minimum:
       for [At_most] with [max_base <= r], every unexplored completion is
       either strictly longer than the best (length-first domination) or
       a lex-later same-level prefix — in both cases round-major larger.
       A longer base keeps candidate lengths tied at [max_base], where
       unexplored lex-smaller completions could still exist, so only the
       budget exception is sound there (and for [Exactly], always). *)
    let sound =
      match len_constraint, !best with
      | At_most _, Some _ -> max_base <= t.level + 1
      | _, _ -> false
    in
    if not sound then raise Search_limit_exceeded
  end;
  match !best with
  | None -> None
  | Some (assignment, sim) ->
    Some { assignment; sim; states_explored = t.explored }

let minimal_successful ?(ctx = Run_ctx.default) ~solver g ~base
    ?(max_states = 1_000_000) ?(pruning = true) ~len () =
  if Array.length base <> Graph.n g then
    invalid_arg "Min_search: assignment size differs from graph size";
  let obs = Run_ctx.obs ctx in
  Obs.span obs "min_search.round_major" (fun () ->
      search_round_major ~obs ~solver g ~base
        ~max_states ~pruning ~len_constraint:len)

(* ---------- resumable round-major search (incremental phase engine) ---- *)

module Resumable = struct
  (* A recorded success: the chosen prefix, the level it completed at,
     and the outputs it produced.  Its completion to any length [L >=
     max (found_level, max_length base)] appends only unprescribed zero
     bits, so round-major comparisons between successes are independent
     of the completion length — which is what lets one running best
     serve every future [extend] target. *)
  type success = {
    rev_rounds : Bitvec.t list;
    found_level : int;
    outputs : Anonet_graph.Label.t option array;
  }

  type t = {
    bfs : bfs;
    best : success option ref;
    consider : entry -> int -> bool;
  }

  let compare_success ~base a b =
    let len =
      max (Bit_assignment.max_length base) (max a.found_level b.found_level)
    in
    Bit_assignment.compare_round_major
      (complete ~base ~rev_rounds:a.rev_rounds ~level:a.found_level ~len)
      (complete ~base ~rev_rounds:b.rev_rounds ~level:b.found_level ~len)

  let create ?(ctx = Run_ctx.default) ?(max_states = 1_000_000)
      ?(pruning = true) ~solver g ~base () =
    if Array.length base <> Graph.n g then
      invalid_arg "Min_search: assignment size differs from graph size";
    let best = ref None in
    let consider entry level =
      if Executor.Incremental.all_output entry.exec then begin
        let s =
          {
            rev_rounds = entry.rev_rounds;
            found_level = level;
            outputs = Executor.Incremental.outputs entry.exec;
          }
        in
        (match !best with
         | None -> best := Some s
         | Some cur -> if compare_success ~base s cur < 0 then best := Some s);
        true
      end
      else false
    in
    let bfs =
      (* The handle serves [Exactly len] targets, whose completion
         padding breaks cross-level domination — only the per-round
         sensitivity cores apply here, never the subsumption table. *)
      bfs_start ~obs:(Run_ctx.obs ctx) ~solver g ~base ~max_states ~pruning ~subsume:false ~consider
    in
    { bfs; best; consider }

  let level t = t.bfs.level

  let states_explored t = t.bfs.explored

  let extend t ~len =
    let bfs = t.bfs in
    if Bit_assignment.max_length bfs.base > len then
      invalid_arg "Min_search: base longer than exact target";
    if len < bfs.level then
      invalid_arg "Min_search.Resumable.extend: target below explored level"
    else if len = bfs.level && Option.is_none !(t.best) then
      (* Level [len] is fully expanded and recorded no success: there is
         nothing to expand and nothing to complete.  A*'s node classes
         that select one candidate ask for the same phase in turn. *)
      None
    else
      Obs.span bfs.obs "min_search.extend" (fun () ->
        Fun.protect ~finally:(fun () -> Obs.set bfs.frontier_g 0) @@ fun () ->
        while bfs.frontier <> [] && bfs.level < len do
          if expand_level bfs ~consider:t.consider = Truncated then
            raise Search_limit_exceeded
        done;
        Option.map
          (fun s ->
            {
              assignment =
                complete ~base:bfs.base ~rev_rounds:s.rev_rounds
                  ~level:s.found_level ~len;
              sim =
                {
                  Simulation.successful = true;
                  outputs = Array.copy s.outputs;
                  rounds_run = s.found_level;
                };
              states_explored = bfs.explored;
            })
          !(t.best))
end
