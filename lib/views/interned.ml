module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Encode = Anonet_graph.Encode
module Obs = Anonet_obs.Obs

(* A view node is an integer handle [slot lsl shard_bits lor shard]; all node
   attributes (mark, size, depth, children) live in flat per-shard column
   arrays instead of per-node records.  Two wins over the former record
   representation: no box per view node (the whole store is a handful of
   arrays the GC scans as units), and the intern table splits into
   [shard_count] independently locked shards, so concurrent interning by
   pool workers contends only when two structures hash to the same shard. *)

type t = int

let equal (a : t) (b : t) = Int.equal a b

let hash (t : t) = t

let id (t : t) = t

(* Unfolded-tree sizes grow like Δ^depth; saturate instead of wrapping so the
   stored count stays a valid sort key at any depth. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* ---------- the sharded intern arena ---------- *)

(* The shard of a node is chosen by its intern key's hash, so the id space
   stays process-global: equal structures land in the same shard and receive
   the same handle no matter which domain interns them first.  Each shard's
   column arrays are published through an [Atomic.t] snapshot — writers
   mutate under the shard lock and swap in a grown copy when full, readers
   take the current snapshot without locking.  A handle only escapes after
   its columns are fully written under the lock, and handles travel between
   domains through synchronized channels (pool queues), so a reader's
   snapshot always covers every handle it can name. *)

let shard_bits = 4

let shard_count = 1 lsl shard_bits

let shard_mask = shard_count - 1

module Key = struct
  type t = Label.t * int list (* root mark, child ids in canonical order *)

  let equal (m1, c1) (m2, c2) = List.equal Int.equal c1 c2 && Label.equal m1 m2

  let hash (m, cs) =
    List.fold_left (fun h i -> (h * 31) + i + 1) (Label.hash m) cs land max_int
end

module Tbl = Hashtbl.Make (Key)

type store = {
  marks : Label.t array;
  sizes : int array;
  depths : int array;
  coff : int array;  (* [coff.(slot) .. coff.(slot+1)) delimits [cids] *)
  cids : int array;  (* flat concatenation of child handles *)
}

type shard = {
  index : int;
  lock : Mutex.t;
  tbl : int Tbl.t;  (* intern key -> handle *)
  mutable count : int;  (* slots in use; guarded by [lock] *)
  mutable cfill : int;  (* [cids] words in use; guarded by [lock] *)
  store : store Atomic.t;
}

let empty_store cap ccap =
  {
    marks = Array.make cap Label.Unit;
    sizes = Array.make cap 0;
    depths = Array.make cap 0;
    coff = Array.make (cap + 1) 0;
    cids = Array.make ccap 0;
  }

let shards =
  Array.init shard_count (fun index ->
      {
        index;
        lock = Mutex.create ();
        tbl = Tbl.create 512;
        count = 0;
        cfill = 0;
        store = Atomic.make (empty_store 256 1024);
      })

let store_of (t : t) = Atomic.get shards.(t land shard_mask).store

let slot (t : t) = t lsr shard_bits

let mark t = (store_of t).marks.(slot t)

let size t = (store_of t).sizes.(slot t)

let depth t = (store_of t).depths.(slot t)

let children t =
  let s = store_of t in
  let i = slot t in
  let a = s.coff.(i) in
  List.init (s.coff.(i + 1) - a) (fun j -> s.cids.(a + j))

let intern_hits = Atomic.make 0

let intern_misses = Atomic.make 0

(* Guarded by [sh.lock]. *)
let grow_locked sh ~slots ~words =
  let st = Atomic.get sh.store in
  let cap = Array.length st.marks in
  let ccap = Array.length st.cids in
  if slots > cap || words > ccap then begin
    let rec fit c need = if c >= need then c else fit (2 * c) need in
    let st' = empty_store (fit cap slots) (fit ccap words) in
    Array.blit st.marks 0 st'.marks 0 sh.count;
    Array.blit st.sizes 0 st'.sizes 0 sh.count;
    Array.blit st.depths 0 st'.depths 0 sh.count;
    Array.blit st.coff 0 st'.coff 0 (sh.count + 1);
    Array.blit st.cids 0 st'.cids 0 sh.cfill;
    Atomic.set sh.store st'
  end

(* [child_ids] must already be in canonical sibling order; [node] sorts,
   [truncate] and [of_graph] go through [node]. *)
let intern mark child_ids =
  let key = mark, child_ids in
  let sh = shards.(Key.hash key land shard_mask) in
  Mutex.lock sh.lock;
  let t =
    match Tbl.find_opt sh.tbl key with
    | Some t ->
      Atomic.incr intern_hits;
      t
    | None ->
      Atomic.incr intern_misses;
      let nc = List.length child_ids in
      grow_locked sh ~slots:(sh.count + 1) ~words:(sh.cfill + nc);
      let st = Atomic.get sh.store in
      let i = sh.count in
      st.marks.(i) <- mark;
      st.sizes.(i) <- List.fold_left (fun s c -> sat_add s (size c)) 1 child_ids;
      st.depths.(i) <- 1 + List.fold_left (fun m c -> max m (depth c)) 0 child_ids;
      st.coff.(i) <- sh.cfill;
      let j = ref sh.cfill in
      List.iter
        (fun c ->
          st.cids.(!j) <- c;
          incr j)
        child_ids;
      st.coff.(i + 1) <- !j;
      sh.cfill <- !j;
      sh.count <- i + 1;
      let t = (i lsl shard_bits) lor sh.index in
      Tbl.add sh.tbl key t;
      t
  in
  Mutex.unlock sh.lock;
  t

(* ---------- canonical order ---------- *)

(* Structural compare decided over ids: each distinct (id, id) pair is
   resolved once per domain and memoized.  The memo is domain-local
   (Domain.DLS) so the hot comparison path never takes a lock; the answers
   are pure, so recomputing one per domain is only a constant-factor cost.
   The child walk runs directly over the flat [cids] columns — no sibling
   lists are materialized. *)

let compare_memo_key =
  Domain.DLS.new_key (fun () : (int * int, int) Hashtbl.t -> Hashtbl.create 4096)

let rec compare_memoized memo (a : t) (b : t) =
  if a = b then 0
  else begin
    match Hashtbl.find_opt memo (a, b) with
    | Some c -> c
    | None ->
      let c =
        let cm = Label.compare (mark a) (mark b) in
        if cm <> 0 then cm
        else begin
          let sa = store_of a and sb = store_of b in
          let ia = slot a and ib = slot b in
          let a1 = sa.coff.(ia + 1) and b1 = sb.coff.(ib + 1) in
          let rec go i j =
            if i >= a1 then if j >= b1 then 0 else -1
            else if j >= b1 then 1
            else
              let c = compare_memoized memo sa.cids.(i) sb.cids.(j) in
              if c <> 0 then c else go (i + 1) (j + 1)
          in
          go sa.coff.(ia) sb.coff.(ib)
        end
      in
      Hashtbl.add memo (a, b) c;
      Hashtbl.add memo (b, a) (-c);
      c
  end

let compare a b =
  if a = b then 0 else compare_memoized (Domain.DLS.get compare_memo_key) a b

let leaf mark = intern mark []

let node mark children = intern mark (List.sort compare children)

(* ---------- construction and truncation ---------- *)

let of_graph g ~root ~depth =
  if depth < 1 then invalid_arg "Interned.of_graph: need depth >= 1";
  (* Level by level: level d reuses every level-(d-1) node, so the whole
     construction interns O(n * depth) nodes regardless of how large the
     unfolded trees are. *)
  let n = Graph.n g in
  let current = ref (Array.init n (fun v -> leaf (Graph.label g v))) in
  for _ = 2 to depth do
    let prev = !current in
    current :=
      Array.init n (fun v ->
          node (Graph.label g v)
            (Array.to_list (Array.map (fun u -> prev.(u)) (Graph.neighbors g v))))
  done;
  !current.(root)

let truncate_memo_key =
  Domain.DLS.new_key (fun () : (int * int, t) Hashtbl.t -> Hashtbl.create 4096)

let truncate t ~depth:d0 =
  if d0 < 1 then invalid_arg "Interned.truncate: need depth >= 1";
  let memo = Domain.DLS.get truncate_memo_key in
  let rec go t d =
    if d >= depth t then t
    else begin
      match Hashtbl.find_opt memo (t, d) with
      | Some t' -> t'
      | None ->
        let t' =
          if d = 1 then leaf (mark t)
            (* [node] re-sorts: truncation can reorder siblings that only
               differed below the cut. *)
          else node (mark t) (List.map (fun c -> go c (d - 1)) (children t))
        in
        Hashtbl.add memo (t, d) t';
        t'
    end
  in
  go t d0

let subtrees t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      acc := t :: !acc;
      let s = store_of t in
      let i = slot t in
      for j = s.coff.(i) to s.coff.(i + 1) - 1 do
        visit s.cids.(j)
      done
    end
  in
  visit t;
  !acc

(* ---------- label (de)serialization ---------- *)

(* DAG serialization: entries listed children-first; each entry is
   (mark, indices of children among earlier entries); the root is the last
   entry. *)
let build_label t =
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let count = ref 0 in
  let rec visit t =
    if not (Hashtbl.mem index (id t)) then begin
      let children = children t in
      List.iter visit children;
      Hashtbl.add index (id t) !count;
      incr count;
      let child_ixs =
        List.map (fun c -> Label.Int (Hashtbl.find index (id c))) children
      in
      entries := Label.Pair (mark t, Label.List child_ixs) :: !entries
    end
  in
  visit t;
  Label.List (List.rev !entries)

(* Serialization is a pure function of the handle, and A* broadcasts
   the same gathered view to every neighbor each exchange round — memoizing
   per domain means one DAG walk (and one label value) per distinct view
   instead of one per (node, round).  The shared label value also feeds the
   identity-keyed [of_label] cache on the receiving side. *)
let to_label_memo_key =
  Domain.DLS.new_key (fun () : (int, Label.t) Hashtbl.t -> Hashtbl.create 1024)

let to_label t =
  let memo = Domain.DLS.get to_label_memo_key in
  match Hashtbl.find_opt memo (id t) with
  | Some l -> l
  | None ->
    let l = build_label t in
    Hashtbl.add memo (id t) l;
    l

let decode_label l =
  match l with
  | Label.List [] -> invalid_arg "Interned.of_label: empty"
  | Label.List entries ->
    let arr = Array.make (List.length entries) None in
    List.iteri
      (fun i entry ->
        match entry with
        | Label.Pair (mark, Label.List child_ixs) ->
          let children =
            List.map
              (fun ix ->
                let j = Label.to_int ix in
                if j < 0 || j >= i then
                  invalid_arg "Interned.of_label: bad child index";
                Option.get arr.(j))
              child_ixs
          in
          arr.(i) <- Some (node mark children)
        | _ -> invalid_arg "Interned.of_label: malformed entry")
      entries;
    (match arr.(Array.length arr - 1) with
     | Some t -> t
     | None -> invalid_arg "Interned.of_label: empty")
  | _ -> invalid_arg "Interned.of_label: not a list"

(* Identity-keyed decode cache: the memoized [to_label] hands every receiver
   the same physical label value, so equality here is pointer equality with
   a structural hash (stable across GC moves; physically equal values are
   structurally equal, so they land in the same bucket).  Distinct-but-equal
   labels merely miss and decode — interning still yields the same tree. *)
module Label_key = struct
  type t = Label.t

  let equal = ( == )

  (* Serialized DAGs list entries children-first, so their heads (the leaf
     marks) are poor discriminators; the root entry — the last — and the
     entry count are.  One spine walk, no deep traversal. *)
  let hash (l : Label.t) =
    match l with
    | Label.List (e0 :: rest) ->
      let rec last_len n last = function
        | [] -> n, last
        | [ e ] -> n + 1, e
        | _ :: tl -> last_len (n + 1) last tl
      in
      let len, last = last_len 1 e0 rest in
      (Hashtbl.hash last * 31) + len
    | l -> Hashtbl.hash l
end

module Label_tbl = Hashtbl.Make (Label_key)

let of_label_cache_key =
  Domain.DLS.new_key (fun () : t Label_tbl.t -> Label_tbl.create 1024)

let of_label l =
  let cache = Domain.DLS.get of_label_cache_key in
  match Label_tbl.find_opt cache l with
  | Some t -> t
  | None ->
    let t = decode_label l in
    Label_tbl.add cache l t;
    t

(* ---------- statistics ---------- *)

type stats = {
  hits : int;
  misses : int;
  nodes : int;
}

let stats () =
  let nodes = ref 0 in
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      nodes := !nodes + sh.count;
      Mutex.unlock sh.lock)
    shards;
  { hits = Atomic.get intern_hits; misses = Atomic.get intern_misses; nodes = !nodes }

let publish_metrics obs =
  if Obs.live obs then begin
    let s = stats () in
    Obs.incr ~by:s.hits (Obs.counter obs "cache.view.hits");
    Obs.incr ~by:s.misses (Obs.counter obs "cache.view.misses");
    Obs.set (Obs.gauge obs "cache.view.nodes") s.nodes;
    let e = Encode.cache_stats () in
    Obs.incr ~by:e.Encode.hits (Obs.counter obs "cache.encode.hits");
    Obs.incr ~by:e.Encode.misses (Obs.counter obs "cache.encode.misses");
    Obs.incr ~by:e.Encode.evictions (Obs.counter obs "cache.encode.evictions");
    Obs.set (Obs.gauge obs "cache.encode.entries") e.Encode.entries
  end
