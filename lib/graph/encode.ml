(* Edges are encoded as ordered ordinal pairs; an explicit comparator keeps
   the hot sort monomorphic (no polymorphic-compare dispatch) and total even
   if the pair type ever grows non-comparable components. *)
let compare_edge (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let to_string g ~order =
  let n = Graph.n g in
  if Array.length order <> n then invalid_arg "Encode.to_string: wrong order length";
  let position = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || position.(v) <> -1 then
        invalid_arg "Encode.to_string: not a permutation";
      position.(v) <- i)
    order;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n%d;" n);
  Array.iter
    (fun v -> Buffer.add_string buf (Label.encode (Graph.label g v) ^ ";"))
    order;
  let edges =
    List.map
      (fun (u, v) ->
        let a = position.(u) and b = position.(v) in
        min a b, max a b)
      (Graph.edges g)
    |> List.sort compare_edge
  in
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "e%d,%d;" a b)) edges;
  Buffer.contents buf

let compare_sized (n1, s1) (n2, s2) =
  let c = Int.compare n1 n2 in
  if c <> 0 then c else String.compare s1 s2

(* The identity-order encoding, streamed straight off the CSR adjacency:
   with canonically sorted ports the traversal (v ascending, then ports
   ascending, keeping v < u) visits edges already in the lexicographic
   order [to_string] reaches by materializing and sorting the edge list —
   so the encoding of a million-node graph costs one buffer, no tuples.
   Byte-identical to [to_string ~order:identity]; graphs with permuted
   (unsorted) ports fall back to the sorting path. *)
let canonical_uncached g =
  let n = Graph.n g in
  if not (Graph.ports_sorted g) then
    to_string g ~order:(Array.init n (fun i -> i))
  else begin
    let buf = Buffer.create (16 * (n + 1)) in
    Buffer.add_char buf 'n';
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ';';
    for v = 0 to n - 1 do
      Buffer.add_string buf (Label.encode (Graph.label g v));
      Buffer.add_char buf ';'
    done;
    for v = 0 to n - 1 do
      Graph.iter_neighbors g v ~f:(fun u ->
          if v < u then begin
            Buffer.add_char buf 'e';
            Buffer.add_string buf (string_of_int v);
            Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int u);
            Buffer.add_char buf ';'
          end)
    done;
    Buffer.contents buf
  end

(* ---------- identity-keyed canonical-encoding cache ---------- *)

(* The candidate order of Section 3.1 re-encodes the same graph values many
   times ((size, encoding) comparisons in Candidates / A* / A∞).  Encoding is
   a pure function of the graph, so a cache keyed by Graph.id — process
   unique, never reused — can never go stale; the only policy needed is a
   size cap.  At the cap the least-recently-used {e quartile} is evicted in
   one scan (entries are stamped with a logical clock on every touch; the
   scan sorts by stamp and drops the oldest fourth).  Evicting a quartile keeps
   the hot working set resident — under the former epoch reset, a single
   insert past the cap forced every live candidate encoding to be
   recomputed — while amortizing the scan to O(log cap) per insert: graph
   ids are freshened at every candidate construction, so insert pressure is
   constant and a scan-per-insert policy would quadratically dominate the
   encode path.  The mutex makes the cache safe under the domain pool; the
   encoding itself is computed outside the lock, so a race at worst
   duplicates work. *)
type cache_entry = {
  enc : string;
  mutable stamp : int;  (* LRU clock tick of the last use; under the mutex *)
}

let cache : (int, cache_entry) Hashtbl.t = Hashtbl.create 256

let cache_mutex = Mutex.create ()

let cache_cap = 16_384

let cache_clock = ref 0

let cache_hits = Atomic.make 0

let cache_misses = Atomic.make 0

let cache_evictions = Atomic.make 0

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

let cache_stats () =
  Mutex.lock cache_mutex;
  let entries = Hashtbl.length cache in
  Mutex.unlock cache_mutex;
  {
    hits = Atomic.get cache_hits;
    misses = Atomic.get cache_misses;
    entries;
    evictions = Atomic.get cache_evictions;
  }

(* Must hold [cache_mutex]. *)
let evict_lru_locked () =
  let m = Hashtbl.length cache in
  if m > 0 then begin
    let arr = Array.make m (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun key e ->
        arr.(!i) <- key, e.stamp;
        incr i)
      cache;
    Array.sort (fun (_, a) (_, b) -> Int.compare a b) arr;
    let drop = max 1 (m / 4) in
    for j = 0 to drop - 1 do
      Hashtbl.remove cache (fst arr.(j))
    done;
    ignore (Atomic.fetch_and_add cache_evictions drop)
  end

let canonical g =
  let key = Graph.id g in
  Mutex.lock cache_mutex;
  let cached =
    match Hashtbl.find_opt cache key with
    | Some e ->
      incr cache_clock;
      e.stamp <- !cache_clock;
      Some e.enc
    | None -> None
  in
  Mutex.unlock cache_mutex;
  match cached with
  | Some s ->
    Atomic.incr cache_hits;
    s
  | None ->
    Atomic.incr cache_misses;
    let s = canonical_uncached g in
    Mutex.lock cache_mutex;
    if not (Hashtbl.mem cache key) then begin
      if Hashtbl.length cache >= cache_cap then evict_lru_locked ();
      incr cache_clock;
      Hashtbl.replace cache key { enc = s; stamp = !cache_clock }
    end;
    Mutex.unlock cache_mutex;
    s
