(* CSR (compressed sparse row) adjacency: one offsets array (length n+1)
   plus one flat neighbor array.  Port [p] of node [v] is
   [nbr.(offsets.(v) + p)]; the slice for [v] is [offsets.(v) ..
   offsets.(v+1) - 1].  Builders emit canonically sorted ports, so
   [sorted] is true for every graph except those rebuilt by
   [permute_ports] — lookups ([port_to], [has_edge]) binary-search when
   they can and fall back to a linear scan when they cannot. *)
type t = {
  n : int;
  offsets : int array; (* length n + 1; offsets.(n) = total directed slots *)
  nbr : int array; (* flat neighbor array, nbr.(offsets.(v) + port) *)
  sorted : bool; (* every port slice sorted ascending? *)
  labels : Label.t array;
}

(* In-place sort of nbr.[lo, hi): insertion sort for the short slices that
   dominate (sparse graphs), median-of-three quicksort above that.  The
   stdlib has no subrange sort and copying every slice out would rebuild
   the per-node-array representation this module just dropped. *)
let rec sort_range (a : int array) lo hi =
  let len = hi - lo in
  if len <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    let mid = lo + (len / 2) in
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1);
    sort_range a !i hi
  end

module Builder = struct
  (* Streamed edges land in two growable flat int arrays — no tuple, no
     list cell, no Hashtbl entry per edge.  [build] then runs the classic
     two-pass CSR fill: count degrees, prefix-sum into offsets, scatter
     endpoints, sort each slice, and reject duplicates as adjacent equal
     entries of the sorted slice.  Validation errors format their message
     only on the failing edge. *)
  type builder = {
    bn : int;
    mutable eu : int array;
    mutable ev : int array;
    mutable m : int;
  }

  let create ?(edges_hint = 64) ~n () =
    if n < 0 then invalid_arg "Graph.create: negative node count";
    let cap = max 4 edges_hint in
    { bn = n; eu = Array.make cap 0; ev = Array.make cap 0; m = 0 }

  let grow b =
    let cap' = 2 * Array.length b.eu in
    let eu' = Array.make cap' 0 and ev' = Array.make cap' 0 in
    Array.blit b.eu 0 eu' 0 b.m;
    Array.blit b.ev 0 ev' 0 b.m;
    b.eu <- eu';
    b.ev <- ev'

  let add_edge b u v =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg (Printf.sprintf "Graph.create: edge (%d, %d) out of range" u v);
    if u = v then invalid_arg (Printf.sprintf "Graph.create: self-loop at %d" u);
    if b.m = Array.length b.eu then grow b;
    b.eu.(b.m) <- u;
    b.ev.(b.m) <- v;
    b.m <- b.m + 1

  let build_with_labels b labels =
    let n = b.bn in
    let off = Array.make (n + 1) 0 in
    for i = 0 to b.m - 1 do
      off.(b.eu.(i)) <- off.(b.eu.(i)) + 1;
      off.(b.ev.(i)) <- off.(b.ev.(i)) + 1
    done;
    let total = ref 0 in
    for v = 0 to n - 1 do
      let d = off.(v) in
      off.(v) <- !total;
      total := !total + d
    done;
    off.(n) <- !total;
    let nbr = Array.make !total 0 in
    let pos = Array.sub off 0 (max n 1) in
    for i = 0 to b.m - 1 do
      let u = b.eu.(i) and v = b.ev.(i) in
      nbr.(pos.(u)) <- v;
      pos.(u) <- pos.(u) + 1;
      nbr.(pos.(v)) <- u;
      pos.(v) <- pos.(v) + 1
    done;
    for v = 0 to n - 1 do
      let lo = off.(v) and hi = off.(v + 1) in
      sort_range nbr lo hi;
      for k = lo to hi - 2 do
        if nbr.(k) = nbr.(k + 1) then
          invalid_arg
            (Printf.sprintf "Graph.create: duplicate edge (%d, %d)" v nbr.(k))
      done
    done;
    { n; offsets = off; nbr; sorted = true; labels }

  let build b ~labels =
    if Array.length labels <> b.bn then
      invalid_arg "Graph.create: label array length differs from n";
    build_with_labels b (Array.copy labels)

  let build_unlabeled b = build_with_labels b (Array.make b.bn Label.Unit)
end

let create ~n ~edges ~labels =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  if Array.length labels <> n then
    invalid_arg "Graph.create: label array length differs from n";
  let b = Builder.create ~edges_hint:(List.length edges) ~n () in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  Builder.build b ~labels

let unlabeled ~n ~edges = create ~n ~edges ~labels:(Array.make n Label.Unit)

let n g = g.n

let degree g v = g.offsets.(v + 1) - g.offsets.(v)

let max_degree g =
  let m = ref 0 in
  for v = 0 to g.n - 1 do
    let d = g.offsets.(v + 1) - g.offsets.(v) in
    if d > !m then m := d
  done;
  !m

let neighbor g v j = g.nbr.(g.offsets.(v) + j)

let neighbors g v = Array.sub g.nbr g.offsets.(v) (degree g v)

let offsets g = g.offsets

let adjacency g = g.nbr

let ports_sorted g = g.sorted

let iter_neighbors g v ~f =
  for k = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f g.nbr.(k)
  done

let fold_neighbors g v ~init ~f =
  let acc = ref init in
  for k = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    acc := f !acc g.nbr.(k)
  done;
  !acc

(* Binary search for [u] in the sorted slice of [v]; returns the port or
   -1.  Only valid when [g.sorted]. *)
let find_sorted g v u =
  let lo = ref g.offsets.(v) and hi = ref (g.offsets.(v + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.nbr.(mid) in
    if w = u then found := mid - g.offsets.(v)
    else if w < u then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let find_linear g v u =
  let base = g.offsets.(v) in
  let d = g.offsets.(v + 1) - base in
  let rec loop j =
    if j >= d then -1 else if g.nbr.(base + j) = u then j else loop (j + 1)
  in
  loop 0

let port_to g v u =
  let j = if g.sorted then find_sorted g v u else find_linear g v u in
  if j < 0 then raise Not_found else j

(* On a sorted graph, one cursor per node: visiting [v] in ascending
   order, [v] is the next unvisited entry of each neighbor's sorted
   slice, so no search is needed. *)
let reverse_slots g =
  let rev = Array.make (Array.length g.nbr) 0 in
  let cursor = Array.sub g.offsets 0 g.n in
  for v = 0 to g.n - 1 do
    for s = g.offsets.(v) to g.offsets.(v + 1) - 1 do
      let u = g.nbr.(s) in
      if g.sorted then begin
        rev.(s) <- cursor.(u);
        cursor.(u) <- cursor.(u) + 1
      end
      else rev.(s) <- g.offsets.(u) + port_to g u v
    done
  done;
  rev

let label g v = g.labels.(v)

let labels g = Array.copy g.labels

let has_edge g u v =
  (if g.sorted then find_sorted g u v else find_linear g u v) >= 0

let edges g =
  (* Matches the historical per-node-array iteration order: node index
     descending, ports ascending within a node, each edge prepended. *)
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    for k = g.offsets.(v) to g.offsets.(v + 1) - 1 do
      let u = g.nbr.(k) in
      if v < u then acc := (v, u) :: !acc
    done
  done;
  !acc

let num_edges g = g.offsets.(g.n) / 2

let relabel g f = { g with labels = Array.init g.n f }

let with_labels g labels =
  if Array.length labels <> g.n then
    invalid_arg "Graph.with_labels: wrong label array length";
  { g with labels = Array.copy labels }

let map_labels g f = { g with labels = Array.map f g.labels }

let zip_labels g extra =
  if Array.length extra <> g.n then
    invalid_arg "Graph.zip_labels: wrong array length";
  { g with labels = Array.mapi (fun v l -> Label.Pair (l, extra.(v))) g.labels }

let permute_ports g perms =
  if Array.length perms <> g.n then
    invalid_arg "Graph.permute_ports: wrong outer array length";
  let nbr' = Array.make (Array.length g.nbr) 0 in
  let hit = Array.make (max (max_degree g) 1) false in
  let still_sorted = ref true in
  for v = 0 to g.n - 1 do
    let base = g.offsets.(v) in
    let d = g.offsets.(v + 1) - base in
    let p = perms.(v) in
    if Array.length p <> d then
      invalid_arg "Graph.permute_ports: wrong permutation length";
    Array.fill hit 0 d false;
    for j = 0 to d - 1 do
      let pj = p.(j) in
      if pj < 0 || pj >= d || hit.(pj) then
        invalid_arg "Graph.permute_ports: not a permutation";
      hit.(pj) <- true;
      nbr'.(base + j) <- g.nbr.(base + pj);
      if j > 0 && nbr'.(base + j) < nbr'.(base + j - 1) then
        still_sorted := false
    done
  done;
  { g with nbr = nbr'; sorted = g.sorted && !still_sorted }

let fold_nodes g ~init ~f =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f !acc v
  done;
  !acc

let iter_nodes g ~f =
  for v = 0 to g.n - 1 do
    f v
  done

let iter_edges g ~f =
  (* Node index ascending, ports descending within a node: the order
     [Graph_io.save] writes edges in and [Lift] builds its copies in. *)
  for v = 0 to g.n - 1 do
    for k = g.offsets.(v + 1) - 1 downto g.offsets.(v) do
      let u = g.nbr.(k) in
      if v < u then f v u
    done
  done
