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
   (unsorted) ports fall back to the sorting path.  Not memoized: the
   candidate order of Section 3.1 encodes each candidate once, when
   [Candidates] builds it, and A*'s process-wide candidate memo keeps the
   result. *)
let canonical g =
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

type cache_stats = {
  hits : int;
  misses : int;
}

let cache_stats () = { hits = 0; misses = 0 }
