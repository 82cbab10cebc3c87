module Graph = Anonet_graph.Graph

(* Non-backtracking subtrees interned on (node, parent, depth).  The memo is
   shared across every root of one [truncation g], so [classes_at_depth]
   builds all n truncations in O(n * depth * Δ) interning steps total. *)
let truncation g =
  let memo = Hashtbl.create 64 in
  let rec subtree v ~parent d =
    match Hashtbl.find_opt memo (v, parent, d) with
    | Some t -> t
    | None ->
      let t =
        if d = 1 then Interned.leaf (Graph.label g v)
        else
          Array.to_list (Graph.neighbors g v)
          |> List.filter (fun u -> u <> parent)
          |> List.map (fun u -> subtree u ~parent:v (d - 1))
          |> Interned.node (Graph.label g v)
      in
      Hashtbl.add memo (v, parent, d) t;
      t
  in
  fun ~root ~depth ->
    if depth < 1 then invalid_arg "Universal_cover.truncation: need depth >= 1";
    if depth = 1 then Interned.leaf (Graph.label g root)
    else
      Array.to_list (Graph.neighbors g root)
      |> List.map (fun u -> subtree u ~parent:root (depth - 1))
      |> Interned.node (Graph.label g root)

let classes_at_depth g d =
  let build = truncation g in
  let n = Graph.n g in
  let trees = Array.init n (fun v -> build ~root:v ~depth:d) in
  let distinct = List.sort_uniq Interned.compare (Array.to_list trees) in
  (* Interning makes each tree physically equal to its representative in
     [distinct], so a table keyed by interned id finds every node's class
     in O(1). *)
  let index : (int, int) Hashtbl.t = Hashtbl.create (List.length distinct) in
  List.iteri (fun i t -> Hashtbl.replace index (Interned.id t) i) distinct;
  Array.map (fun t -> Hashtbl.find index (Interned.id t)) trees

(* Two class arrays over the same nodes induce the same partition. *)
let same_partition a b =
  let n = Array.length a in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if a.(u) = a.(v) <> (b.(u) = b.(v)) then ok := false
    done
  done;
  !ok

let stable_depth g =
  let target = (Refinement.run g).Refinement.classes in
  let rec search d =
    if d > max 1 (Graph.n g) then d (* should not happen; Norris bounds it *)
    else if same_partition (classes_at_depth g d) target then d
    else search (d + 1)
  in
  search 1

let agrees_with_views g ~depth =
  if depth < max 1 (Graph.n g) then
    invalid_arg "Universal_cover.agrees_with_views: need depth >= n";
  same_partition (classes_at_depth g depth) (Refinement.classes_at_depth g depth)
