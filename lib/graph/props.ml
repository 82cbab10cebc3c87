let bfs_distances g v =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(v) <- 0;
  Queue.add v queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u ~f:(fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(u) + 1;
          Queue.add w queue
        end)
  done;
  dist

let is_connected g =
  let n = Graph.n g in
  n = 0 || Array.for_all (fun d -> d < max_int) (bfs_distances g 0)

let diameter g =
  if Graph.n g = 0 then invalid_arg "Props.diameter: empty graph";
  let diam = ref 0 in
  Graph.iter_nodes g ~f:(fun v ->
      Array.iter
        (fun d ->
          if d = max_int then invalid_arg "Props.diameter: disconnected graph";
          if d > !diam then diam := d)
        (bfs_distances g v));
  !diam

let k_hop_neighbors g v k =
  let dist = bfs_distances g v in
  Graph.fold_nodes g ~init:[] ~f:(fun acc u ->
      if u <> v && dist.(u) <= k then u :: acc else acc)
  |> List.sort Int.compare

(* One depth-bounded BFS per node over the CSR slices, sharing its scratch
   across nodes: [stamp.(w) = v] marks w as visited in v's ball (no
   per-node clear), and only nodes at depth < k are expanded. *)
let is_k_hop_coloring g k labeling =
  let n = Graph.n g in
  let labels = Array.init n labeling in
  let offsets = Graph.offsets g and adj = Graph.adjacency g in
  let stamp = Array.make n (-1) in
  let depth = Array.make n 0 in
  let queue = Array.make n 0 in
  let ball_is_clean v =
    let lv = labels.(v) in
    stamp.(v) <- v;
    depth.(v) <- 0;
    queue.(0) <- v;
    let head = ref 0 and tail = ref 1 and clean = ref true in
    while !clean && !head < !tail do
      let u = queue.(!head) in
      incr head;
      if depth.(u) < k then
        for i = offsets.(u) to offsets.(u + 1) - 1 do
          let w = adj.(i) in
          if stamp.(w) <> v then begin
            stamp.(w) <- v;
            depth.(w) <- depth.(u) + 1;
            if Label.equal labels.(w) lv then clean := false;
            queue.(!tail) <- w;
            incr tail
          end
        done
    done;
    !clean
  in
  let rec from v = v >= n || (ball_is_clean v && from (v + 1)) in
  from 0

let is_two_hop_colored g = is_k_hop_coloring g 2 (Graph.label g)

let distinct_labels g =
  let seen = Hashtbl.create 16 in
  Graph.iter_nodes g ~f:(fun v ->
      Hashtbl.replace seen (Label.encode (Graph.label g v)) ());
  Hashtbl.length seen

let degree_histogram g =
  let table = Hashtbl.create 8 in
  Graph.iter_nodes g ~f:(fun v ->
      let d = Graph.degree g v in
      let c = Option.value ~default:0 (Hashtbl.find_opt table d) in
      Hashtbl.replace table d (c + 1));
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
