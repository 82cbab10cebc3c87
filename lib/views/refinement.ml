module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label

type result = {
  classes : int array;
  num_classes : int;
  stable_view_depth : int;
  history : int array list;
}

(* Assign canonical class numbers: sort the distinct keys under the given
   (explicit, monomorphic) order, number them in order, and map each node to
   its key's number. *)
let number_by_sorted_keys ~compare keys =
  let distinct = List.sort_uniq compare (Array.to_list keys) in
  let table = Hashtbl.create (List.length distinct) in
  List.iteri (fun i k -> Hashtbl.replace table k i) distinct;
  Array.map (fun k -> Hashtbl.find table k) keys

let initial g =
  (* Initial classes are numbered in the String.compare order of the
     encoded labels, so the numbering depends on the labels alone. *)
  number_by_sorted_keys ~compare:String.compare
    (Array.init (Graph.n g) (fun v -> Label.encode (Graph.label g v)))

(* Lexicographic order on signatures: element-wise, a proper prefix
   first.  Classes are numbered in this order, so the numbering is
   canonical — independent of node indices. *)
let compare_int_arrays (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la then if i >= lb then 0 else -1
    else if i >= lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let refine_once g classes =
  (* Flat sorted-int-array signatures (old class first, then the sorted
     neighbor classes): this path runs once per quotient depth per phase
     in candidate construction, so the per-element list cells added up. *)
  let signature v =
    let d = Graph.degree g v in
    let nbr = Array.init d (fun j -> classes.(Graph.neighbor g v j)) in
    Array.sort Int.compare nbr;
    let s = Array.make (d + 1) classes.(v) in
    (* Prefixing the old class makes the new partition refine the old one. *)
    Array.blit nbr 0 s 1 d;
    s
  in
  number_by_sorted_keys ~compare:compare_int_arrays
    (Array.init (Graph.n g) signature)

let count_classes classes =
  1 + Array.fold_left max (-1) classes

let run g =
  if Graph.n g = 0 then
    { classes = [||]; num_classes = 0; stable_view_depth = 1; history = [] }
  else begin
    let n = Graph.n g in
    let rec go classes history rounds =
      (* A discrete partition is a fixpoint: every signature leads with
         its node's unique class, so renumbering reproduces [classes]
         exactly — skip the confirming refinement round. *)
      if count_classes classes = n then
        {
          classes;
          num_classes = n;
          stable_view_depth = rounds + 1;
          history = List.rev history;
        }
      else
        let next = refine_once g classes in
        if next = classes then
          {
            classes;
            num_classes = count_classes classes;
            (* Partition after round r equals depth-(r+1) views; it was
               already stable at round [rounds], i.e. at view depth
               [rounds + 1]. *)
            stable_view_depth = rounds + 1;
            history = List.rev history;
          }
        else go next (next :: history) (rounds + 1)
    in
    let c0 = initial g in
    go c0 [ c0 ] 0
  end

let classes_at_depth g d =
  if d < 1 then invalid_arg "Refinement.classes_at_depth: need depth >= 1";
  let n = Graph.n g in
  let rec go classes r =
    (* Discrete partitions are fixpoints of [refine_once]: stop early. *)
    if r = 0 || count_classes classes = n then classes
    else go (refine_once g classes) (r - 1)
  in
  go (initial g) (d - 1)
