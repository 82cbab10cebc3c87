module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Encode = Anonet_graph.Encode
module Props = Anonet_graph.Props
module View_graph = Anonet_views.View_graph
module Interned = Anonet_views.Interned

type t = {
  graph : Graph.t;
  me : int;
  quotient_depth : int;
  encoding : string;
}

let strip_b g = Graph.map_labels g Label.fst

let assignment_of g =
  Array.map (fun l -> Label.to_bits (Label.snd l)) (Graph.labels g)

(* Quotient of the gathered view [k] by equality of depth-[q] truncations.
   Returns the quotient graph and the class index of [k]'s own root, or
   [None] when the quotient is not a well-defined simple connected graph. *)
let quotient k ~q =
  let witnesses =
    List.filter (fun sub -> Interned.depth sub >= q + 1) (Interned.subtrees k)
  in
  if witnesses = [] then None
  else begin
    (* Classes in canonical order of their truncated trees. *)
    let class_trees =
      List.sort_uniq Interned.compare
        (List.map (fun sub -> Interned.truncate sub ~depth:q) witnesses)
    in
    (* Interned ids make the class lookup O(1): equal trees have equal
       ids, so an id-keyed table finds every tree's class.  [quotient]
       runs once per depth per phase and looks up every witness and every
       witness child. *)
    let index = Hashtbl.create 16 in
    List.iteri
      (fun i (t : Interned.t) -> Hashtbl.replace index (Interned.id t) i)
      class_trees;
    let class_index (tree : Interned.t) =
      Hashtbl.find_opt index (Interned.id tree)
    in
    let k_classes = List.length class_trees in
    let exception Reject in
    try
      let adjacency = Array.make k_classes None in
      List.iter
        (fun sub ->
          let c =
            match class_index (Interned.truncate sub ~depth:q) with
            | Some c -> c
            | None -> raise Reject
          in
          let nbrs =
            List.map
              (fun child ->
                match class_index (Interned.truncate child ~depth:q) with
                | Some c' -> c'
                | None -> raise Reject (* neighbor class has no witness *))
              (Interned.children sub)
          in
          let nbrs = List.sort Int.compare nbrs in
          (* simple graph: no loops, no parallel edges *)
          if List.exists (fun c' -> c' = c) nbrs then raise Reject;
          let rec has_dup = function
            | a :: (b :: _ as rest) -> a = b || has_dup rest
            | _ -> false
          in
          if has_dup nbrs then raise Reject;
          match adjacency.(c) with
          | None -> adjacency.(c) <- Some nbrs
          | Some existing -> if existing <> nbrs then raise Reject)
        witnesses;
      let adjacency =
        Array.map
          (function Some nbrs -> nbrs | None -> raise Reject)
          adjacency
      in
      let edges =
        List.concat
          (List.init k_classes (fun c ->
               List.filter_map
                 (fun c' -> if c < c' then Some (c, c') else None)
                 adjacency.(c)))
      in
      let labels =
        Array.of_list (List.map Interned.mark class_trees)
      in
      let g = Graph.create ~n:k_classes ~edges ~labels in
      if not (Props.is_connected g) then None
      else begin
        match class_index (Interned.truncate k ~depth:q) with
        | None -> None
        | Some me -> Some (g, me)
      end
    with Reject -> None
  end

(* Shared acceptance pipeline: literal C1/C2/C3 checks, then keep the
   candidate's finite view graph per Update-Graph. *)
let accept_candidate ~phase:p ~knowledge:k ~is_instance (g, me, q) =
  if Graph.n g > p then None (* C1 *)
  else if
    (* C2: the candidate's own depth-p view at [me] must reproduce the
       gathered view exactly. *)
    not (Interned.equal k (Interned.of_graph g ~root:me ~depth:p))
  then None
  else if not (is_instance (strip_b g)) then None (* C3 *)
  else begin
    match View_graph.of_graph g with
    | Error _ -> None
    | Ok vg ->
      let graph = vg.View_graph.graph in
      let me = vg.View_graph.map.(me) in
      let encoding = Encode.canonical graph in
      Some { graph; me; quotient_depth = q; encoding }
  end

let compare_candidates a b =
  Encode.compare_sized (Graph.n a.graph, a.encoding) (Graph.n b.graph, b.encoding)

let rec dedupe_sorted = function
  | a :: b :: rest when String.equal a.encoding b.encoding -> dedupe_sorted (a :: rest)
  | a :: rest -> a :: dedupe_sorted rest
  | [] -> []

let from_knowledge k ~phase ~is_instance =
  let p = phase in
  let depth_k = Interned.depth k in
  (* The single-node case: a degree-0 root has the whole graph in view. *)
  let singleton =
    if Interned.children k = [] then
      [ Graph.create ~n:1 ~edges:[] ~labels:[| Interned.mark k |], 0, 0 ]
    else []
  in
  let quotients =
    List.filter_map
      (fun q ->
        match quotient k ~q with
        | Some (g, me) -> Some (g, me, q)
        | None -> None)
      (List.init (max 0 (depth_k - 1)) (fun i -> i + 1))
  in
  let accepted =
    List.filter_map
      (accept_candidate ~phase:p ~knowledge:k ~is_instance)
      (singleton @ quotients)
  in
  (* Deduplicate by encoding (several quotient depths can yield the same
     finite view graph). *)
  dedupe_sorted (List.sort compare_candidates accepted)

(* ---------- literal enumeration (cross-check; see DESIGN.md) ---------- *)

(* Enumerate every connected labeled graph with at most [max_n] nodes over
   the given label alphabet — astronomically wasteful, exactly like the
   paper's candidate set, and therefore only usable for max_n <= 4 and
   tiny alphabets.  Used by the tests to validate the quotient
   construction against the letter of Figure 3. *)
let literal_candidates k ~phase ~alphabet ~is_instance =
  let p = phase in
  let max_n = min p 4 in
  let alphabet = Array.of_list alphabet in
  let a = Array.length alphabet in
  if a = 0 then invalid_arg "Candidates.literal_candidates: empty alphabet";
  let all_pairs n =
    List.concat (List.init n (fun u -> List.init (n - 1 - u) (fun j -> u, u + 1 + j)))
  in
  let candidates = ref [] in
  for n = 1 to max_n do
    let pairs = Array.of_list (all_pairs n) in
    let num_masks = 1 lsl Array.length pairs in
    let num_labelings =
      int_of_float (float_of_int a ** float_of_int n +. 0.5)
    in
    for mask = 0 to num_masks - 1 do
      let edges =
        List.filteri (fun i _ -> mask lsr i land 1 = 1) (Array.to_list pairs)
      in
      (* quick connectivity pre-check on the unlabeled shape *)
      let shape = Graph.unlabeled ~n ~edges in
      if Props.is_connected shape then begin
        for code = 0 to num_labelings - 1 do
          let labels =
            Array.init n (fun v ->
                let rec digit x i = if i = 0 then x mod a else digit (x / a) (i - 1) in
                alphabet.(digit code v))
          in
          let g = Graph.with_labels shape labels in
          (* C2 requires SOME node; try all. *)
          let rec try_nodes v =
            if v >= n then ()
            else begin
              (match
                 accept_candidate ~phase:p ~knowledge:k ~is_instance (g, v, 0)
               with
               | Some c -> candidates := c :: !candidates
               | None -> ());
              try_nodes (v + 1)
            end
          in
          try_nodes 0
        done
      end
    done
  done;
  dedupe_sorted (List.sort compare_candidates !candidates)
