module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label

type t = {
  mark : Label.t;
  children : t list;
}

let rec compare a b =
  if a == b then 0
  else begin
    let c = Label.compare a.mark b.mark in
    if c <> 0 then c else List.compare compare a.children b.children
  end

let equal a b = compare a b = 0

(* Views built by [of_graph] / [truncate] share subtrees: the value in
   memory is a DAG even when the unfolded tree is exponential.  The
   traversals below therefore memoize on {e physical} identity, so they run
   in the size of the DAG.  (Hashtbl.hash traverses a bounded prefix of the
   value, which is a legitimate — if weak — hash for physical equality;
   collisions are resolved by [==].) *)
module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* ---------- conversions to/from the interned representation ---------- *)

let intern t =
  let memo = Phys.create 64 in
  let rec go t =
    match Phys.find_opt memo t with
    | Some i -> i
    | None ->
      (* [node] re-canonicalizes the sibling order, so [intern] is total on
         arbitrary (even unsorted) trees. *)
      let i = Interned.node t.mark (List.map go t.children) in
      Phys.add memo t i;
      i
  in
  go t

let of_interned i =
  (* Memoize on interned ids so the structural value reproduces the DAG
     sharing of the interned one — crucial for [size]/[depth]/[compare] on
     the result. *)
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go i =
    match Hashtbl.find_opt memo (Interned.id i) with
    | Some t -> t
    | None ->
      (* Interned children are sorted under [Interned.compare], which
         realizes the same total order as [compare]. *)
      let t = { mark = Interned.mark i; children = List.map go (Interned.children i) } in
      Hashtbl.add memo (Interned.id i) t;
      t
  in
  go i

let of_graph g ~root ~depth =
  if depth < 1 then invalid_arg "View.of_graph: need depth >= 1";
  of_interned (Interned.of_graph g ~root ~depth)

let depth t =
  let memo = Phys.create 64 in
  let rec go t =
    match Phys.find_opt memo t with
    | Some d -> d
    | None ->
      let d =
        match t.children with
        | [] -> 1
        | cs -> 1 + List.fold_left (fun m c -> max m (go c)) 0 cs
      in
      Phys.add memo t d;
      d
  in
  go t

let size t =
  let memo = Phys.create 64 in
  let rec go t =
    match Phys.find_opt memo t with
    | Some s -> s
    | None ->
      let s = List.fold_left (fun s c -> sat_add s (go c)) 1 t.children in
      Phys.add memo t s;
      s
  in
  go t

let truncate t ~depth =
  if depth < 1 then invalid_arg "View.truncate: need depth >= 1";
  of_interned (Interned.truncate (intern t) ~depth)

let disjoint_union g1 g2 =
  let n1 = Graph.n g1 and n2 = Graph.n g2 in
  let edges =
    Graph.edges g1 @ List.map (fun (u, v) -> u + n1, v + n1) (Graph.edges g2)
  in
  let labels =
    Array.init (n1 + n2) (fun v ->
        if v < n1 then Graph.label g1 v else Graph.label g2 (v - n1))
  in
  (* The union is disconnected, which [Graph.create] allows; only the model
     requires connectivity, and this graph is internal to the comparison. *)
  Graph.create ~n:(n1 + n2) ~edges ~labels

let equal_nodes (g1, v1) (g2, v2) ~depth =
  if depth < 1 then invalid_arg "View.equal_nodes: need depth >= 1";
  let u = disjoint_union g1 g2 in
  let classes = Refinement.classes_at_depth u depth in
  classes.(v1) = classes.(Graph.n g1 + v2)

let to_string t =
  let buf = Buffer.create 256 in
  let rec render ~prefix ~child_prefix t =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (Label.to_string t.mark);
    Buffer.add_char buf '\n';
    let rec each = function
      | [] -> ()
      | [ c ] ->
        render ~prefix:(child_prefix ^ "└── ") ~child_prefix:(child_prefix ^ "    ") c
      | c :: rest ->
        render ~prefix:(child_prefix ^ "├── ") ~child_prefix:(child_prefix ^ "│   ") c;
        each rest
    in
    each t.children
  in
  render ~prefix:"" ~child_prefix:"" t;
  Buffer.contents buf
