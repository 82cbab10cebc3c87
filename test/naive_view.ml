(* Depth-d local views built straight from their definition (Section 1.1),
   as boxed trees: [L_1(v)] is a leaf marked with [v]'s label, and
   [L_{d+1}(v)] has [L_d(u)] as a child for every neighbor [u] of [v],
   siblings sorted under the canonical order (root marks first, then the
   child lists lexicographically).  Nothing here goes through [Interned]:
   this is the oracle the interned views are checked against. *)

open Anonet_graph

type t = {
  mark : Label.t;
  children : t list;
}

let rec compare a b =
  if a == b then 0
  else
    let c = Label.compare a.mark b.mark in
    if c <> 0 then c else List.compare compare a.children b.children

let node mark children = { mark; children = List.sort compare children }

let of_graph g ~root ~depth =
  (* The memo only shares equal subtrees; the tree is the same without it. *)
  let memo = Hashtbl.create 64 in
  let rec build v d =
    match Hashtbl.find_opt memo (v, d) with
    | Some t -> t
    | None ->
      let t =
        if d = 1 then node (Graph.label g v) []
        else
          node (Graph.label g v)
            (List.map (fun u -> build u (d - 1)) (Array.to_list (Graph.neighbors g v)))
      in
      Hashtbl.add memo (v, d) t;
      t
  in
  build root depth

let rec truncate t ~depth =
  if depth = 1 then node t.mark []
  else node t.mark (List.map (fun c -> truncate c ~depth:(depth - 1)) t.children)

let rec size t = List.fold_left (fun s c -> s + size c) 1 t.children

(* Figure 1's ASCII layout: one vertex per line, root first. *)
let to_string t =
  let buf = Buffer.create 256 in
  let rec render prefix child_prefix t =
    Buffer.add_string buf (prefix ^ Label.to_string t.mark ^ "\n");
    let rec each = function
      | [] -> ()
      | [ c ] -> render (child_prefix ^ "└── ") (child_prefix ^ "    ") c
      | c :: rest ->
        render (child_prefix ^ "├── ") (child_prefix ^ "│   ") c;
        each rest
    in
    each t.children
  in
  render "" "" t;
  Buffer.contents buf
