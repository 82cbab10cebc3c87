module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Obs = Anonet_obs.Obs

(* A view node is an integer handle, its slot in the current arena; all
   node attributes (mark, size, depth, children) live in flat column arrays
   instead of per-node records, so there is no box per view node: the whole
   store is a handful of arrays the GC scans as units. *)

type t = int

let equal (a : t) (b : t) = Int.equal a b

let id (t : t) = t

(* Unfolded-tree sizes grow like Δ^depth; saturate instead of wrapping so the
   stored count stays a valid sort key at any depth. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

module Key = struct
  type t = Label.t * int list (* root mark, child ids in canonical order *)

  let equal (m1, c1) (m2, c2) = List.equal Int.equal c1 c2 && Label.equal m1 m2

  let hash (m, cs) =
    List.fold_left (fun h i -> (h * 31) + i + 1) (Label.hash m) cs land max_int
end

module Tbl = Hashtbl.Make (Key)

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

(* ---------- the arena ---------- *)

(* One arena holds the intern table, the node columns and every memo keyed
   by its handles.  It belongs to whoever installed it ([with_arena]: a
   job, an experiment row) and is reached through one domain-local slot, so
   nothing here is shared between domains and nothing takes a lock. *)
type arena = {
  tbl : int Tbl.t;  (* intern key -> handle; its length is the slots in use *)
  mutable marks : Label.t array;
  mutable sizes : int array;
  mutable depths : int array;
  mutable coff : int array;  (* [coff.(t) .. coff.(t+1)) delimits [cids] *)
  mutable cids : int array;  (* flat concatenation of child handles *)
  compare_memo : (int * int, int) Hashtbl.t;
  truncate_memo : (int * int, t) Hashtbl.t;
  to_label_memo : (int, Label.t) Hashtbl.t;
  of_label_memo : t Label_tbl.t;
}

(* Small at first: a job's arena lives as long as the job, and the tiny
   jobs of a server's stream would otherwise pay for large tables. *)
let fresh () =
  {
    tbl = Tbl.create 64;
    marks = Array.make 64 Label.Unit;
    sizes = Array.make 64 0;
    depths = Array.make 64 0;
    coff = Array.make 65 0;
    cids = Array.make 256 0;
    compare_memo = Hashtbl.create 64;
    truncate_memo = Hashtbl.create 16;
    to_label_memo = Hashtbl.create 16;
    of_label_memo = Label_tbl.create 16;
  }

let arena_key = Domain.DLS.new_key fresh

let arena () = Domain.DLS.get arena_key

let with_arena f =
  let saved = arena () in
  Domain.DLS.set arena_key (fresh ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set arena_key saved) f

let mark t = (arena ()).marks.(t)

let size t = (arena ()).sizes.(t)

let depth t = (arena ()).depths.(t)

let children_in a t =
  let s = a.coff.(t) in
  List.init (a.coff.(t + 1) - s) (fun j -> a.cids.(s + j))

let children t = children_in (arena ()) t

(* Process totals over every arena, so a caller can difference them around
   a job whose arena is gone by the time it looks. *)
let intern_hits = Atomic.make 0

let intern_misses = Atomic.make 0

(* [arr] itself when it has [need] cells, else a doubled copy that does. *)
let enlarge arr need fill =
  let len = Array.length arr in
  if need <= len then arr
  else begin
    let rec fit c = if c >= need then c else fit (2 * c) in
    let arr' = Array.make (fit len) fill in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

(* [child_ids] must already be in canonical sibling order; [node] sorts,
   [truncate] and [of_graph] go through [node]. *)
let intern_in a mark child_ids =
  let key = mark, child_ids in
  match Tbl.find_opt a.tbl key with
  | Some t ->
    Atomic.incr intern_hits;
    t
  | None ->
    Atomic.incr intern_misses;
    let t = Tbl.length a.tbl in
    let start = a.coff.(t) and nc = List.length child_ids in
    a.marks <- enlarge a.marks (t + 1) Label.Unit;
    a.sizes <- enlarge a.sizes (t + 1) 0;
    a.depths <- enlarge a.depths (t + 1) 0;
    a.coff <- enlarge a.coff (t + 2) 0;
    a.cids <- enlarge a.cids (start + nc) 0;
    a.marks.(t) <- mark;
    a.sizes.(t) <- List.fold_left (fun s c -> sat_add s a.sizes.(c)) 1 child_ids;
    a.depths.(t) <- 1 + List.fold_left (fun m c -> max m a.depths.(c)) 0 child_ids;
    List.iteri (fun j c -> a.cids.(start + j) <- c) child_ids;
    a.coff.(t + 1) <- start + nc;
    Tbl.add a.tbl key t;
    t

(* ---------- canonical order ---------- *)

(* Structural compare decided over ids: each distinct (id, id) pair is
   resolved once per arena and memoized.  The child walk runs directly over
   the flat [cids] column — no sibling lists are materialized. *)
let rec compare_in a (x : t) (y : t) =
  if x = y then 0
  else begin
    match Hashtbl.find_opt a.compare_memo (x, y) with
    | Some c -> c
    | None ->
      let c =
        let cm = Label.compare a.marks.(x) a.marks.(y) in
        if cm <> 0 then cm
        else begin
          let x1 = a.coff.(x + 1) and y1 = a.coff.(y + 1) in
          let rec go i j =
            if i >= x1 then if j >= y1 then 0 else -1
            else if j >= y1 then 1
            else
              let c = compare_in a a.cids.(i) a.cids.(j) in
              if c <> 0 then c else go (i + 1) (j + 1)
          in
          go a.coff.(x) a.coff.(y)
        end
      in
      Hashtbl.add a.compare_memo (x, y) c;
      Hashtbl.add a.compare_memo (y, x) (-c);
      c
  end

let compare x y = if x = y then 0 else compare_in (arena ()) x y

let node_in a mark children = intern_in a mark (List.sort (compare_in a) children)

let leaf mark = intern_in (arena ()) mark []

let node mark children = node_in (arena ()) mark children

(* ---------- construction and truncation ---------- *)

let of_graph g ~root ~depth =
  if depth < 1 then invalid_arg "Interned.of_graph: need depth >= 1";
  (* Level by level: level d reuses every level-(d-1) node, so the whole
     construction interns O(n * depth) nodes regardless of how large the
     unfolded trees are. *)
  let a = arena () in
  let n = Graph.n g in
  let current = ref (Array.init n (fun v -> intern_in a (Graph.label g v) [])) in
  for _ = 2 to depth do
    let prev = !current in
    current :=
      Array.init n (fun v ->
          node_in a (Graph.label g v)
            (Array.to_list (Array.map (fun u -> prev.(u)) (Graph.neighbors g v))))
  done;
  !current.(root)

let truncate t ~depth:d0 =
  if d0 < 1 then invalid_arg "Interned.truncate: need depth >= 1";
  let a = arena () in
  let rec go t d =
    if d >= a.depths.(t) then t
    else begin
      match Hashtbl.find_opt a.truncate_memo (t, d) with
      | Some t' -> t'
      | None ->
        let t' =
          if d = 1 then intern_in a a.marks.(t) []
            (* [node] re-sorts: truncation can reorder siblings that only
               differed below the cut. *)
          else node_in a a.marks.(t) (List.map (fun c -> go c (d - 1)) (children_in a t))
        in
        Hashtbl.add a.truncate_memo (t, d) t';
        t'
    end
  in
  go t d0

let subtrees t =
  let a = arena () in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      acc := t :: !acc;
      for j = a.coff.(t) to a.coff.(t + 1) - 1 do
        visit a.cids.(j)
      done
    end
  in
  visit t;
  !acc

(* ---------- rendering ---------- *)

let to_string t =
  let a = arena () in
  let buf = Buffer.create 256 in
  let rec render ~prefix ~child_prefix t =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (Label.to_string a.marks.(t));
    Buffer.add_char buf '\n';
    let last = a.coff.(t + 1) - 1 in
    for j = a.coff.(t) to last do
      if j = last then
        render ~prefix:(child_prefix ^ "└── ") ~child_prefix:(child_prefix ^ "    ")
          a.cids.(j)
      else
        render ~prefix:(child_prefix ^ "├── ") ~child_prefix:(child_prefix ^ "│   ")
          a.cids.(j)
    done
  in
  render ~prefix:"" ~child_prefix:"" t;
  Buffer.contents buf

(* ---------- label (de)serialization ---------- *)

(* DAG serialization: entries listed children-first; each entry is
   (mark, indices of children among earlier entries); the root is the last
   entry. *)
let build_label a t =
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let count = ref 0 in
  let rec visit t =
    if not (Hashtbl.mem index t) then begin
      let children = children_in a t in
      List.iter visit children;
      Hashtbl.add index t !count;
      incr count;
      let child_ixs = List.map (fun c -> Label.Int (Hashtbl.find index c)) children in
      entries := Label.Pair (a.marks.(t), Label.List child_ixs) :: !entries
    end
  in
  visit t;
  Label.List (List.rev !entries)

(* Serialization is a pure function of the handle, and A* broadcasts
   the same gathered view to every neighbor each exchange round — memoizing
   per arena means one DAG walk (and one label value) per distinct view
   instead of one per (node, round).  The shared label value also feeds the
   identity-keyed [of_label] cache on the receiving side. *)
let to_label t =
  let a = arena () in
  match Hashtbl.find_opt a.to_label_memo t with
  | Some l -> l
  | None ->
    let l = build_label a t in
    Hashtbl.add a.to_label_memo t l;
    l

let decode_label a l =
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
          arr.(i) <- Some (node_in a mark children)
        | _ -> invalid_arg "Interned.of_label: malformed entry")
      entries;
    (match arr.(Array.length arr - 1) with
     | Some t -> t
     | None -> invalid_arg "Interned.of_label: empty")
  | _ -> invalid_arg "Interned.of_label: not a list"

let of_label l =
  let a = arena () in
  match Label_tbl.find_opt a.of_label_memo l with
  | Some t -> t
  | None ->
    let t = decode_label a l in
    Label_tbl.add a.of_label_memo l t;
    t

(* ---------- statistics ---------- *)

type stats = {
  hits : int;
  misses : int;
  nodes : int;
}

let stats () =
  {
    hits = Atomic.get intern_hits;
    misses = Atomic.get intern_misses;
    nodes = Tbl.length (arena ()).tbl;
  }

let publish_metrics obs =
  if Obs.live obs then begin
    let s = stats () in
    Obs.incr ~by:s.hits (Obs.counter obs "cache.view.hits");
    Obs.incr ~by:s.misses (Obs.counter obs "cache.view.misses");
    Obs.set (Obs.gauge obs "cache.view.nodes") s.nodes
  end
