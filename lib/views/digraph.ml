module Label = Anonet_graph.Label

type t = {
  n : int;
  out : (int * Label.t) list array;
  into : (int * Label.t) list array;
}

let create ~n ~arcs =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  let out = Array.make n [] and into = Array.make n [] in
  let seen = Hashtbl.create (List.length arcs) in
  List.iter
    (fun (u, v, c) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: arc endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop";
      let key = u, v, Label.encode c in
      if Hashtbl.mem seen key then invalid_arg "Digraph.create: duplicate arc";
      Hashtbl.add seen key ();
      out.(u) <- (v, c) :: out.(u);
      into.(v) <- (u, c) :: into.(v))
    arcs;
  { n; out; into }

let n g = g.n

let num_arcs g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.out

let out_arcs g v = g.out.(v)

let has_arc g u v color =
  List.exists (fun (w, c) -> w = v && Label.equal c color) g.out.(u)

let is_symmetric g ~mate =
  let ok = ref true in
  Array.iteri
    (fun u arcs ->
      List.iter (fun (v, c) -> if not (has_arc g v u (mate c)) then ok := false) arcs)
    g.out;
  !ok

let is_deterministic g =
  Array.for_all
    (fun arcs ->
      let colors = List.sort Label.compare (List.map snd arcs) in
      let rec distinct = function
        | a :: (b :: _ as rest) -> (not (Label.equal a b)) && distinct rest
        | _ -> true
      in
      distinct colors)
    g.out
