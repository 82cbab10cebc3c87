module Bits = Anonet_graph.Bits

type t = Bits.t array

let make n ~len = Array.make n (Bits.zero len)

let empty n = Array.make n Bits.empty

let min_length b =
  Array.fold_left (fun m s -> min m (Bits.length s)) max_int b
  |> fun m -> if m = max_int then 0 else m

let max_length b = Array.fold_left (fun m s -> max m (Bits.length s)) 0 b

let is_uniform b = min_length b = max_length b

let is_extension ~base b =
  Array.length base = Array.length b
  && Array.for_all2 (fun p s -> Bits.is_prefix ~prefix:p s) base b

let compare_lengths a b =
  let lens x = List.sort Int.compare (Array.to_list (Array.map Bits.length x)) in
  List.compare Int.compare (lens a) (lens b)

let compare_round_major a b =
  let c = compare_lengths a b in
  if c <> 0 then c
  else begin
    let rounds = max_length a in
    let rec by_round r =
      if r >= rounds then 0
      else begin
        let rec by_node i =
          if i >= Array.length a then by_round (r + 1)
          else begin
            let bit x = if r < Bits.length x.(i) then Some (Bits.get x.(i) r) else None in
            match bit a, bit b with
            | Some x, Some y when x <> y -> Bool.compare x y
            | _, _ -> by_node (i + 1)
          end
        in
        by_node 0
      end
    in
    by_round 0
  end

let lift ~map b = Array.map (fun c -> b.(c)) map

let pp fmt b =
  Format.fprintf fmt "@[<h>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") Bits.pp)
    (Array.to_list b)
