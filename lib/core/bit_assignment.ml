module Bits = Anonet_graph.Bits

type t = Bits.t array

let empty n = Array.make n Bits.empty

let max_length b = Array.fold_left (fun m s -> max m (Bits.length s)) 0 b

let lift ~map b = Array.map (fun c -> b.(c)) map
