module Bits = Anonet_graph.Bits
module Prng = Anonet_graph.Prng
module Bitvec = Anonet_graph.Bitvec

type t =
  | Random of int
  | Fixed of Bits.t array
  | Zero

let random ~seed = Random seed

let fixed bits = Fixed (Array.copy bits)

let zero = Zero

(* Counter-mode splitmix: derive the bit from (seed, node, round) so the
   tape supports random access and is reproducible.  [Prng.first_bool]
   builds no generator, so filling a round's bits allocates nothing. *)
let random_bit seed ~node ~round =
  Prng.first_bool ((seed * 1_000_003) + (node * 7_919) + round)

let bit t ~node ~round =
  match t with
  | Zero -> Some false
  | Random seed -> Some (random_bit seed ~node ~round)
  | Fixed bits ->
    if node >= Array.length bits then None
    else begin
      let b = bits.(node) in
      if round <= Bits.length b then Some (Bits.get b (round - 1)) else None
    end

let horizon t ~nodes =
  match t with
  | Zero | Random _ -> max_int
  | Fixed bits ->
    let h = ref max_int in
    for v = 0 to nodes - 1 do
      let len = if v < Array.length bits then Bits.length bits.(v) else 0 in
      if len < !h then h := len
    done;
    !h

let fill t ~round bits =
  let n = Bitvec.length bits in
  match t with
  | Fixed b ->
    horizon t ~nodes:n >= round
    && begin
      for v = 0 to n - 1 do
        Bitvec.unsafe_set bits v (Bits.get b.(v) (round - 1))
      done;
      true
    end
  | Zero ->
    Bitvec.clear bits;
    true
  | Random seed ->
    for v = 0 to n - 1 do
      Bitvec.unsafe_set bits v (random_bit seed ~node:v ~round)
    done;
    true
