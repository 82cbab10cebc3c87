(* Brute-force oracles for the minimal-successful-simulation search.

   [Min_search] explores one predetermined total order on bit assignments
   (length first, then round-major lexicographic) with a pruned,
   deduplicated breadth-first search.  This module enumerates assignments
   outright instead, in the paper's literal order of Section 2.2 — length
   first, then lexicographic on [(b(u_1), ..., b(u_k))] ("node-major") —
   and simulates every one.  Exponential in the free bits, so only for
   tiny instances: it is what the efficient search is checked against. *)

open Anonet_graph
open Anonet

let compare_lengths a b =
  let lens x = List.sort Int.compare (Array.to_list (Array.map Bits.length x)) in
  List.compare Int.compare (lens a) (lens b)

(* The paper's order: length first (uniform lengths compared as integers,
   non-uniform ones by their sorted length vectors), then node-major
   lexicographic. *)
let compare_node_major a b =
  let c = compare_lengths a b in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= Array.length a then 0
      else begin
        let c = Bits.compare_lex a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

(* The number of free bit positions an extension of [base] to length
   [len] must fill. *)
let free_bits base ~len =
  Array.fold_left
    (fun acc s ->
      if Bits.length s > len then
        invalid_arg "Search_oracle.free_bits: base longer than target length";
      acc + (len - Bits.length s))
    0 base

(* Every assignment extending [base] with all strings of length exactly
   [len], in node-major lexicographic order: the integer [code] fills the
   free positions, node 0's suffix in its most significant bits. *)
let extensions base ~len =
  let f = free_bits base ~len in
  if f > 24 then invalid_arg "Search_oracle.extensions: too many free bits";
  let assignment_of code =
    let shift = ref f in
    Array.map
      (fun s ->
        let k = len - Bits.length s in
        shift := !shift - k;
        Bits.concat s
          (Bits.of_list
             (List.init k (fun j -> code lsr (!shift + k - 1 - j) land 1 = 1))))
      base
  in
  Seq.map assignment_of (Seq.init (1 lsl f) Fun.id)

(* The successful extensions of [base] to exactly [len], in node-major
   order, each with its simulation. *)
let successes ~solver g ~base ~len =
  Seq.filter_map
    (fun bits ->
      let sim = Simulation.run ~solver g ~bits in
      if sim.Simulation.successful then Some (bits, sim) else None)
    (extensions base ~len)

(* The round-major least successful extension of [base] to exactly [len] —
   what [Min_search.Resumable.extend ~len] must return. *)
let round_major_exactly ~solver g ~base ~len =
  Seq.fold_left
    (fun best ((bits, _) as s) ->
      match best with
      | Some (b, _) when Bit_assignment.compare_round_major b bits <= 0 -> best
      | _ -> Some s)
    None
    (successes ~solver g ~base ~len)

(* The shortest lengths first, from the longest base string up to
   [max_len]: the first length holding a success, searched with [find]. *)
let first_length find ~base ~max_len =
  let rec go len =
    if len > max_len then None
    else match find len with Some s -> Some s | None -> go (len + 1)
  in
  go (Bit_assignment.max_length base)

(* The round-major minimum over lengths up to [max_len] — what
   [Min_search.minimal_successful ~max_len] must return. *)
let round_major_at_most ~solver g ~base ~max_len =
  first_length (fun len -> round_major_exactly ~solver g ~base ~len) ~base ~max_len

(* The node-major minimum over lengths up to [max_len]: the enumeration is
   sorted, so the first success of the shortest successful length. *)
let node_major_at_most ~solver g ~base ~max_len =
  first_length
    (fun len -> Seq.uncons (successes ~solver g ~base ~len) |> Option.map fst)
    ~base ~max_len
