(* Splitmix64: tiny, fast, and statistically fine for simulation purposes.
   Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [bool (create seed)] with the state kept in unboxed [int64] locals. *)
let first_bool seed =
  Int64.logand (mix (Int64.add (mix (Int64.of_int seed)) golden)) 1L = 1L

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* Rejection sampling on the low 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let x = Int64.to_int (bits64 t) land mask in
    let r = x mod bound in
    if x - r + (bound - 1) >= 0 then r else draw ()
  in
  draw ()

let float t =
  (* 53 uniform bits over [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

let hash2 a b =
  (* One splitmix step per word: mix the first seed, advance by the second
     scaled by the golden ratio, and mix again — a proper avalanche over
     both inputs, unlike the arithmetic [seed + c * i] it replaces. *)
  let z = Int64.add (mix (Int64.of_int a)) (Int64.mul (Int64.of_int b) golden) in
  (* Drop to 62 bits: [to_int] of a 63-bit value can wrap negative on
     OCaml's 63-bit native ints. *)
  Int64.to_int (Int64.shift_right_logical (mix z) 2)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
