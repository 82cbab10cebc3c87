(* Packed bit vectors over [Bytes] — the flat representation of "one random
   bit per node per round".  Compared to [bool array] this is 8x denser and
   copies with [Bytes.blit]; compared to [Bits.t] (a '0'/'1' string) it is
   mutable, so search loops can fill one preallocated vector per round
   instead of allocating per state.  Little-endian within a byte: bit [i]
   lives in byte [i lsr 3] at weight [1 lsl (i land 7)]. *)

type t = {
  len : int;
  data : Bytes.t;
}

let bytes_for len = (len + 7) lsr 3

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; data = Bytes.make (bytes_for len) '\000' }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get: out of bounds";
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

(* Bounds-unchecked variant for loops that already know the range. *)
let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

let set t i b =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.set: out of bounds";
  let j = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get t.data j) in
  Bytes.unsafe_set t.data j
    (Char.unsafe_chr (if b then c lor mask else c land lnot mask))

let unsafe_set t i b =
  let j = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.unsafe_get t.data j) in
  Bytes.unsafe_set t.data j
    (Char.unsafe_chr (if b then c lor mask else c land lnot mask))

let clear t = Bytes.fill t.data 0 (Bytes.length t.data) '\000'

let copy t = { len = t.len; data = Bytes.copy t.data }

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i b -> if b then unsafe_set t i true) a;
  t
