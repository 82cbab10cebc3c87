(* Bitstrings are stored as strings of '0'/'1' characters.  At the scales of
   this library (tapes and colors of at most a few hundred bits) this is both
   simple and fast, and it makes the lexicographic orders coincide with
   [String.compare]. *)

type t = string

let empty = ""

let length = String.length

let is_empty b = String.length b = 0

let char_of_bit x = if x then '1' else '0'

let bit_of_char = function
  | '0' -> false
  | '1' -> true
  | c -> invalid_arg (Printf.sprintf "Bits.of_string: invalid character %C" c)

let append b x = b ^ String.make 1 (char_of_bit x)

let get b i =
  if i < 0 || i >= String.length b then invalid_arg "Bits.get: out of bounds";
  b.[i] = '1'

let of_list xs = String.init (List.length xs) (fun i -> char_of_bit (List.nth xs i))

let to_list b = List.init (String.length b) (fun i -> b.[i] = '1')

let of_string s =
  String.iter (fun c -> ignore (bit_of_char c)) s;
  s

let to_string b = b

let concat a b = a ^ b

let take b n =
  if n < 0 || n > String.length b then invalid_arg "Bits.take: out of bounds";
  String.sub b 0 n

let is_prefix ~prefix b =
  let lp = String.length prefix in
  lp <= String.length b && String.sub b 0 lp = prefix

let compare_lex = String.compare

let compare a b =
  let c = Int.compare (String.length a) (String.length b) in
  if c <> 0 then c else String.compare a b

let equal = String.equal

let hash = Hashtbl.hash

let zero n = String.make n '0'

let of_int ~width x =
  if x < 0 || (width < 62 && x lsr width <> 0) then
    invalid_arg "Bits.of_int: value does not fit";
  String.init width (fun i -> char_of_bit (x lsr (width - 1 - i) land 1 = 1))

let to_int b =
  if String.length b > 62 then invalid_arg "Bits.to_int: too long";
  String.fold_left (fun acc c -> (acc lsl 1) lor (if c = '1' then 1 else 0)) 0 b

let enumerate n =
  if n > 30 then invalid_arg "Bits.enumerate: too long";
  let limit = 1 lsl n in
  let rec from i () =
    if i >= limit then Seq.Nil else Seq.Cons (of_int ~width:n i, from (i + 1))
  in
  from 0

(* 59 bits keep every code, sentinel included, below [1 lsl 60]. *)
let code_max_length = 59

let to_code b =
  let len = String.length b in
  if len > code_max_length then invalid_arg "Bits.to_code: too long";
  (1 lsl len) lor to_int b

let of_code c =
  if c < 1 then invalid_arg "Bits.of_code: not a code";
  let len = ref 0 in
  while c lsr !len > 1 do incr len done;
  of_int ~width:!len (c - (1 lsl !len))

let append_code c x =
  if c >= 1 lsl code_max_length then invalid_arg "Bits.append_code: overflow";
  (c * 2) + if x then 1 else 0

let pp fmt b = Format.pp_print_string fmt (if b = "" then "ε" else b)
