type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Bits of Bits.t
  | Pair of t * t
  | List of t list

let tag = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Bits _ -> 4
  | Pair _ -> 5
  | List _ -> 6

let rec compare a b =
  match a, b with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bits x, Bits y -> Bits.compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
    let c = compare x1 y1 in
    if c <> 0 then c else compare x2 y2
  | List xs, List ys -> List.compare compare xs ys
  | (Unit | Bool _ | Int _ | Str _ | Bits _ | Pair _ | List _), _ ->
    Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = Hashtbl.hash

(* Self-delimiting encoding: every value is rendered with an unambiguous
   prefix and bracketing, so distinct labels cannot collide. *)
let rec encode = function
  | Unit -> "u"
  | Bool b -> if b then "b1" else "b0"
  | Int i -> Printf.sprintf "i%d;" i
  | Str s -> Printf.sprintf "s%d:%s" (String.length s) s
  | Bits b -> Printf.sprintf "t%d:%s" (Bits.length b) (Bits.to_string b)
  | Pair (a, b) -> Printf.sprintf "p(%s,%s)" (encode a) (encode b)
  | List xs -> Printf.sprintf "l[%s]" (String.concat ";" (List.map encode xs))

let rec to_string = function
  | Unit -> "·"
  | Bool b -> Bool.to_string b
  | Int i -> string_of_int i
  | Str s -> s
  | Bits b -> Bits.to_string b
  | Pair (a, b) -> Printf.sprintf "⟨%s, %s⟩" (to_string a) (to_string b)
  | List xs -> Printf.sprintf "[%s]" (String.concat "; " (List.map to_string xs))

let pp fmt l = Format.pp_print_string fmt (to_string l)

let fst = function
  | Pair (a, _) -> a
  | l -> invalid_arg ("Label.fst: not a pair: " ^ to_string l)

let snd = function
  | Pair (_, b) -> b
  | l -> invalid_arg ("Label.snd: not a pair: " ^ to_string l)

let to_int = function
  | Int i -> i
  | l -> invalid_arg ("Label.to_int: not an int: " ^ to_string l)

let to_bits = function
  | Bits b -> b
  | l -> invalid_arg ("Label.to_bits: not bits: " ^ to_string l)

let to_bool = function
  | Bool b -> b
  | l -> invalid_arg ("Label.to_bool: not a bool: " ^ to_string l)

let to_list = function
  | List xs -> xs
  | l -> invalid_arg ("Label.to_list: not a list: " ^ to_string l)
