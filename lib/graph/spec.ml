(* A generator argument that is not a number: the argument and what was
   wanted, turned into a [Failure] naming the whole spec by [graph]. *)
exception Not_a_number of string * string

let int_arg s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Not_a_number (s, "an integer"))

let float_arg s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> raise (Not_a_number (s, "a number"))

let parse_ints s = List.map int_arg (String.split_on_char ',' s)

let build spec =
  let fail () = failwith (Printf.sprintf "unknown graph spec %S" spec) in
  match String.split_on_char ':' spec with
  | [ "file"; path ] -> Graph_io.load path
  | [ "petersen" ] -> Gen.petersen ()
  | [ "cycle"; n ] -> Gen.cycle (int_arg n)
  | [ "path"; n ] -> Gen.path (int_arg n)
  | [ "complete"; n ] -> Gen.complete (int_arg n)
  | [ "star"; n ] -> Gen.star (int_arg n)
  | [ "wheel"; n ] -> Gen.wheel (int_arg n)
  | [ "hypercube"; d ] -> Gen.hypercube (int_arg d)
  | [ "bintree"; d ] -> Gen.binary_tree (int_arg d)
  | [ "grid"; wh ] | [ "torus"; wh ] -> begin
      match String.split_on_char 'x' wh with
      | [ w; h ] ->
        let w = int_arg w and h = int_arg h in
        if String.length spec > 0 && spec.[0] = 'g' then Gen.grid w h
        else Gen.torus w h
      | _ -> fail ()
    end
  | [ "random"; args ] -> begin
      match String.split_on_char ',' args with
      | [ n; p; seed ] ->
        Gen.random_connected ~seed:(int_arg seed) (int_arg n)
          (float_arg p)
      | _ -> fail ()
    end
  | [ "gnp"; args ] -> begin
      (* G(n, p) parameterized by average degree instead of p — the
         natural knob for huge sparse ensembles, where writing p itself
         (e.g. 8e-6 at n = 10^6) invites precision slips. *)
      match String.split_on_char ',' args with
      | [ n; deg; seed ] ->
        let n = int_arg n in
        let p =
          if n <= 1 then 0.0 else float_arg deg /. float_of_int (n - 1)
        in
        Gen.random_connected ~seed:(int_arg seed) n p
      | _ -> fail ()
    end
  | [ "hamiltonian"; args ] -> begin
      match String.split_on_char ',' args with
      | [ n; p; seed ] ->
        Gen.random_hamiltonian ~seed:(int_arg seed) (int_arg n)
          (float_arg p)
      | _ -> fail ()
    end
  | [ "regular"; args ] -> begin
      match parse_ints args with
      | [ n; d; seed ] -> Gen.random_regular ~seed n d
      | _ -> fail ()
    end
  | _ -> fail ()

(* Generators and the graph-file parser reject out-of-range arguments
   with [Invalid_argument]; to a caller holding a spec string those are
   malformed specs like any other, as are non-numeric arguments. *)
let graph spec =
  try build spec with
  | Invalid_argument m -> failwith (Printf.sprintf "bad graph spec %S: %s" spec m)
  | Not_a_number (arg, what) ->
    failwith (Printf.sprintf "bad graph spec %S: %S is not %s" spec arg what)
