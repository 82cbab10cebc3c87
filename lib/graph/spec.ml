let parse_ints s = List.map int_of_string (String.split_on_char ',' s)

let build spec =
  let fail () = failwith (Printf.sprintf "unknown graph spec %S" spec) in
  match String.split_on_char ':' spec with
  | [ "file"; path ] -> Graph_io.load path
  | [ "petersen" ] -> Gen.petersen ()
  | [ "cycle"; n ] -> Gen.cycle (int_of_string n)
  | [ "path"; n ] -> Gen.path (int_of_string n)
  | [ "complete"; n ] -> Gen.complete (int_of_string n)
  | [ "star"; n ] -> Gen.star (int_of_string n)
  | [ "wheel"; n ] -> Gen.wheel (int_of_string n)
  | [ "hypercube"; d ] -> Gen.hypercube (int_of_string d)
  | [ "bintree"; d ] -> Gen.binary_tree (int_of_string d)
  | [ "grid"; wh ] | [ "torus"; wh ] -> begin
      match String.split_on_char 'x' wh with
      | [ w; h ] ->
        let w = int_of_string w and h = int_of_string h in
        if String.length spec > 0 && spec.[0] = 'g' then Gen.grid w h
        else Gen.torus w h
      | _ -> fail ()
    end
  | [ "random"; args ] -> begin
      match String.split_on_char ',' args with
      | [ n; p; seed ] ->
        Gen.random_connected ~seed:(int_of_string seed) (int_of_string n)
          (float_of_string p)
      | _ -> fail ()
    end
  | [ "gnp"; args ] -> begin
      (* G(n, p) parameterized by average degree instead of p — the
         natural knob for huge sparse ensembles, where writing p itself
         (e.g. 8e-6 at n = 10^6) invites precision slips. *)
      match String.split_on_char ',' args with
      | [ n; deg; seed ] ->
        let n = int_of_string n in
        let p =
          if n <= 1 then 0.0 else float_of_string deg /. float_of_int (n - 1)
        in
        Gen.random_connected ~seed:(int_of_string seed) n p
      | _ -> fail ()
    end
  | [ "hamiltonian"; args ] -> begin
      match String.split_on_char ',' args with
      | [ n; p; seed ] ->
        Gen.random_hamiltonian ~seed:(int_of_string seed) (int_of_string n)
          (float_of_string p)
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
   malformed specs like any other. *)
let graph spec =
  try build spec with
  | Invalid_argument m -> failwith (Printf.sprintf "bad graph spec %S: %s" spec m)
