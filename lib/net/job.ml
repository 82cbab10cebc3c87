type kind = Solve | Derandomize | Experiment

type t = { kind : kind; pairs : (string * string) list }

let kind_to_string = function
  | Solve -> "solve"
  | Derandomize -> "derandomize"
  | Experiment -> "experiment"

let kind_of_string = function
  | "solve" -> Some Solve
  | "derandomize" -> Some Derandomize
  | "experiment" -> Some Experiment
  | _ -> None

let kind_code = function Solve -> 1 | Derandomize -> 2 | Experiment -> 3

let kind_of_code = function
  | 1 -> Some Solve
  | 2 -> Some Derandomize
  | 3 -> Some Experiment
  | _ -> None

let get t key =
  List.find_map (fun (k, v) -> if String.equal k key then Some v else None)
    t.pairs

let encode { kind; pairs } =
  let count = List.length pairs in
  if count > 0xFFFF then invalid_arg "Job.encode: too many pairs";
  let b = Buffer.create 256 in
  Buffer.add_uint8 b (kind_code kind);
  Buffer.add_uint16_be b count;
  List.iter
    (fun (k, v) ->
      if String.length k > 0xFFFF then invalid_arg "Job.encode: oversized key";
      Buffer.add_uint16_be b (String.length k);
      Buffer.add_string b k;
      Buffer.add_int32_be b (Int32.of_int (String.length v));
      Buffer.add_string b v)
    pairs;
  Buffer.contents b

let decode s =
  let len = String.length s in
  let error fmt = Printf.ksprintf Result.error fmt in
  if len < 3 then error "job spec too short (%d bytes)" len
  else
    match kind_of_code (Char.code s.[0]) with
    | None -> error "unknown job kind code %d" (Char.code s.[0])
    | Some kind ->
      let count = Char.code s.[1] * 256 + Char.code s.[2] in
      let rec pairs acc off remaining =
        if remaining = 0 then
          if off = len then Ok { kind; pairs = List.rev acc }
          else error "%d trailing bytes after the last pair" (len - off)
        else if off + 2 > len then Error "truncated key length"
        else
          let klen = Char.code s.[off] * 256 + Char.code s.[off + 1] in
          let off = off + 2 in
          if off + klen > len then Error "truncated key"
          else
            let key = String.sub s off klen in
            let off = off + klen in
            if off + 4 > len then Error "truncated value length"
            else
              let vlen =
                Int32.to_int (String.get_int32_be s off) land 0xFFFF_FFFF
              in
              let off = off + 4 in
              if vlen > len - off then Error "truncated value"
              else
                pairs ((key, String.sub s off vlen) :: acc) (off + vlen)
                  (remaining - 1)
      in
      pairs [] 3 count

let of_text text =
  let pairs =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l ->
           match String.index_opt l '=' with
           | None -> Error (Printf.sprintf "no '=' in job line %S" l)
           | Some i ->
             Ok
               ( String.trim (String.sub l 0 i),
                 String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) pairs with
  | Some e -> Error e
  | None ->
    let pairs = List.filter_map Result.to_option pairs in
    (match List.filter (fun (k, _) -> k = "kind") pairs with
    | [] -> Error "job file needs a kind=solve|derandomize|experiment line"
    | _ :: _ :: _ -> Error "job file has more than one kind= line"
    | [ (_, k) ] -> begin
        match kind_of_string k with
        | None -> Error (Printf.sprintf "unknown job kind %S" k)
        | Some kind ->
          Ok { kind; pairs = List.filter (fun (k, _) -> k <> "kind") pairs }
      end)

let to_text { kind; pairs } =
  String.concat ""
    (Printf.sprintf "kind=%s\n" (kind_to_string kind)
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%s\n" k v) pairs)
