type typ = Submit | Cancel | Event | Result | Error

type t = { typ : typ; stream : int; payload : string }

let magic = "ANET"
let version = 1
let header_size = 14
let max_payload = 16 * 1024 * 1024

type protocol_error =
  | Bad_magic
  | Bad_version of int
  | Bad_type of int
  | Oversized of int
  | Truncated

let pp_protocol_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "bad magic (not an anonet peer?)"
  | Bad_version v -> Format.fprintf fmt "unsupported protocol version %d" v
  | Bad_type c -> Format.fprintf fmt "unknown frame type %d" c
  | Oversized n -> Format.fprintf fmt "frame payload of %d bytes over the cap" n
  | Truncated -> Format.pp_print_string fmt "connection closed mid-frame"

let type_code = function
  | Submit -> 1
  | Cancel -> 2
  | Event -> 3
  | Result -> 4
  | Error -> 5

let type_of_code = function
  | 1 -> Some Submit
  | 2 -> Some Cancel
  | 3 -> Some Event
  | 4 -> Some Result
  | 5 -> Some Error
  | _ -> None

let encode { typ; stream; payload } =
  let len = String.length payload in
  if len > max_payload then
    invalid_arg (Printf.sprintf "Frame.encode: %d-byte payload over the cap" len);
  if stream < 0 || stream > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Frame.encode: stream id %d out of range" stream);
  let b = Bytes.create (header_size + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (type_code typ);
  Bytes.set_int32_be b 6 (Int32.of_int stream);
  Bytes.set_int32_be b 10 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_size len;
  Bytes.unsafe_to_string b

type decoded =
  | Decoded of t * int
  | Need_more of int
  | Malformed of protocol_error

(* Validates the parts of the header present in [s] at [off] — bad bytes
   are reported before the header is even complete, so a peer speaking the
   wrong protocol is rejected on its first few bytes. *)
let check_prefix s ~off ~avail =
  let magic_ok =
    let rec go i =
      i >= 4 || i >= avail || (s.[off + i] = magic.[i] && go (i + 1))
    in
    go 0
  in
  if not magic_ok then Some Bad_magic
  else if avail > 4 && Char.code s.[off + 4] <> version then
    Some (Bad_version (Char.code s.[off + 4]))
  else if avail > 5 && type_of_code (Char.code s.[off + 5]) = None then
    Some (Bad_type (Char.code s.[off + 5]))
  else None

let u32_be s off = Int32.to_int (String.get_int32_be s off) land 0xFFFF_FFFF

let decode s ~off =
  let avail = String.length s - off in
  match check_prefix s ~off ~avail with
  | Some e -> Malformed e
  | None ->
    if avail < header_size then Need_more header_size
    else begin
      let len = u32_be s (off + 10) in
      if len > max_payload then Malformed (Oversized len)
      else if avail < header_size + len then Need_more (header_size + len)
      else
        let typ = Option.get (type_of_code (Char.code s.[off + 5])) in
        let stream = u32_be s (off + 6) in
        let payload = String.sub s (off + header_size) len in
        Decoded ({ typ; stream; payload }, header_size + len)
    end

let write fd t =
  let s = encode t in
  let n = String.length s in
  let rec go sent =
    if sent < n then
      go (sent + Unix.write_substring fd s sent (n - sent))
  in
  go 0

(* Reads exactly [n] bytes; [Ok None] when EOF arrives before the first
   byte (so a clean close between frames is distinguishable from a
   truncation inside one). *)
let really_read fd n =
  let b = Bytes.create n in
  let rec go got =
    if got = n then Ok (Some (Bytes.unsafe_to_string b))
    else
      match Unix.read fd b got (n - got) with
      | 0 -> if got = 0 then Ok None else Error Truncated
      | k -> go (got + k)
  in
  go 0

let read fd =
  match really_read fd header_size with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some header) -> begin
      (* the bare header decodes completely only for an empty payload;
         otherwise [Need_more] tells us to read the payload separately *)
      match decode header ~off:0 with
      | Malformed e -> Error e
      | Decoded (t, _) -> Ok (Some t)
      | Need_more _ ->
        let len = u32_be header 10 in
        if len > max_payload then Error (Oversized len)
        else begin
          match really_read fd len with
          | Error _ as e -> e
          | Ok None -> Error Truncated
          | Ok (Some payload) ->
            let typ = Option.get (type_of_code (Char.code header.[5])) in
            Ok (Some { typ; stream = u32_be header 6; payload })
        end
    end

let of_outcome ~stream { Runner.code; out; err } =
  let head = String.make 1 (Char.chr code) in
  if err = "" then { typ = Result; stream; payload = head ^ out }
  else begin
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (String.length out));
    { typ = Error; stream; payload = head ^ Bytes.unsafe_to_string len ^ out ^ err }
  end

let to_outcome { typ; payload; _ } : (Runner.outcome, string) result =
  let n = String.length payload in
  let code () = Char.code payload.[0] in
  match typ with
  | Result when n >= 1 ->
    Ok { Runner.code = code (); out = String.sub payload 1 (n - 1); err = "" }
  | Error when n >= 5 && 5 + u32_be payload 1 <= n ->
    let k = u32_be payload 1 in
    Ok
      {
        Runner.code = code ();
        out = String.sub payload 5 k;
        err = String.sub payload (5 + k) (n - 5 - k);
      }
  | Result -> Error "empty result frame"
  | Error -> Error "error frame too short for its stdout"
  | Submit | Cancel | Event -> Error "not a result or error frame"
