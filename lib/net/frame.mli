(** Length-prefixed binary framing for the [anonet serve] wire protocol.

    Every frame is a fixed 14-byte header followed by a payload:

    {v
      offset  size  field
      0       4     magic    "ANET"
      4       1     version  (currently 1)
      5       1     type     1=submit 2=cancel 3=event 4=result 5=error
      6       4     stream   big-endian unsigned stream id
      10      4     length   big-endian unsigned payload length
      14      len   payload
    v}

    Stream ids multiplex many jobs over one connection: the client picks a
    fresh id per [submit]; every [event], [result] or [error] the server
    sends carries the id of the job it belongs to.  Payload contents by
    type:

    - [submit]: a binary-encoded job spec ({!Job.encode});
    - [cancel]: empty — the stream id names the job to cancel;
    - [event]: one NDJSON event line, without the trailing newline —
      byte-identical to what {!Anonet_obs.Events.ndjson} would have
      written locally;
    - [result]: one byte of exit code then the job's stdout text — an
      outcome with no stderr: code 0, or a failure whose diagnosis is on
      stdout (a traced solve's);
    - [error]: an outcome with a stderr diagnosis — one byte of
      {!Anonet_runtime.Run_error} exit code, the job's stdout prefixed by
      its big-endian unsigned 4-byte length (0 for a job the server
      rejected), then the diagnostic message.  A failed solve keeps the
      [fault plan:] lines it printed before diverging.

    {!of_outcome} and {!to_outcome} are the two directions of that
    encoding, so a served job's [{code; out; err}] arrives exactly as
    {!Runner.execute} returned it.

    Payloads are capped at {!max_payload}; a length field above the cap is
    rejected before any allocation, so a malicious or corrupt peer cannot
    make the reader allocate unbounded memory.  The codec is pure
    (string-in/string-out) so the qcheck suite can round-trip arbitrary
    frames and fuzz truncations without sockets. *)

type typ = Submit | Cancel | Event | Result | Error

type t = { typ : typ; stream : int; payload : string }

val max_payload : int
(** 16 MiB. *)

(** Why a byte sequence is not a frame.  [Truncated] never appears here —
    incomplete input is reported as {!Need_more}, not as an error —
    except from the blocking reader, where EOF mid-frame is final. *)
type protocol_error =
  | Bad_magic
  | Bad_version of int
  | Bad_type of int
  | Oversized of int  (** declared payload length above {!max_payload} *)
  | Truncated  (** connection closed mid-frame (blocking reader only) *)

val pp_protocol_error : Format.formatter -> protocol_error -> unit

val encode : t -> string
(** @raise Invalid_argument if the payload exceeds {!max_payload} or the
    stream id is outside [0 .. 2^32-1]. *)

type decoded =
  | Decoded of t * int
      (** the frame and the total bytes it consumed from [off] *)
  | Need_more of int
      (** not yet decodable: the next frame occupies this many bytes from
          [off] (at least {!header_size} until the header is complete) *)
  | Malformed of protocol_error

val decode : string -> off:int -> decoded
(** Pure incremental decode of the frame starting at [off]. *)

val write : Unix.file_descr -> t -> unit
(** Blocking write of one encoded frame.  Not serialized — callers writing
    from several threads must hold their own per-connection lock. *)

val read : Unix.file_descr -> (t option, protocol_error) result
(** Blocking read of one frame.  [Ok None] is a clean EOF at a frame
    boundary; [Error Truncated] is an EOF inside one. *)

val of_outcome : stream:int -> Runner.outcome -> t
(** The frame that ends job [stream]: [result] when the outcome's [err] is
    empty, [error] otherwise (payloads as above). *)

val to_outcome : t -> (Runner.outcome, string) result
(** Inverts {!of_outcome} on a [result] or [error] frame;
    [Error] describes a payload too short for its type, or a frame of
    another type. *)
