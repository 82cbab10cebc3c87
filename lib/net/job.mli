(** Job specs: what a [submit] frame carries.

    A job is a kind — [solve], [derandomize] or [experiment] — plus
    string key/value pairs naming the same knobs the CLI subcommands take
    ([graph], [problem], [seed], [faults], [adversary], [divergence],
    [retransmit], [jobs], [colors], [method], [id]).  Two encodings:

    - {e text} ({!of_text}/{!to_text}): one [key=value] per line with [#]
      comments — the job-file format [anonet client] reads;
    - {e binary} ({!encode}/{!decode}): the length-prefixed pair encoding
      that travels inside a [submit] frame (one byte of kind, a 16-bit
      big-endian pair count, then per pair a 16-bit key length, the key,
      a 32-bit value length, the value).

    Keys are free-form here; {!Runner} decides which it understands and
    rejects the rest, so the wire encoding never needs to change when a
    runner grows a knob. *)

type kind = Solve | Derandomize | Experiment

type t = { kind : kind; pairs : (string * string) list }

val kind_to_string : kind -> string

val get : t -> string -> string option
(** First binding of the key, if any. *)

val encode : t -> string
(** @raise Invalid_argument on a key over 65535 bytes or more than 65535
    pairs (no real job comes close; the bound keeps the u16 fields honest). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects truncated input and trailing garbage. *)

val of_text : string -> (t, string) result
(** Parse the job-file format.  Requires a [kind=...] line; splits on the
    first [=]; ignores blank lines and [#] comments. *)

val to_text : t -> string
