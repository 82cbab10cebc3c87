(** Finite bitstrings.

    The paper represents node labels, random tapes, and candidate colors as
    finite bitstrings.  This module provides an immutable bitstring type with
    the total orders used throughout:

    - {!compare_lex}: plain lexicographic order (only meaningful between
      strings of equal length, but total on all strings);
    - {!compare}: length-first order (shorter strings come first, equal
      lengths compared lexicographically), matching the convention of
      Section 2.2 of the paper where assignments of smaller length [t]
      precede longer ones. *)

type t

val empty : t

val length : t -> int

val is_empty : t -> bool

(** [append b x] is [b] with bit [x] appended at the end. *)
val append : t -> bool -> t

(** [get b i] is the [i]-th bit of [b] (0-based).
    @raise Invalid_argument if [i] is out of bounds. *)
val get : t -> int -> bool

val of_list : bool list -> t

val to_list : t -> bool list

(** [of_string s] parses a string of ['0'] and ['1'] characters.
    @raise Invalid_argument on any other character. *)
val of_string : string -> t

(** [to_string b] renders [b] as a string of ['0'] and ['1'] characters. *)
val to_string : t -> string

(** [concat a b] is the concatenation of [a] followed by [b]. *)
val concat : t -> t -> t

(** [take b n] is the prefix of [b] of length [n].
    @raise Invalid_argument if [n > length b]. *)
val take : t -> int -> t

(** [is_prefix ~prefix b] holds iff [prefix] is a prefix of [b]. *)
val is_prefix : prefix:t -> t -> bool

(** Length-first total order: shorter strings are smaller; strings of equal
    length are compared lexicographically with [false < true]. *)
val compare : t -> t -> int

(** Plain lexicographic order on the underlying bit sequences, with the
    shorter string smaller when it is a prefix of the longer. *)
val compare_lex : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

(** [zero n] is the all-zero bitstring of length [n]. *)
val zero : int -> t

(** [of_int ~width x] is the [width]-bit big-endian encoding of [x].
    @raise Invalid_argument if [x] does not fit in [width] bits. *)
val of_int : width:int -> int -> t

(** [to_int b] decodes [b] as a big-endian natural number.
    @raise Invalid_argument if [length b > 62]. *)
val to_int : t -> int

(** [enumerate n] is the sequence of all [2^n] bitstrings of length [n] in
    lexicographic (equivalently, big-endian numeric) order. *)
val enumerate : int -> t Seq.t

(** {2 Packed codes}

    A bitstring of at most {!code_max_length} bits packs into one int as
    [(1 lsl length b) lor to_int b]: the sentinel bit makes the code
    injective across lengths, appending a bit is [code * 2 + bit], and
    numeric order on codes coincides with {!compare}.  The empty string
    is code [1], so [0] is free to mean "absent" in flat arenas. *)

val code_max_length : int

(** [to_code b] is the packed code of [b].
    @raise Invalid_argument if [length b > code_max_length]. *)
val to_code : t -> int

(** [of_code c] is the bitstring [c] packs.
    @raise Invalid_argument if [c < 1]. *)
val of_code : int -> t

(** [append_code c x] is [to_code (append (of_code c) x)].
    @raise Invalid_argument if the result would exceed
    {!code_max_length} bits. *)
val append_code : int -> bool -> int

val pp : Format.formatter -> t -> unit
