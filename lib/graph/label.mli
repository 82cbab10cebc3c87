(** Structured node labels.

    The paper treats all labels as finite bitstrings and composes several
    labeling functions into one by tupling: a graph labeled by
    [l1, ..., lk] is treated as labeled by [v -> <l1 v, ..., lk v>].
    This module provides that composition as a typed, recursively structured
    label with a canonical total order and an injective string encoding —
    the encoding realizes the paper's "labels are finite bitstrings"
    convention while keeping composite labelings first-class.

    Labels also serve as message payloads in the runtime. *)

type t =
  | Unit  (** the anonymous label: no information *)
  | Bool of bool
  | Int of int
  | Str of string
  | Bits of Bits.t
  | Pair of t * t
  | List of t list

(** Canonical total order (structural, constructor-tagged). *)
val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

(** Injective encoding as a self-delimiting string; equal labels have equal
    encodings and distinct labels have distinct encodings.  Used for the
    canonical graph encodings [s(G)] of Section 3.1. *)
val encode : t -> string

(** Human-readable rendering. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {2 Composition helpers} *)

(** [fst l] projects the first component of a pair.
    @raise Invalid_argument if [l] is not a pair. *)
val fst : t -> t

(** [snd l] projects the second component of a pair.
    @raise Invalid_argument if [l] is not a pair. *)
val snd : t -> t

(** [to_int l] extracts an [Int] payload.
    @raise Invalid_argument otherwise. *)
val to_int : t -> int

(** [to_bits l] extracts a [Bits] payload.
    @raise Invalid_argument otherwise. *)
val to_bits : t -> Bits.t

(** [to_bool l] extracts a [Bool] payload.
    @raise Invalid_argument otherwise. *)
val to_bool : t -> bool

(** [to_list l] extracts a [List] payload.
    @raise Invalid_argument otherwise. *)
val to_list : t -> t list
