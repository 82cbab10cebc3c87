(** Mutable packed bit vectors ([Bytes]-backed).

    The flat representation of per-round random bits: one bit per node,
    8x denser than [bool array], copied with [Bytes.blit], and reusable
    in place — search loops fill one preallocated vector per round
    instead of boxing a fresh array per explored state.  Unused padding
    bits are kept zero, so the underlying bytes double as a canonical
    dedup/hash key. *)

type t

(** [create len] is an all-zero vector of [len] bits. *)
val create : int -> t

val length : t -> int

(** @raise Invalid_argument when out of bounds. *)
val get : t -> int -> bool

(** @raise Invalid_argument when out of bounds. *)
val set : t -> int -> bool -> unit

(** No bounds check — for loops that already guarantee the range. *)
val unsafe_get : t -> int -> bool

val unsafe_set : t -> int -> bool -> unit

(** Reset every bit to zero (the vector is reusable scratch). *)
val clear : t -> unit

val copy : t -> t

val of_bool_array : bool array -> t
