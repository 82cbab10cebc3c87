(** Deterministic pseudo-random number generator (splitmix64).

    The whole library avoids OCaml's global [Random] state so that every
    randomized run is reproducible from an explicit integer seed: random
    graph generators, random tapes, and the Las-Vegas harness all thread a
    [Prng.t] explicitly. *)

type t

(** [create seed] makes a generator; equal seeds give equal streams. *)
val create : int -> t

(** [bool t] draws one fair bit. *)
val bool : t -> bool

(** [first_bool seed] is [bool (create seed)], computed without building
    a generator: it allocates nothing.  For counter-mode streams that
    derive one bit per seed. *)
val first_bool : int -> bool

(** [int t bound] draws a uniform integer in [0 .. bound-1].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [bits64 t] draws 64 fresh bits. *)
val bits64 : t -> int64

(** [float t] draws a uniform float in [0, 1) (53 bits of precision). *)
val float : t -> float

(** [hash2 a b] mixes two integers into one non-negative integer with full
    avalanche (splitmix finalizer applied to both words) — for deriving
    independent seeds from [(seed, index)] pairs. *)
val hash2 : int -> int -> int

(** [split t] derives an independent generator (for per-node streams). *)
val split : t -> t

(** [shuffle t arr] permutes [arr] in place, uniformly. *)
val shuffle : t -> 'a array -> unit
