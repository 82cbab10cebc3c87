(** Fan-out over independent work units: the server's job workers and the
    row fan-out of the experiment harness.  The paper's objects themselves
    (a Las-Vegas solve, a minimal-simulation search) run sequentially
    inside one job.

    [map ~domains f arr] is [Array.map f arr] computed on up to [domains]
    domains.  It spawns [min domains (Array.length arr) - 1] domains for
    the call and joins them before returning; the caller is the remaining
    participant.  Every participant claims the next unclaimed index from
    one shared counter, so uneven item costs balance, and the result is
    in input order ([(map ~domains f arr).(i) = f arr.(i)]) whatever the
    completion order.

    If some [f arr.(i)] raises, indices claimed afterwards are skipped and
    the first recorded exception is re-raised once every participant has
    joined.  [~domains:1] spawns nothing: it is a plain in-order
    [Array.map].  If spawning fails partway, the domains already spawned
    are joined before the exception propagates.
    @raise Invalid_argument if [domains < 1]. *)
val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
