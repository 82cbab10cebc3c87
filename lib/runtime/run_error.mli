(** One failure type — and one process exit-code numbering — for both
    executors, the Las-Vegas harness, and the wire protocol.

    Historically [Executor.exit_code] owned codes 2–4 and [Async.exit_code]
    continued at 5, and the CLI pattern-matched two failure types to pick
    one.  This module consolidates them (the per-executor functions are
    gone).

    Codes: [Max_rounds_exceeded] = 2, [Tape_exhausted] = 3 (shared — the
    synchronous and synchronizer-round variants mean the same thing),
    [All_nodes_crashed] = 4 (shared with [Las_vegas Network_dead]: both
    mean the fault plan leaves no node running), [Event_limit_exceeded] =
    5, [Stalled] = 6, [Las_vegas No_success] = 7, [Las_vegas Diverged] =
    9; 8 is retired and never produced (it named a total-round cap the
    harness no longer has), and no later code moved to fill it.  The
    [Net] band covers the service mode's wire protocol: [Protocol] = 10
    (a malformed frame — bad magic, bad version, oversized or truncated
    payload), [Rejected] = 11 (a
    well-formed frame carrying an unacceptable job spec), [Connection] =
    12 (the transport failed mid-conversation).  Code 1 is the CLI's
    generic error; 0 is success. *)

(** Failures of the wire layer ([anonet serve] / [anonet client]).  The
    type lives here rather than in [lib/net] so that the one exit-code
    numbering stays a closed catalog next to the codes it owns. *)
type net_failure =
  | Protocol of { message : string }
      (** the peer sent bytes that do not parse as a frame *)
  | Rejected of { message : string }
      (** the frame parsed but the server refused it (unknown job field,
          duplicate stream id, cancelled job) *)
  | Connection of { message : string }
      (** the connection failed before every stream completed *)

type t =
  | Sync of Executor.failure
  | Async of Async.failure
  | Las_vegas of Las_vegas.failure
  | Net of net_failure

val exit_code : t -> int

val pp : Format.formatter -> t -> unit
(** Delegates to the executors' and harness's [pp_failure]; prints the
    [Net] band's messages directly. *)

val all : t list
(** One representative per failure variant (payloads zeroed) — exhaustive,
    for round-trip tests over the numbering. *)

val of_exit_code : int -> t option
(** The canonical representative for a code ([None] for codes the runtime
    never produces, including 0, 1 and the retired 8).  For every [e] in
    {!all}, [of_exit_code (exit_code e)] maps back to a value with the
    same [exit_code]. *)
