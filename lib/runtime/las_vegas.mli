(** Harness for running Las-Vegas algorithms to completion.

    The paper's algorithms terminate with probability 1, so a sufficiently
    generous round budget almost always suffices; this harness retries with
    fresh derived seeds in the (measure-zero in the limit, merely unlucky
    in practice) event the budget runs out, and reports how many attempts
    were needed.

    Each attempt [i] draws its tape from [Prng.hash2 seed i] — a
    splitmix-style hash, so attempt seeds are pairwise unrelated even for
    adjacent user seeds — and runs with an exponentially backed-off round
    budget [max_rounds * 2^(i-1)]: unlucky or fault-injected runs
    escalate instead of burning the same fixed budget every time.

    An attempt's outcome is a pure function of [(seed, i, budget)], and
    attempts run one after another on the calling domain, so a solve's
    report and error string depend only on its arguments. *)

type report = {
  outcome : Executor.outcome;
  attempts : int;  (** 1 when the first run already finished *)
  seed_used : int;
  rounds_spent : int;
      (** total rounds consumed across all attempts, failed ones included *)
}

(** Why a solve gave up — structured, so callers (the CLI, {!Run_error})
    can react without parsing the message. *)
type failure_reason =
  | No_success  (** every attempt ran out of rounds *)
  | Diverged
      (** divergence detected: an attempt with a budget at or above the
          [divergence] threshold still failed to stabilize — escalating
          further cannot help (see {!solve_detailed}) *)
  | Network_dead
      (** the fault plan crash-stops every node; retrying cannot help *)

type failure = {
  reason : failure_reason;
  message : string;
      (** the exact string {!solve_msg} returns *)
}

val pp_failure : Format.formatter -> failure -> unit
(** Prints [message]. *)

(** [solve ?ctx algo g ~seed ?max_rounds ?attempts ?divergence ()]
    runs [algo] with random tapes derived from [seed], retrying up to
    [attempts] times (default 20), and reports failures {e structured}:
    the [Error] case is a {!failure} whose [reason] distinguishes giving
    up from divergence from a dead network (so callers can pick an exit
    code via {!Run_error.exit_code} without parsing text) and whose
    [message] is the full diagnostic string.  Callers that only want the
    text can use {!solve_msg}.  Attempt [i] gets a budget of
    [max_rounds * 2^(i-1)] rounds ([max_rounds] defaults to
    [64 * (n + 4)]).  Error strings include the last attempt's failure,
    budget, and seed, so diagnosing does not require re-running.

    Per-attempt budgets and the divergence threshold are clamped at
    [max_int / 2] — the doubling leaves the integer range after a few
    dozen attempts, and a huge or infinite [divergence] does at once;
    an unclamped conversion would wrap them negative.

    When [divergence] is set, an attempt whose budget has escalated to at
    least [divergence *. max_rounds] and that {e still} runs out of rounds
    is declared diverged ({!Diverged}) instead of retried: past that point
    the failure is systematic — typically an adversary or fault plan
    re-corrupting the run every round — and escalating further cannot
    help.  Divergence is terminal.

    From the context: [ctx.faults] subjects every attempt to a fresh
    injector for the plan (see {!Faults}); a plan that crash-stops all
    nodes fails immediately without retrying.  [ctx.adversary] likewise
    subjects every attempt to a fresh {!Adversary} instance — attempts
    stay pure functions of [(seed, i, budget)].

    [ctx.obs] receives [attempt.start]/[attempt.done] events per attempt,
    then [attempt.win] or [lv.fail], a [las_vegas.solve] span, and —
    posted from the final report so they match it exactly — the
    [lv.attempts],
    [lv.rounds_spent], [lv.rounds] and [lv.messages] counters.  The
    executor runs inside attempts are {e not} individually instrumented:
    failed attempts must not pollute the counters.
    @raise Invalid_argument if [divergence] is not [> 0] (NaN
    included). *)
val solve :
  ?ctx:Run_ctx.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  seed:int ->
  ?max_rounds:int ->
  ?attempts:int ->
  ?divergence:float ->
  unit ->
  (report, failure) result

(** [solve_msg] is {!solve} with the failure erased to its [message] — a
    thin convenience wrapper for callers (scripts, examples, deciders)
    that only propagate the diagnostic text and never branch on the
    reason.  [solve_msg ... = Result.map_error (fun f -> f.message)
    (solve ...)], argument for argument. *)
val solve_msg :
  ?ctx:Run_ctx.t ->
  Algorithm.t ->
  Anonet_graph.Graph.t ->
  seed:int ->
  ?max_rounds:int ->
  ?attempts:int ->
  ?divergence:float ->
  unit ->
  (report, string) result
