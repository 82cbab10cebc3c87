(** Las-Vegas randomized maximal matching in the anonymous model.

    Three-round phases: in the {e propose} round every active node flips a
    coin; heads makes it a proposer, which offers itself to one eligible
    neighbor (eligible ports are cycled across phases so every active
    neighbor is offered to infinitely often).  In the {e accept} round a
    tails node accepts the lowest-port proposal it received, committing
    immediately.  In the {e commit} round a proposer that finds an
    acceptance on its proposed port commits too.  Statuses are broadcast
    every round; an active node with no active neighbors left terminates
    unmatched.

    Safety rests on role exclusivity (a proposer cannot match with anyone
    except through its single outstanding proposal, so an accept always
    consummates) and on status causality (two adjacent nodes cannot both
    terminate unmatched, since each waits for the other to leave first).

    Output: [Label.Int p] — matched through port [p] — or [Label.Unit]
    for unmatched. *)

val algorithm : Anonet_runtime.Algorithm.t
