(* A tiny algorithm whose execution states recur at every round: a node
   remembers its last random bit and nothing else, sends nothing and
   never outputs, so the state after round [r] is round [r]'s bit vector.
   Its flat companion counts the transitions it runs in [rounds], so a
   test can tell whether a search stepped at all. *)

open Anonet_graph
module Algorithm = Anonet_runtime.Algorithm

(* Flat transitions run so far, by searches and sensitivity probes alike. *)
let rounds = Atomic.make 0

module Last_coin = struct
  type state = bool

  let name = "last-coin"

  let init ~input:_ ~degree:_ = false

  let round _ ~bit ~inbox = bit, Algorithm.silence ~degree:(Array.length inbox)

  let output _ : Label.t option = None

  let flat =
    Some
      {
        Algorithm.Flat.plan =
          (fun _ ->
            {
              Algorithm.Flat.state_words = 1;
              msg_words = 1;
              ported = false;
              init = (fun ~node:_ ~input:_ ~degree:_ ~state:_ ~off:_ -> ());
              round =
                (fun ~node:_ ~bit ~degree:_ ~state ~off ~inbox:_ ~ports:_ ~pslot:_
                     ~send:_ ~soff:_ ->
                  Atomic.incr rounds;
                  state.(off) <- Bool.to_int bit;
                  false);
              output = (fun ~state:_ ~off:_ -> None);
              has_output = (fun ~state:_ ~off:_ -> false);
            });
      }
end

let algorithm : Algorithm.t = (module Last_coin)
