type net_failure =
  | Protocol of { message : string }
  | Rejected of { message : string }
  | Connection of { message : string }

type t =
  | Sync of Executor.failure
  | Async of Async.failure
  | Las_vegas of Las_vegas.failure
  | Net of net_failure

(* One numbering for both executors, the Las-Vegas harness, and the wire
   layer.  The synchronous and asynchronous tape exhaustions share a code
   on purpose: they mean the same thing (the prescribed tape ended before
   every node output) on different substrates.  Likewise
   [Las_vegas Network_dead] shares 4 with [All_nodes_crashed]: both mean
   the fault plan leaves no node running.  Code 8 is retired (it named a
   round cap the harness no longer has); later codes keep their numbers,
   since clients read them. *)
let exit_code = function
  | Sync (Executor.Max_rounds_exceeded _) -> 2
  | Sync (Executor.Tape_exhausted _) | Async (Async.Tape_exhausted _) -> 3
  | Sync (Executor.All_nodes_crashed _)
  | Las_vegas { Las_vegas.reason = Las_vegas.Network_dead; _ } -> 4
  | Async (Async.Event_limit_exceeded _) -> 5
  | Async (Async.Stalled _) -> 6
  | Las_vegas { Las_vegas.reason = Las_vegas.No_success; _ } -> 7
  | Las_vegas { Las_vegas.reason = Las_vegas.Diverged; _ } -> 9
  | Net (Protocol _) -> 10
  | Net (Rejected _) -> 11
  | Net (Connection _) -> 12

let pp fmt = function
  | Sync f -> Executor.pp_failure fmt f
  | Async f -> Async.pp_failure fmt f
  | Las_vegas f -> Las_vegas.pp_failure fmt f
  | Net (Protocol { message } | Rejected { message } | Connection { message }) ->
    Format.pp_print_string fmt message

let lv reason message = { Las_vegas.reason; message }

let all =
  [
    Sync (Executor.Max_rounds_exceeded 0);
    Sync (Executor.Tape_exhausted { round = 0 });
    Sync (Executor.All_nodes_crashed { round = 0 });
    Async (Async.Event_limit_exceeded 0);
    Async (Async.Tape_exhausted { round = 0 });
    Async (Async.Stalled { events = 0 });
    Las_vegas (lv Las_vegas.No_success "no success within the attempt budget");
    Las_vegas (lv Las_vegas.Diverged "divergence detected");
    Las_vegas (lv Las_vegas.Network_dead "fault plan leaves no node running");
    Net (Protocol { message = "malformed frame" });
    Net (Rejected { message = "job rejected" });
    Net (Connection { message = "connection lost" });
  ]

let of_exit_code = function
  | 2 -> Some (Sync (Executor.Max_rounds_exceeded 0))
  | 3 -> Some (Sync (Executor.Tape_exhausted { round = 0 }))
  | 4 -> Some (Sync (Executor.All_nodes_crashed { round = 0 }))
  | 5 -> Some (Async (Async.Event_limit_exceeded 0))
  | 6 -> Some (Async (Async.Stalled { events = 0 }))
  | 7 ->
    Some (Las_vegas (lv Las_vegas.No_success "no success within the attempt budget"))
  | 9 -> Some (Las_vegas (lv Las_vegas.Diverged "divergence detected"))
  | 10 -> Some (Net (Protocol { message = "malformed frame" }))
  | 11 -> Some (Net (Rejected { message = "job rejected" }))
  | 12 -> Some (Net (Connection { message = "connection lost" }))
  | _ -> None
