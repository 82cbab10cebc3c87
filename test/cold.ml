(* The cold [Exactly len] search: a fresh [Min_search.Resumable] handle
   extended once — what A*'s Update-Bits runs with its cross-phase cache
   off. *)
let exactly ?ctx ?max_states ?pruning ~solver g ~base ~len =
  let open Anonet.Min_search.Resumable in
  extend (create ?ctx ?max_states ?pruning ~solver g ~base ()) ~len
