(* Participants drain one shared index counter; each writes only its own
   claimed slots of [out], and [Domain.join] publishes those writes to the
   caller.  After a failure is recorded, later claims skip their bodies,
   so every participant still runs out of indices promptly. *)

let map ~domains f arr =
  if domains < 1 then invalid_arg "Pool.map: domains < 1";
  let n = Array.length arr in
  if domains = 1 || n <= 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let fail e = ignore (Atomic.compare_and_set failure None (Some e)) in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (if Option.is_none (Atomic.get failure) then
           try out.(i) <- Some (f arr.(i)) with e -> fail e);
        drain ()
      end
    in
    (* One spawn at a time, so that a [Domain.spawn] failing partway (at
       the runtime's domain limit, say) can stop and join the domains
       already running before the exception propagates. *)
    let spawned = ref [] in
    (try
       for _ = 2 to min domains n do
         spawned := Domain.spawn drain :: !spawned
       done
     with e ->
       fail e;
       List.iter Domain.join !spawned;
       raise e);
    drain ();
    List.iter Domain.join !spawned;
    match Atomic.get failure with
    | Some e -> raise e
    | None -> Array.map Option.get out
  end
