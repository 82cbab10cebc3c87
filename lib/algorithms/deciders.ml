module Label = Anonet_graph.Label
module Algorithm = Anonet_runtime.Algorithm

let always_yes : Algorithm.t =
  (module struct
    type state = {
      degree : int;
      out : Label.t option;
    }

    let name = "decider-always-yes"

    let init ~input:_ ~degree = { degree; out = None }

    let round s ~bit:_ ~inbox:_ =
      { s with out = Some (Label.Bool true) }, Algorithm.silence ~degree:s.degree

    let output s = s.out

    let flat = None
  end)

let two_hop_colored_variant : Algorithm.t =
  (module struct
    (* Announce own color, relay the heard multiset, then vote: a node
       votes no iff its own label is malformed or its color collides
       within two hops (every violating pair detects itself). *)
    type step =
      | Announce
      | Relay
      | Vote

    type state = {
      degree : int;
      color : Label.t option;  (* None when the label is not a pair *)
      step : step;
      heard : Label.t array;
      out : Label.t option;
    }

    let name = "decider-2hop-variant"

    let init ~input ~degree =
      let color = match input with Label.Pair (_, c) -> Some c | _ -> None in
      { degree; color; step = Announce; heard = [||]; out = None }

    let output s = s.out

    let flat = None

    (* A malformed node announces a unit color; its own vote is already
       doomed to "no", and unit cannot create false conflicts for properly
       labeled neighbors unless they too collide. *)
    let my_color s = Option.value ~default:Label.Unit s.color

    let round s ~bit:_ ~inbox =
      match s.step with
      | Announce ->
        { s with step = Relay }, Algorithm.broadcast ~degree:s.degree (my_color s)
      | Relay ->
        let heard = Array.map (fun m -> Option.get m) inbox in
        ( { s with step = Vote; heard },
          Algorithm.broadcast ~degree:s.degree
            (Label.List (List.sort Label.compare (Array.to_list heard))) )
      | Vote ->
        let relays =
          Array.to_list inbox
          |> List.map (fun m -> Label.to_list (Option.get m))
        in
        let c = my_color s in
        let collision =
          Array.exists (Label.equal c) s.heard
          || List.exists
               (fun multiset ->
                 List.length (List.filter (Label.equal c) multiset) >= 2)
               relays
        in
        let vote = Option.is_some s.color && not collision in
        ( { s with step = Announce; heard = [||]; out = Some (Label.Bool vote) },
          Algorithm.silence ~degree:s.degree )
  end)
