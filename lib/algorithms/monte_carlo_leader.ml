module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Bits = Anonet_graph.Bits
module Algorithm = Anonet_runtime.Algorithm

let problem =
  {
    Anonet_problems.Problem.name = "leader-election(n known)";
    is_instance =
      (fun g ->
        let n = Graph.n g in
        Graph.fold_nodes g ~init:true ~f:(fun acc v ->
            acc && Label.equal (Graph.label g v) (Label.Int n)));
    is_valid_output =
      (fun g o ->
        let leaders =
          Graph.fold_nodes g ~init:0 ~f:(fun acc v ->
              match o.(v) with
              | Label.Bool true -> acc + 1
              | Label.Bool false -> acc
              | _ -> min_int)
        in
        leaders = 1);
  }

let make ~id_bits : Algorithm.t =
  if id_bits < 1 then invalid_arg "Monte_carlo_leader.make: need id_bits >= 1";
  (module struct
    (* Rounds 1..id_bits draw the identifier (one bit per round, per the
       model); rounds id_bits+1 .. id_bits+n flood the maximum. *)
    type state = {
      degree : int;
      n : int;
      round_no : int;
      my_id : Bits.t;
      best : Bits.t;
      out : Label.t option;
    }

    let name = Printf.sprintf "monte-carlo-leader-%db" id_bits

    let init ~input ~degree =
      let n =
        match input with
        | Label.Int n when n >= 1 -> n
        | l ->
          invalid_arg
            ("monte-carlo-leader: input must be the node count, got "
             ^ Label.to_string l)
      in
      { degree; n; round_no = 0; my_id = Bits.empty; best = Bits.empty; out = None }

    let output s = s.out

    let flat = None

    let round s ~bit ~inbox =
      let s = { s with round_no = s.round_no + 1 } in
      if s.round_no <= id_bits then begin
        (* Identifier-drawing phase. *)
        let my_id = Bits.append s.my_id bit in
        let s = { s with my_id; best = my_id } in
        if s.round_no = id_bits then
          (* start the flood *)
          s, Algorithm.broadcast ~degree:s.degree (Label.Bits s.best)
        else s, Algorithm.silence ~degree:s.degree
      end
      else begin
        (* Flooding phase: absorb neighbors' maxima, rebroadcast. *)
        let best =
          Array.fold_left
            (fun acc m ->
              match m with
              | Some (Label.Bits b) -> if Bits.compare_lex b acc > 0 then b else acc
              | Some _ -> invalid_arg "monte-carlo-leader: malformed message"
              | None -> acc)
            s.best inbox
        in
        let s = { s with best } in
        if s.round_no >= id_bits + s.n then begin
          let s =
            { s with out = Some (Label.Bool (Bits.equal s.my_id s.best)) }
          in
          s, Algorithm.silence ~degree:s.degree
        end
        else s, Algorithm.broadcast ~degree:s.degree (Label.Bits s.best)
      end
  end)
