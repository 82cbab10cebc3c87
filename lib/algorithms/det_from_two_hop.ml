module Label = Anonet_graph.Label
module Algorithm = Anonet_runtime.Algorithm

(* The 2-hop color of a [Π^c]-style composite label. *)
let color_of_input = function
  | Label.Pair (_, c) -> c
  | l -> l

(* ---------- Greedy MIS ---------- *)

module Mis = struct
  let name = "det-mis-from-2hop"

  type status =
    | Undecided
    | In_mis
    | Out_mis

  type state = {
    degree : int;
    color : Label.t;
    status : status;
    out : Label.t option;
  }

  let init ~input ~degree =
    { degree; color = color_of_input input; status = Undecided; out = None }

  let output s = s.out

  let encode_status = function Undecided -> "u" | In_mis -> "in" | Out_mis -> "out"

  let msg s = Label.Pair (Label.Str (encode_status s.status), s.color)

  let decode = function
    | Label.Pair (Label.Str st, color) -> st, color
    | _ -> invalid_arg "det-mis: malformed message"

  let round s ~bit:_ ~inbox =
    let received = List.filter_map (Option.map decode) (Array.to_list inbox) in
    let s =
      match s.status with
      | In_mis | Out_mis -> s
      | Undecided ->
        if List.exists (fun (st, _) -> st = "in") received then
          { s with status = Out_mis; out = Some (Label.Bool false) }
        else begin
          let undecided_colors =
            List.filter_map
              (fun (st, c) -> if st = "u" then Some c else None)
              received
          in
          let locally_minimal =
            List.for_all (fun c -> Label.compare s.color c < 0) undecided_colors
          in
          (* Round 1 has an empty inbox: wait until every neighbor has
             spoken at least once. *)
          if locally_minimal && List.length received = s.degree then
            { s with status = In_mis; out = Some (Label.Bool true) }
          else s
        end
    in
    s, Algorithm.broadcast ~degree:s.degree (msg s)

  let algorithm : Algorithm.t =
    (module struct
      type nonrec state = state

      let name = name

      let init = init

      let round = round

      let output = output

      let flat = None
    end)
end

(* ---------- Greedy coloring ---------- *)

module Coloring = struct
  let name = "det-coloring-from-2hop"

  type state = {
    degree : int;
    color : Label.t;  (* the input 2-hop color, used as priority *)
    chosen : int option;  (* the output color, once picked *)
    out : Label.t option;
  }

  let init ~input ~degree =
    { degree; color = color_of_input input; chosen = None; out = None }

  let output s = s.out

  (* Message: (my 2-hop color, my chosen output color if any). *)
  let msg s =
    let chosen = match s.chosen with None -> Label.Unit | Some k -> Label.Int k in
    Label.Pair (s.color, chosen)

  let decode = function
    | Label.Pair (color, Label.Unit) -> color, None
    | Label.Pair (color, Label.Int k) -> color, Some k
    | _ -> invalid_arg "det-coloring: malformed message"

  let smallest_free used =
    let rec go k = if List.mem k used then go (k + 1) else k in
    go 0

  let round s ~bit:_ ~inbox =
    let received = List.filter_map (Option.map decode) (Array.to_list inbox) in
    let s =
      match s.chosen with
      | Some _ -> s
      | None ->
        let undecided_colors =
          List.filter_map
            (fun (c, chosen) -> if chosen = None then Some c else None)
            received
        in
        let locally_minimal =
          List.for_all (fun c -> Label.compare s.color c < 0) undecided_colors
        in
        if locally_minimal && List.length received = s.degree then begin
          let used = List.filter_map (fun (_, chosen) -> chosen) received in
          let k = smallest_free used in
          { s with chosen = Some k; out = Some (Label.Int k) }
        end
        else s
    in
    s, Algorithm.broadcast ~degree:s.degree (msg s)

  let algorithm : Algorithm.t =
    (module struct
      type nonrec state = state

      let name = name

      let init = init

      let round = round

      let output = output

      let flat = None
    end)
end

(* ---------- Greedy matching ---------- *)

module Matching = struct
  let name = "det-matching-from-2hop"

  (* Three-round phases:
       R1 (commit/announce): a proposer finding an accept on its pending
           port commits; everyone broadcasts (status, color).
       R2 (propose): a locally color-minimal undecided node sends "p" on
           the port of its smallest-colored undecided neighbor.
       R3 (accept): an undecided non-proposer picks the smallest-colored
           proposing port, sends "a" there, and commits. *)
  type status =
    | Undecided
    | Matched of int
    | Done_unmatched

  type step =
    | Commit
    | Propose
    | Accept

  type state = {
    degree : int;
    color : Label.t;
    status : status;
    step : step;
    pending : int option;  (* port proposed on, awaiting accept *)
    nbr_status : string array;
    nbr_color : Label.t option array;
    out : Label.t option;
  }

  let init ~input ~degree =
    {
      degree;
      color = color_of_input input;
      status = Undecided;
      step = Commit;
      pending = None;
      nbr_status = Array.make degree "?";
      nbr_color = Array.make degree None;
      out = None;
    }

  let output s = s.out

  let status_tag = function
    | Undecided -> "u"
    | Matched _ -> "m"
    | Done_unmatched -> "d"

  let announce s = Label.Pair (Label.Str (status_tag s.status), s.color)

  let undecided_ports s =
    List.filter (fun p -> s.nbr_status.(p) = "u") (List.init s.degree (fun p -> p))

  (* The port among [ports] whose neighbor has the smallest color; ports
     carry distinct colors under a 2-hop coloring. *)
  let min_color_port s ports =
    let color p = Option.get s.nbr_color.(p) in
    match ports with
    | [] -> None
    | p0 :: rest ->
      Some
        (List.fold_left
           (fun best p -> if Label.compare (color p) (color best) < 0 then p else best)
           p0 rest)

  let round s ~bit:_ ~inbox =
    match s.step with
    | Commit ->
      let s =
        match s.status, s.pending with
        | Undecided, Some port ->
          if inbox.(port) = Some (Label.Str "a") then
            { s with status = Matched port; out = Some (Label.Int port); pending = None }
          else { s with pending = None }
        | (Undecided | Matched _ | Done_unmatched), _ -> { s with pending = None }
      in
      { s with step = Propose }, Algorithm.broadcast ~degree:s.degree (announce s)
    | Propose ->
      (* inbox: everyone's (status, color) announcements *)
      let nbr_status = Array.copy s.nbr_status in
      let nbr_color = Array.copy s.nbr_color in
      Array.iteri
        (fun p m ->
          match m with
          | Some (Label.Pair (Label.Str st, c)) ->
            nbr_status.(p) <- st;
            nbr_color.(p) <- Some c
          | Some _ -> invalid_arg "det-matching: malformed announcement"
          | None -> ())
        inbox;
      let s = { s with nbr_status; nbr_color; step = Accept } in
      (match s.status with
       | Matched _ | Done_unmatched -> s, Algorithm.silence ~degree:s.degree
       | Undecided ->
         let undecided = undecided_ports s in
         if undecided = [] && Array.for_all (fun st -> st <> "?") s.nbr_status then begin
           let s = { s with status = Done_unmatched; out = Some Label.Unit } in
           s, Algorithm.silence ~degree:s.degree
         end
         else begin
           let locally_minimal =
             List.for_all
               (fun p -> Label.compare s.color (Option.get s.nbr_color.(p)) < 0)
               undecided
           in
           match min_color_port s undecided with
           | Some port when locally_minimal ->
             let s = { s with pending = Some port } in
             let sends = Array.make s.degree None in
             sends.(port) <- Some (Label.Str "p");
             s, sends
           | Some _ | None -> s, Algorithm.silence ~degree:s.degree
         end)
    | Accept ->
      let s = { s with step = Commit } in
      (match s.status, s.pending with
       | Undecided, None ->
         let proposals =
           List.filter (fun p -> inbox.(p) = Some (Label.Str "p"))
             (List.init s.degree (fun p -> p))
         in
         (match min_color_port s proposals with
          | Some port ->
            let s = { s with status = Matched port; out = Some (Label.Int port) } in
            let sends = Array.make s.degree None in
            sends.(port) <- Some (Label.Str "a");
            s, sends
          | None -> s, Algorithm.silence ~degree:s.degree)
       | (Undecided | Matched _ | Done_unmatched), _ ->
         s, Algorithm.silence ~degree:s.degree)
end

(* ---------- 2-hop color reduction ---------- *)

module Two_hop_recoloring = struct
  let name = "det-2hop-recoloring"

  (* Three-round phases mirroring the randomized 2-hop algorithm's
     communication pattern: announce (priority, chosen), relay the heard
     multiset, decide.  The input 2-hop colors act as priorities; since
     they are pairwise distinct within two hops, a node can recognize its
     own echo in the relayed multisets by value. *)
  type step =
    | Announce
    | Relay
    | Decide

  type state = {
    degree : int;
    priority : Label.t;  (* the input 2-hop color *)
    chosen : int option;
    step : step;
    heard : (Label.t * int option) array;  (* 1-hop announcements *)
    out : Label.t option;
  }

  let init ~input ~degree =
    {
      degree;
      priority = color_of_input input;
      chosen = None;
      step = Announce;
      heard = [||];
      out = None;
    }

  let output s = s.out

  let encode_entry (priority, chosen) =
    let c = match chosen with None -> Label.Unit | Some k -> Label.Int k in
    Label.Pair (priority, c)

  let decode_entry = function
    | Label.Pair (priority, Label.Unit) -> priority, None
    | Label.Pair (priority, Label.Int k) -> priority, Some k
    | _ -> invalid_arg "det-2hop-recoloring: malformed entry"

  let smallest_free used =
    let rec go k = if List.mem k used then go (k + 1) else k in
    go 0

  let round s ~bit:_ ~inbox =
    match s.step with
    | Announce ->
      ( { s with step = Relay },
        Algorithm.broadcast ~degree:s.degree (encode_entry (s.priority, s.chosen)) )
    | Relay ->
      let heard = Array.map (fun m -> decode_entry (Option.get m)) inbox in
      let relay =
        Label.List (List.map encode_entry (Array.to_list heard))
      in
      { s with step = Decide; heard }, Algorithm.broadcast ~degree:s.degree relay
    | Decide ->
      let two_hop =
        Array.to_list inbox
        |> List.concat_map (fun m -> List.map decode_entry (Label.to_list (Option.get m)))
      in
      let entries = Array.to_list s.heard @ two_hop in
      (* Drop own echoes: within two hops only this node carries this
         priority. *)
      let others =
        List.filter (fun (p, _) -> not (Label.equal p s.priority)) entries
      in
      let s =
        match s.chosen with
        | Some _ -> s
        | None ->
          let locally_minimal =
            List.for_all
              (fun (p, chosen) -> chosen <> None || Label.compare s.priority p < 0)
              others
          in
          if locally_minimal then begin
            let used = List.filter_map snd others in
            let k = smallest_free used in
            { s with chosen = Some k; out = Some (Label.Int k) }
          end
          else s
      in
      { s with step = Announce; heard = [||] }, Algorithm.silence ~degree:s.degree
end

let mis = Mis.algorithm

let coloring = Coloring.algorithm

let matching : Algorithm.t =
  (module struct
    type state = Matching.state

    let name = Matching.name

    let init = Matching.init

    let round = Matching.round

    let output = Matching.output

    let flat = None
  end)

let two_hop_recoloring : Algorithm.t =
  (module struct
    type state = Two_hop_recoloring.state

    let name = Two_hop_recoloring.name

    let init = Two_hop_recoloring.init

    let round = Two_hop_recoloring.round

    let output = Two_hop_recoloring.output

    let flat = None
  end)
