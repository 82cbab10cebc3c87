module Graph = Anonet_graph.Graph
module Label = Anonet_graph.Label
module Bits = Anonet_graph.Bits
module Interned = Anonet_views.Interned
module Algorithm = Anonet_runtime.Algorithm
module Executor = Anonet_runtime.Executor
module Run_ctx = Anonet_runtime.Run_ctx
module Tape = Anonet_runtime.Tape
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events
module Problem = Anonet_problems.Problem
module Gran = Anonet_problems.Gran

(* The result of the end-of-phase local computation, a pure function of
   (gathered view, phase): memoized across the nodes of one solve. *)
type computation = {
  new_output : Label.t option;  (* from Update-Output, if successful *)
  partner_color : Label.t option;
      (* for Port_output bundles whose output names a port: the 2-hop
         color of the alias's partner, used to translate the port into
         the node's own numbering *)
  new_b : Bits.t option;  (* from Update-Bits, if some extension succeeds *)
}

(* One cached candidate of the incremental phase engine. *)
type search_entry = {
  sim : Simulation.result;  (* Update-Output on the candidate *)
  search : Min_search.Resumable.t;  (* Update-Bits, warm-startable *)
}

(* The phase computation of one solve: Update-Graph, Update-Output and
   Update-Bits on a gathered view, memoized on (view id, phase).  Both
   renderings of A* — the boxed algorithm and its flat companion — call
   the one [compute] a solve builds, so they share its memo and its
   search cache. *)
let phase_engine ~ctx ~gran ~incremental ~pruning =
  let is_instance_colored =
    (Problem.colored_variant gran.Gran.problem).Problem.is_instance
  in
  (* The simulation input [(V̂, Ê, î)]: candidate labels are
     <<i, c>, b>; the solver sees only i. *)
  let solver_input candidate_graph =
    Graph.map_labels candidate_graph (fun l -> Label.fst (Label.fst l))
  in
  let obs = Run_ctx.obs ctx in
  let memo : (int * int, computation) Hashtbl.t = Hashtbl.create 256 in
  (* ---- incremental phase engine -------------------------------------
     When Update-Graph selects the same candidate as a previous phase —
     the steady state once Lemma 6–7 stabilization kicks in — the phase
     simulation (Update-Output) is identical work and the exactly-p bit
     search (Update-Bits) is a one-level extension of the previous
     phase's frontier (the prefix property behind Lemma 9).  Cache
     both, keyed by the candidate's canonical encoding, which pins the
     whole candidate — [n], the edge set, and the [<<i, c>, b>] labels,
     hence the base assignment too.  One candidate entry serves every
     node class that selects it; on the benchmark's derandomize mix
     about half the lookups hit.  The cache lives in one engine, which
     serves one synchronous run ({!solve}): its phases only grow, so a
     handle is never asked for a target below its level.  It is not
     bounded: a run selects few distinct candidates (at most 23 entries
     on any measured run), and the run's end frees them all. *)
  let search_cache : (string, search_entry) Hashtbl.t = Hashtbl.create 16 in
  let cache_hits_c = Obs.counter obs "cache.search.hits" in
  let cache_misses_c = Obs.counter obs "cache.search.misses" in
  let cache_resumed_c = Obs.counter obs "cache.search.resumed_levels" in
  let fresh_entry j assignment =
    let sim = Simulation.run ~obs ~solver:gran.Gran.solver j ~bits:assignment in
    let search =
      Min_search.Resumable.create ~ctx ~pruning ~solver:gran.Gran.solver j
        ~base:assignment ()
    in
    { sim; search }
  in
  let lookup encoding j assignment =
    match Hashtbl.find_opt search_cache encoding with
    | Some e ->
      Obs.incr cache_hits_c;
      Obs.incr ~by:(Min_search.Resumable.level e.search) cache_resumed_c;
      e
    | None ->
      Obs.incr cache_misses_c;
      let e = fresh_entry j assignment in
      Hashtbl.add search_cache encoding e;
      e
  in
  fun knowledge ~phase ->
    let key = Interned.id knowledge, phase in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
      let c =
        match
          Candidates.from_knowledge knowledge ~phase ~is_instance:is_instance_colored
        with
        | [] -> { new_output = None; partner_color = None; new_b = None }
        | selected :: _ ->
          let j = solver_input selected.Candidates.graph in
          let assignment = Candidates.assignment_of selected.Candidates.graph in
          let me = selected.Candidates.me in
          (* Update-Output and Update-Bits, warm (cached per candidate)
             or cold (a fresh handle per phase) — value-identical either
             way. *)
          let { sim; search } =
            if incremental then lookup selected.Candidates.encoding j assignment
            else fresh_entry j assignment
          in
          let found = Min_search.Resumable.extend search ~len:phase in
          let new_output =
            if sim.Simulation.successful then sim.Simulation.outputs.(me) else None
          in
          (* If the output names a port of the alias, record the color
             of the alias's neighbor at that port for translation. *)
          let partner_color =
            match gran.Gran.output_encoding, new_output with
            | Anonet_problems.Gran.Port_output, Some (Label.Int p)
              when p >= 0 && p < Graph.degree selected.Candidates.graph me ->
              let partner = Graph.neighbor selected.Candidates.graph me p in
              Some
                (Label.snd (Label.fst (Graph.label selected.Candidates.graph partner)))
            | (Anonet_problems.Gran.Port_output | Anonet_problems.Gran.Label_output), _
              -> None
          in
          let new_b =
            match found with
            | Some found -> Some found.Min_search.assignment.(me)
            | None -> None
          in
          Obs.eventf obs "a_star.update_bits" (fun () ->
              [
                ("phase", Events.Int phase);
                ("candidate_nodes", Events.Int (Graph.n selected.Candidates.graph));
                ( "found",
                  Events.String
                    (match new_b with None -> "-" | Some b -> Bits.to_string b) );
              ]);
          { new_output; partner_color; new_b }
      in
      Hashtbl.add memo key c;
      c

(* Update-Output's result in the node's own port numbering: a port-valued
   alias output is translated through the partner's color, which is
   unique among the node's neighbors; [color q] is the 2-hop color of the
   neighbor at port [q]. *)
let translate c ~degree ~color =
  match c.new_output, c.partner_color with
  | Some _, Some partner ->
    let rec find q =
      if q >= degree then c.new_output
      else if Label.equal (color q) partner then Some (Label.Int q)
      else find (q + 1)
    in
    find 0
  | o, _ -> o

(* The 2-hop color in a view's root mark <<i, c>, b>. *)
let color_of view = Label.snd (Label.fst (Interned.mark view))

let missing_message () = invalid_arg "a-star: missing knowledge message"

(* The boxed A*, stepped by hooked runs (faults, adversaries, scrambles
   act on [Label.t] payloads): its messages are the gathered views as
   minimal-DAG labels. *)
let boxed ~gran compute : Algorithm.t =
  (module struct
    let name = "a-star:" ^ gran.Gran.problem.Anonet_problems.Problem.name

    type state = {
      degree : int;
      input : Label.t;  (* the Π^c label <i, c> *)
      b : Bits.t;
      phase : int;
      round_in_phase : int;  (* 1-based; phase p has p rounds *)
      knowledge : Interned.t;
      port_colors : Label.t array option;
          (* my neighbors' 2-hop colors, in my own port order — the key
             for translating port-valued alias outputs *)
      out : Label.t option;
    }

    let frozen_label s = Label.Pair (s.input, Label.Bits s.b)

    let init ~input ~degree =
      {
        degree;
        input;
        b = Bits.empty;
        phase = 1;
        round_in_phase = 1;
        knowledge = Interned.leaf Label.Unit (* replaced in round 1 *);
        port_colors = None;
        out = None;
      }

    let output s = s.out

    let round s ~bit:_ ~inbox =
      (* Build this round's knowledge layer. *)
      let children =
        if s.round_in_phase = 1 then [||]
        else
          Array.map
            (function Some m -> Interned.of_label m | None -> missing_message ())
            inbox
      in
      let knowledge =
        if s.round_in_phase = 1 then Interned.leaf (frozen_label s)
        else Interned.node (Interned.mark s.knowledge) (Array.to_list children)
      in
      (* The first exchange round carries the neighbors' frozen labels in
         port order: harvest the 2-hop colors once. *)
      let s =
        if s.port_colors = None && s.round_in_phase = 2 then
          { s with port_colors = Some (Array.map color_of children) }
        else s
      in
      if s.round_in_phase < s.phase then
        (* Exchange step: share the gathered view, one level deeper. *)
        ( { s with knowledge; round_in_phase = s.round_in_phase + 1 },
          Algorithm.broadcast ~degree:s.degree (Interned.to_label knowledge) )
      else begin
        (* Final round of the phase: run Update-Graph / Update-Output /
           Update-Bits on the gathered view L_p(v, I^p). *)
        let c = compute knowledge ~phase:s.phase in
        let out =
          match s.out, s.port_colors with
          | (Some _ as o), _ -> o (* outputs are irrevocable *)
          | None, None -> c.new_output
          | None, Some colors ->
            translate c ~degree:(Array.length colors) ~color:(Array.get colors)
        in
        let b = Option.value ~default:s.b c.new_b in
        ( { s with knowledge; out; b; phase = s.phase + 1; round_in_phase = 1 },
          Algorithm.silence ~degree:s.degree )
      end
  end)

(* Labels by small index, so that one flat state word can name one. *)
module Label_tbl = Hashtbl.Make (struct
  type t = Label.t

  let equal = Label.equal

  let hash = Label.hash
end)

type label_index = {
  ids : int Label_tbl.t;
  mutable values : Label.t array;
}

let index t l =
  match Label_tbl.find_opt t.ids l with
  | Some i -> i
  | None ->
    let i = Label_tbl.length t.ids in
    if i = Array.length t.values then
      t.values <- Array.append t.values (Array.make (max 8 i) Label.Unit);
    t.values.(i) <- l;
    Label_tbl.add t.ids l i;
    i

(* Memos keyed by a few state and message words. *)
module Words_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal

  let hash l = List.fold_left (fun h w -> (h * 31) + w) 7 l land max_int
end)

(* The flat A*, stepped in place by hook-free runs.  State span: phase,
   round in phase, the knowledge id, the index of [Label.Bits b],
   1 + the index of the output (0 = none) and the index of the input,
   indices into one per-run label table.  The message is one word, the
   sender's knowledge id + 1: the run's arena is content-addressed, so
   the id names the view the boxed A* would send as a label, and the
   receiver rebuilds its layer from the ids without decoding.  Port
   colors need no state: from phase 2 on, the final round's inbox holds
   every neighbor's view, whose root mark carries its color.

   Nodes with equal views build equal layers, so two memos keyed by
   words answer most rounds without interning: a phase's leaf by (input,
   b) and a layer by the node's last knowledge id and its messages in
   port order. *)
let flat ~compute _g : Algorithm.Flat.instance =
  let labels = { ids = Label_tbl.create 16; values = [||] } in
  let empty_b = index labels (Label.Bits Bits.empty) in
  let leaves = Words_tbl.create 16 and layers = Words_tbl.create 64 in
  let child ~inbox ~ports ~pslot p =
    match Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p)) with
    | 0 -> missing_message ()
    | m -> Interned.of_id (m - 1)
  in
  let memo tbl key build =
    match Words_tbl.find_opt tbl key with
    | Some view -> view
    | None ->
      let view = build () in
      Words_tbl.add tbl key view;
      view
  in
  {
    state_words = 6;
    msg_words = 1;
    ported = false;
    init =
      (fun ~node:_ ~input ~degree:_ ~state ~off ->
        state.(off) <- 1;
        state.(off + 1) <- 1;
        state.(off + 3) <- empty_b;
        state.(off + 5) <- index labels input);
    round =
      (fun ~node:_ ~bit:_ ~degree ~state ~off ~inbox ~ports ~pslot ~send ~soff ->
        let phase = state.(off) and round_in_phase = state.(off + 1) in
        let knowledge =
          if round_in_phase = 1 then
            let input = state.(off + 5) and b = state.(off + 3) in
            memo leaves [ input; b ] (fun () ->
                Interned.leaf (Label.Pair (labels.values.(input), labels.values.(b))))
          else
            let own = state.(off + 2) in
            memo layers
              (own
              :: List.init degree (fun p ->
                     Array.unsafe_get inbox (Array.unsafe_get ports (pslot + p))))
              (fun () ->
                Interned.node
                  (Interned.mark (Interned.of_id own))
                  (List.init degree (child ~inbox ~ports ~pslot)))
        in
        state.(off + 2) <- Interned.id knowledge;
        if round_in_phase < phase then begin
          state.(off + 1) <- round_in_phase + 1;
          send.(soff) <- Interned.id knowledge + 1;
          true
        end
        else begin
          let c = compute knowledge ~phase in
          (if state.(off + 4) = 0 then
             let out =
               if phase = 1 then c.new_output
               else
                 translate c ~degree ~color:(fun q ->
                     color_of (child ~inbox ~ports ~pslot q))
             in
             Option.iter (fun o -> state.(off + 4) <- 1 + index labels o) out);
          Option.iter (fun b -> state.(off + 3) <- index labels (Label.Bits b)) c.new_b;
          state.(off) <- phase + 1;
          state.(off + 1) <- 1;
          false
        end);
    output =
      (fun ~state ~off ->
        match state.(off + 4) with 0 -> None | o -> Some labels.values.(o - 1));
    has_output = (fun ~state ~off -> state.(off + 4) <> 0);
  }

let make ~ctx ~gran ?(incremental = true) ?(pruning = true) () =
  let compute = phase_engine ~ctx ~gran ~incremental ~pruning in
  boxed ~gran compute, { Algorithm.Flat.plan = flat ~compute }

let solve ?(ctx = Run_ctx.default) ~gran g ?incremental ?pruning () =
  (* Round budget: generous for the quadratic phase schedule. *)
  let max_rounds = 4 * (Graph.n g + 4) * (Graph.n g + 4) in
  let algo, flat = make ~ctx ~gran ?incremental ?pruning () in
  Obs.span (Run_ctx.obs ctx) "a_star.solve" (fun () ->
      (* Update-Bits runs its searches inside the executor's rounds; their
         typed limits surface as the same errors A_infinity returns. *)
      match
        Min_search.catch_limits (fun () ->
            Executor.run ~ctx ~flat algo g ~tape:Tape.zero ~max_rounds)
      with
      | Error m -> Error m
      | Ok (Ok outcome) -> Ok outcome
      | Ok (Error failure) ->
        Error (Format.asprintf "%a" Executor.pp_failure failure))
