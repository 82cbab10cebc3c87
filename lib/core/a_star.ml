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

(* Per-search frontier bound; cumulative over a warm handle's lifetime. *)
let max_search_states = 1_000_000

let make ~ctx ~gran ?(incremental = true) ?(search_cache_cap = 32)
    ?(pruning = true) () : Algorithm.t =
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

    let is_instance_colored =
      (Problem.colored_variant gran.Gran.problem).Problem.is_instance

    (* The simulation input [(V̂, Ê, î)]: candidate labels are
       <<i, c>, b>; the solver sees only i. *)
    let solver_input candidate_graph =
      Graph.map_labels candidate_graph (fun l -> Label.fst (Label.fst l))

    let obs = Run_ctx.obs ctx

    let memo : (int * int, computation) Hashtbl.t = Hashtbl.create 256

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
       about half the lookups hit.  The cache lives in one algorithm
       value, which serves one synchronous run ({!solve}): its phases only
       grow, so a handle is never asked for a target below its level. *)
    type search_entry = {
      sim : Simulation.result;  (* Update-Output on the candidate *)
      search : Min_search.Resumable.t;  (* Update-Bits, warm-startable *)
      mutable stamp : int;  (* LRU clock tick of the last use *)
    }

    let search_cache : (string, search_entry) Hashtbl.t = Hashtbl.create 16

    let cache_clock = ref 0

    let cache_hits_c = Obs.counter obs "cache.search.hits"

    let cache_misses_c = Obs.counter obs "cache.search.misses"

    let cache_evictions_c = Obs.counter obs "cache.search.evictions"

    let cache_resumed_c = Obs.counter obs "cache.search.resumed_levels"

    let touch e =
      incr cache_clock;
      e.stamp <- !cache_clock

    let evict_lru () =
      let victim =
        Hashtbl.fold
          (fun key e acc ->
            match acc with
            | Some (_, stamp) when stamp <= e.stamp -> acc
            | _ -> Some (key, e.stamp))
          search_cache None
      in
      match victim with
      | Some (key, _) ->
        Hashtbl.remove search_cache key;
        Obs.incr cache_evictions_c
      | None -> ()

    let fresh_entry j assignment =
      let sim =
        Simulation.run ~obs ~solver:gran.Gran.solver j ~bits:assignment
      in
      let search =
        Min_search.Resumable.create ~ctx ~max_states:max_search_states ~pruning
          ~solver:gran.Gran.solver j ~base:assignment ()
      in
      { sim; search; stamp = 0 }

    let lookup encoding j assignment =
      match Hashtbl.find_opt search_cache encoding with
      | Some e ->
        Obs.incr cache_hits_c;
        Obs.incr ~by:(Min_search.Resumable.level e.search) cache_resumed_c;
        touch e;
        e
      | None ->
        Obs.incr cache_misses_c;
        if Hashtbl.length search_cache >= search_cache_cap then evict_lru ();
        let e = fresh_entry j assignment in
        touch e;
        Hashtbl.replace search_cache encoding e;
        e

    let compute knowledge ~phase =
      let key = Interned.id knowledge, phase in
      match Hashtbl.find_opt memo key with
      | Some c -> c
      | None ->
        let c =
          match
            Candidates.from_knowledge knowledge ~phase
              ~is_instance:is_instance_colored
          with
          | [] -> { new_output = None; partner_color = None; new_b = None }
          | selected :: _ ->
            let j = solver_input selected.Candidates.graph in
            let assignment = Candidates.assignment_of selected.Candidates.graph in
            let me = selected.Candidates.me in
            (* Update-Output and Update-Bits, warm (cached per candidate)
               or cold — value-identical either way. *)
            let sim, found =
              if incremental then begin
                let entry = lookup selected.Candidates.encoding j assignment in
                entry.sim, Min_search.Resumable.extend entry.search ~len:phase
              end
              else
                ( Simulation.run ~obs ~solver:gran.Gran.solver j
                    ~bits:assignment,
                  Min_search.minimal_successful ~ctx ~solver:gran.Gran.solver j
                    ~base:assignment ~max_states:max_search_states ~pruning
                    ~len:(Min_search.Exactly phase) () )
            in
            let new_output =
              if sim.Simulation.successful then sim.Simulation.outputs.(me)
              else None
            in
            (* If the output names a port of the alias, record the color
               of the alias's neighbor at that port for translation. *)
            let partner_color =
              match gran.Gran.output_encoding, new_output with
              | Anonet_problems.Gran.Port_output, Some (Label.Int p)
                when p >= 0 && p < Graph.degree selected.Candidates.graph me ->
                let partner = Graph.neighbor selected.Candidates.graph me p in
                Some
                  (Label.snd
                     (Label.fst (Graph.label selected.Candidates.graph partner)))
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
                      (match new_b with
                       | None -> "-"
                       | Some b -> Bits.to_string b) );
                ]);
            { new_output; partner_color; new_b }
        in
        Hashtbl.add memo key c;
        c

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
            (function
              | Some m -> Interned.of_label m
              | None -> invalid_arg "a-star: missing knowledge message")
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
          {
            s with
            port_colors =
              Some
                (Array.map
                   (fun (c : Interned.t) -> Label.snd (Label.fst (Interned.mark c)))
                   children);
          }
        else s
      in
      if s.round_in_phase < s.phase then
        (* Exchange step: share the gathered view, one level deeper. *)
        ( { s with knowledge; round_in_phase = s.round_in_phase + 1 },
          Algorithm.broadcast ~degree:s.degree (Interned.to_label knowledge) )
      else begin
        (* Final round of the phase: run Update-Graph / Update-Output /
           Update-Bits on the gathered view L_p(v, I^p). *)
        let { new_output; partner_color; new_b } = compute knowledge ~phase:s.phase in
        (* Translate a port-valued alias output into this node's own port
           numbering via the partner's color (unique among neighbors). *)
        let translated =
          match new_output, partner_color, s.port_colors with
          | Some _, Some color, Some port_colors ->
            let rec find q =
              if q >= Array.length port_colors then new_output
              else if Label.equal port_colors.(q) color then Some (Label.Int q)
              else find (q + 1)
            in
            find 0
          | o, _, _ -> o
        in
        let out =
          match s.out, translated with
          | None, o -> o
          | (Some _ as o), _ -> o (* outputs are irrevocable *)
        in
        let b = Option.value ~default:s.b new_b in
        ( { s with knowledge; out; b; phase = s.phase + 1; round_in_phase = 1 },
          Algorithm.silence ~degree:s.degree )
      end
  end)

let solve ?(ctx = Run_ctx.default) ~gran g ?max_rounds ?incremental
    ?search_cache_cap ?pruning () =
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 4 * (n + 4) * (n + 4)
  in
  let algo = make ~ctx ~gran ?incremental ?search_cache_cap ?pruning () in
  Obs.span (Run_ctx.obs ctx) "a_star.solve" (fun () ->
      (* Update-Bits runs its searches inside the executor's rounds; their
         typed limits surface as the same errors A_infinity returns. *)
      match
        Min_search.catch_limits (fun () ->
            Executor.run ~ctx algo g ~tape:Tape.zero ~max_rounds)
      with
      | Error m -> Error m
      | Ok (Ok outcome) -> Ok outcome
      | Ok (Error failure) ->
        Error (Format.asprintf "%a" Executor.pp_failure failure))
