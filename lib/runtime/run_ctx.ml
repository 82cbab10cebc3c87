module Graph = Anonet_graph.Graph
module Prng = Anonet_graph.Prng
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events

type t = {
  faults : Faults.plan option;
  adversary : Adversary.plan option;
  obs : Obs.t;
  scramble_seed : int option;
}

let default =
  { faults = None; adversary = None; obs = Obs.null; scramble_seed = None }

let make ?faults ?adversary ?(obs = Obs.null) ?scramble_seed () =
  { faults; adversary; obs; scramble_seed }

let obs t = t.obs
let faults t = t.faults
let adversary t = t.adversary

let injector t = Option.map Faults.make t.faults
let adversary_instance t = Option.map Adversary.make t.adversary

(* The seed mixing must stay exactly as the original Executor.run derived
   it: scrambled-run regression tests pin per-(node, round) permutations. *)
let scramble_of_seed seed ~node ~degree ~round =
  let rng = Prng.create ((seed * 92_821) + (node * 613) + round) in
  let p = Array.init degree (fun i -> i) in
  Prng.shuffle rng p;
  p

let scramble t = Option.map scramble_of_seed t.scramble_seed

(* Shared by both executors: fold an injector's event log into counters and
   (when a sink is attached) one "fault" event per injection. *)
let observe_faults obs f =
  if Obs.live obs then begin
    let count name = Obs.counter obs ("faults." ^ name) in
    let dropped = count "dropped"
    and duplicated = count "duplicated"
    and corrupted = count "corrupted"
    and link_dead = count "link_dead"
    and crashed = count "crashed"
    and recovered = count "recovered" in
    List.iter
      (fun (e : Faults.event) ->
        let kind, fields =
          match e.kind with
          | Faults.Dropped { src; dst } ->
            Obs.incr dropped;
            ("dropped", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Faults.Duplicated { src; dst } ->
            Obs.incr duplicated;
            ("duplicated", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Faults.Corrupted { src; dst } ->
            Obs.incr corrupted;
            ("corrupted", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Faults.Link_dead { src; dst } ->
            Obs.incr link_dead;
            ("link_dead", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Faults.Crashed node ->
            Obs.incr crashed;
            ("crashed", [ ("node", Events.Int node) ])
          | Faults.Recovered node ->
            Obs.incr recovered;
            ("recovered", [ ("node", Events.Int node) ])
        in
        Obs.event obs "fault"
          (("round", Events.Int e.round) :: ("kind", Events.String kind) :: fields))
      (Faults.events f);
    Obs.set (Obs.gauge obs "faults.spent") (Faults.spent f)
  end

(* Same shape for a finished adversary: its action log becomes adversary.*
   counters plus one "adversary" event per action. *)
let observe_adversary obs a =
  if Obs.live obs then begin
    let count name = Obs.counter obs ("adversary." ^ name) in
    let substituted = count "substituted"
    and corrupted = count "corrupted"
    and targeted = count "targeted" in
    List.iter
      (fun (e : Adversary.event) ->
        let kind, fields =
          match e.kind with
          | Adversary.Substituted { src; dst } ->
            Obs.incr substituted;
            ("substituted", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Adversary.Corrupted { src; dst } ->
            Obs.incr corrupted;
            ("corrupted", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
          | Adversary.Targeted { src; dst } ->
            Obs.incr targeted;
            ("targeted", [ ("src", Events.Int src); ("dst", Events.Int dst) ])
        in
        Obs.event obs "adversary"
          (("round", Events.Int e.round) :: ("kind", Events.String kind) :: fields))
      (Adversary.events a);
    Obs.set (Obs.gauge obs "adversary.spent") (Adversary.spent a);
    Obs.set (Obs.gauge obs "adversary.observed") (Adversary.observed a)
  end
