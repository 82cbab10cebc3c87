(* Observability handle threaded through the runtime via Run_ctx.

   The design constraint is the null path: every entry point receives an
   [Obs.t], and when it is [null] the per-round cost must be a handful of
   option matches — no allocation, no atomics, no formatting.  Metric
   handles are therefore [option]s resolved once at the start of a run, and
   event payloads are only built when the sink is live. *)

type t = {
  metrics : Metrics.t option;
  events : Events.t;
  live : bool;
}

let null = { metrics = None; events = Events.null; live = false }

let make ?metrics ?(events = Events.null) () = { metrics; events; live = true }

let live t = t.live
let metrics t = t.metrics
let counter t name =
  match t.metrics with None -> None | Some m -> Some (Metrics.counter m name)

let gauge t name =
  match t.metrics with None -> None | Some m -> Some (Metrics.gauge m name)

let histogram t name =
  match t.metrics with None -> None | Some m -> Some (Metrics.histogram m name)

let incr ?by c = match c with None -> () | Some c -> Metrics.incr ?by c
let set g v = match g with None -> () | Some g -> Metrics.set g v
let observe h v = match h with None -> () | Some h -> Metrics.observe h v

let event t name fields =
  if Events.live t.events then Events.emit t.events name fields

(* Lazily-built payloads, for hot paths where even constructing the field
   list is unwelcome. *)
let eventf t name fields =
  if Events.live t.events then Events.emit t.events name (fields ())

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let span t name f =
  if not t.live then f ()
  else begin
    let h = histogram t ("span." ^ name ^ ".ns") in
    event t "span.open" [ ("span", Events.String name) ];
    let t0 = now_ns () in
    let finish ok =
      let ns = now_ns () - t0 in
      observe h ns;
      event t "span.close"
        [ ("span", Events.String name); ("ns", Events.Int ns); ("ok", Events.Bool ok) ]
    in
    match f () with
    | v ->
        finish true;
        v
    | exception e ->
        finish false;
        raise e
  end
