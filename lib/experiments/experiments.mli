(** The experiment harness: one executable experiment per figure and
    theorem of the paper, as indexed in DESIGN.md and recorded in
    EXPERIMENTS.md.  Each experiment computes a structured {!output} —
    a list of {!row}s with typed fields — and asserts its own invariants
    (a failed claim raises).  {e Printing is the caller's job}: {!render}
    prints the experiment's text tables (what [anonet experiments] shows
    and EXPERIMENTS.md records), while programmatic consumers (the
    benchmark JSON, the event stream, tests) read the fields instead of
    re-parsing text.

    Ids: [f1] [f2] [f3] (the figures), [t2] [t3] (theorems), [lemmas],
    [a1] [a2] [a3] [a4] (ablations), [e1] [e2] (extensions), [r1]
    (robustness under injected faults), [r2] (degradation curves under an
    adaptive adversary), [avg] (average-case statistics — Norris depth,
    greedy 2-hop palette, MIS rounds — over seeded G(n,p) and
    random-regular ensembles; sizes default to n = 10^3, 10^4 and scale
    to 10^6 via the ANONET_AVG_NS environment variable).

    [?domains] (default 1) fans independent graph-family rows out across
    that many domains with {!Anonet_parallel.Pool.map} (results are
    merged in input order — the output is identical to a sequential
    run).  It is the harness's only parallelism: each row runs its own
    search or solve sequentially, and [a1]/[a2] never fan out (their
    rows report wall-clock time, which fanning would distort).
    [ctx.obs], when live, gets one ["experiment.row"] event per row
    (fields included) and an [experiment.<id>] span per experiment, plus
    whatever the instrumented runtime underneath emits. *)

type row = {
  experiment : string;  (** owning experiment id, e.g. ["t2"] *)
  label : string;  (** row key within the experiment, e.g. ["c12/3colors"] *)
  fields : (string * Anonet_obs.Events.value) list;
      (** the row's measurements, typed; what ["experiment.row"] events carry *)
  line : string;
      (** the row rendered exactly as the historical stdout format
          (newline-terminated; may span several lines) *)
}

type output = {
  id : string;
  title : string;  (** banner title, e.g. ["T2  Theorem 2: ..."] *)
  prelude : string;
      (** everything printed before the rows: banner, column headers,
          any figure text *)
  rows : row list;
  coda : string;  (** the ["shape: ..."] trailer *)
}

(** [(id, description)] for every experiment, in run order. *)
val all : (string * string) list

(** Run one experiment by id (case-insensitive). *)
val run :
  ?ctx:Anonet_runtime.Run_ctx.t ->
  ?domains:int ->
  string ->
  (output, string) result

(** Run every experiment in order. *)
val run_all :
  ?ctx:Anonet_runtime.Run_ctx.t ->
  ?domains:int ->
  unit ->
  output list

(** [render oc out] writes the experiment in the historical stdout
    format: prelude, then each row's [line], then the coda. *)
val render : out_channel -> output -> unit
