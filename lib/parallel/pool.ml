(* A persistent pool of worker domains draining a shared index counter.

   Each job is a self-contained record (body, size, claim/finish counters,
   first-failure slot): workers grab the *current* job under the lock but
   drain it through the job record only, so a worker that wakes up late —
   after the caller already finished the job and moved on — finds the
   stale record's counter exhausted and harmlessly loops back to sleep.
   Completion is "every index finished", tracked in the job itself; the
   caller owns the job and is always one of the drainers. *)

module Obs = Anonet_obs.Obs
module Metrics = Anonet_obs.Metrics

type job =
  | Job : {
      body : int -> unit;
      size : int;
      next : int Atomic.t;  (** next unclaimed index *)
      finished : int Atomic.t;  (** indices fully processed (run or skipped) *)
      failure : exn option Atomic.t;  (** first exception, by wall clock *)
      posted_ns : int;  (** post time, 0 when the pool is uninstrumented *)
    }
      -> job

type t = {
  domains : int;
  mutable workers : unit Domain.t list;
  lock : Mutex.t;
  wake : Condition.t;  (** new job posted, or shutdown *)
  idle : Condition.t;  (** some job just finished its last index *)
  mutable generation : int;  (** bumped per posted job *)
  mutable job : job option;
  mutable stopped : bool;
  (* Metric handles resolved at creation; [None] on an uninstrumented pool
     keeps the claim loop at one branch per handle. *)
  tasks_c : Metrics.counter option;
  run_h : Metrics.histogram option;
  wait_h : Metrics.histogram option;
}

let domains t = t.domains

(* Drain [j]: claim indices until exhausted.  After a failure is recorded,
   remaining indices are claimed but their bodies skipped, so the job
   still terminates promptly and deterministically reaches [finished =
   size].  Whoever finishes the last index signals the caller. *)
let run_body t (Job j) i =
  (match t.wait_h with
   | None -> ()
   | Some h -> Metrics.observe h (max 0 (Obs.now_ns () - j.posted_ns)));
  (match t.tasks_c with None -> () | Some c -> Metrics.incr c);
  match t.run_h with
  | None ->
    (try j.body i
     with e -> ignore (Atomic.compare_and_set j.failure None (Some e)))
  | Some h ->
    let t0 = Obs.now_ns () in
    (try j.body i
     with e -> ignore (Atomic.compare_and_set j.failure None (Some e)));
    Metrics.observe h (Obs.now_ns () - t0)

let drain t (Job j) =
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.size then begin
      (if Atomic.get j.failure = None then run_body t (Job j) i);
      let f = 1 + Atomic.fetch_and_add j.finished 1 in
      if f = j.size then begin
        Mutex.lock t.lock;
        Condition.broadcast t.idle;
        Mutex.unlock t.lock
      end;
      go ()
    end
  in
  go ()

let rec worker t ~seen =
  Mutex.lock t.lock;
  while (not t.stopped) && t.generation = seen do
    Condition.wait t.wake t.lock
  done;
  let seen = t.generation in
  let job = t.job in
  let stopped = t.stopped in
  Mutex.unlock t.lock;
  if not stopped then begin
    (match job with None -> () | Some j -> drain t j);
    worker t ~seen
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.stopped then Mutex.unlock t.lock
  else begin
    t.stopped <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let create ?(obs = Obs.null) ?domains () =
  let domains =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Pool.create: domains < 1" else d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      workers = [];
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      job = None;
      stopped = false;
      tasks_c = Obs.counter obs "pool.tasks";
      run_h = Obs.histogram obs "pool.task.run_ns";
      wait_h = Obs.histogram obs "pool.task.wait_ns";
    }
  in
  (* Spawn one worker at a time, so that a [Domain.spawn] failing partway
     (at the runtime's domain limit, say) can stop and join the workers
     already running before the exception propagates. *)
  (try
     for _ = 2 to domains do
       t.workers <- Domain.spawn (fun () -> worker t ~seen:0) :: t.workers
     done
   with e ->
     shutdown t;
     raise e);
  t

let with_pool ?obs ?domains f =
  let t = create ?obs ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run t ~n body =
  if n > 0 then begin
    if t.domains = 1 then
      (* Sequential fallback: in order, first exception propagates.  Tasks
         are still counted and timed (there is no queueing wait to speak
         of, so [pool.task.wait_ns] stays untouched). *)
      for i = 0 to n - 1 do
        (match t.tasks_c with None -> () | Some c -> Metrics.incr c);
        match t.run_h with
        | None -> body i
        | Some h ->
          let t0 = Obs.now_ns () in
          Fun.protect
            ~finally:(fun () -> Metrics.observe h (Obs.now_ns () - t0))
            (fun () -> body i)
      done
    else begin
      let j =
        Job
          {
            body;
            size = n;
            next = Atomic.make 0;
            finished = Atomic.make 0;
            failure = Atomic.make None;
            posted_ns = (if Option.is_none t.wait_h then 0 else Obs.now_ns ());
          }
      in
      Mutex.lock t.lock;
      if t.stopped then begin
        Mutex.unlock t.lock;
        invalid_arg "Pool.run: pool is shut down"
      end;
      t.job <- Some j;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock;
      drain t j;
      let (Job { finished; failure; size; _ }) = j in
      Mutex.lock t.lock;
      while Atomic.get finished < size do
        Condition.wait t.idle t.lock
      done;
      t.job <- None;
      Mutex.unlock t.lock;
      match Atomic.get failure with Some e -> raise e | None -> ()
    end
  end

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t ~n (fun i -> out.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end
