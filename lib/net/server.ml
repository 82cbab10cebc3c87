module Pool = Anonet_parallel.Pool
module Obs = Anonet_obs.Obs
module Events = Anonet_obs.Events
module Run_error = Anonet_runtime.Run_error

let protocol_code =
  Run_error.exit_code (Run_error.Net (Run_error.Protocol { message = "" }))

let rejected_code =
  Run_error.exit_code (Run_error.Net (Run_error.Rejected { message = "" }))

(* A connection whose outbox backs up this far has stopped reading its
   socket while jobs keep producing; it is treated as dead rather than
   buffering without bound. *)
let max_outbox = 16_384

type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;
      (* guards every mutable field below.  Two rules keep one stalled
         connection from wedging the server: [lock] is never held across
         I/O (only the writer thread touches the socket for output, and
         it writes with the lock released), and [lock] is never acquired
         while [t.qlock] is held (the reverse nesting would chain every
         reader and worker behind a single blocked connection). *)
  wake : Condition.t;  (* signals the writer: outbox or lifecycle changed *)
  outbox : Frame.t Queue.t;
  mutable closed : bool;
  mutable draining : bool;  (* reader finished; close once flushed + idle *)
  mutable pending : int;  (* queued + running jobs on this connection *)
  jobs : (int, bool ref) Hashtbl.t;
      (* stream id -> cancelled flag, live jobs only: entries are added
         when a submit is accepted and removed when the stream's final
         frame is enqueued, so a finished stream id can be reused and a
         stale [cancel] is a no-op instead of a poison pill *)
}

type entry = { conn : conn; stream : int; job : Job.t; cancelled : bool ref }

type t = {
  listen_fd : Unix.file_descr;
  addr : Addr.t;
  queue : entry Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable shutdown : bool;
  mutable inflight : int;
  mutable conns : conn list;
  mutable threads : Thread.t list;  (* one reader + one writer per conn *)
  mutable stopped : bool;
  max_queue : int;
  obs : Obs.t;
  frames_in : Anonet_obs.Metrics.counter option;
  frames_out : Anonet_obs.Metrics.counter option;
  frames_rejected : Anonet_obs.Metrics.counter option;
  connections : Anonet_obs.Metrics.counter option;
  jobs_gauge : Anonet_obs.Metrics.gauge option;
  mutable accept_thread : Thread.t option;
  mutable worker_thread : Thread.t option;
}

(* ---------- connection plumbing ---------- *)

(* With [conn.lock] held. *)
let close_fd_once conn =
  if not conn.closed then begin
    conn.closed <- true;
    (* shutdown first: a reader thread blocked in [read(2)] on this fd is
       not woken by a bare [close(2)] from another thread *)
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* With [conn.lock] held: the peer is gone or not reading. *)
let kill_conn conn =
  close_fd_once conn;
  Queue.clear conn.outbox;
  Condition.broadcast conn.wake

(* [send] never touches the socket: it enqueues for the connection's
   writer thread, so callers (readers holding no lock, workers mid-job)
   can never block on a peer that has stopped reading. *)
let send _t conn frame =
  Mutex.protect conn.lock (fun () ->
      if not conn.closed then begin
        if Queue.length conn.outbox >= max_outbox then kill_conn conn
        else begin
          Queue.add frame conn.outbox;
          Condition.signal conn.wake
        end
      end)

(* With [conn.lock] held: nothing left to deliver, ever. *)
let conn_finished conn =
  conn.closed
  || (conn.draining && conn.pending = 0 && Queue.is_empty conn.outbox)

(* One writer thread per connection drains the outbox.  The socket has
   SO_SNDTIMEO set, so a write to a peer that stopped reading fails with
   EAGAIN after the timeout instead of blocking a thread forever — the
   connection is then dropped. *)
let writer t conn =
  let rec go () =
    Mutex.lock conn.lock;
    while Queue.is_empty conn.outbox && not (conn_finished conn) do
      Condition.wait conn.wake conn.lock
    done;
    if conn.closed || Queue.is_empty conn.outbox then begin
      (* closed, or drained with the last frame flushed *)
      close_fd_once conn;
      Mutex.unlock conn.lock
    end
    else begin
      let frame = Queue.pop conn.outbox in
      Mutex.unlock conn.lock;
      match Frame.write conn.fd frame with
      | () ->
        Obs.incr t.frames_out;
        go ()
      | exception Unix.Unix_error _ ->
        Mutex.protect conn.lock (fun () -> kill_conn conn)
    end
  in
  go ()

let error_frame code message stream =
  Frame.of_outcome ~stream { Runner.code; out = ""; err = message }

(* ---------- job execution (worker side) ---------- *)

(* Retires the stream id BEFORE its final frame is enqueued: a client
   that has read the stream's result can reuse the id (or send a stale
   cancel) without racing the server's own bookkeeping.  The worker
   keeps cancellation working through [entry.cancelled], which it holds
   directly. *)
let stream_done conn stream =
  Mutex.protect conn.lock (fun () -> Hashtbl.remove conn.jobs stream)

let job_done t conn =
  Mutex.protect conn.lock (fun () ->
      conn.pending <- conn.pending - 1;
      Condition.signal conn.wake);
  Mutex.protect t.qlock (fun () ->
      t.inflight <- t.inflight - 1;
      Obs.set t.jobs_gauge t.inflight)

let execute t { conn; stream; job; cancelled } =
  let is_cancelled () = Mutex.protect conn.lock (fun () -> !cancelled) in
  (if is_cancelled () then begin
     stream_done conn stream;
     send t conn (error_frame rejected_code "cancelled" stream)
   end
   else begin
     let emit line =
       if not (is_cancelled ()) then
         send t conn { Frame.typ = Frame.Event; stream; payload = line }
     in
     let obs = Obs.make ~events:(Events.ndjson_lines emit) () in
     let outcome =
       try Runner.execute ~obs job with
       | Runner.Bad_spec m -> { Runner.code = rejected_code; out = ""; err = m }
       | exn ->
         {
           Runner.code = rejected_code;
           out = "";
           err = "job failed: " ^ Printexc.to_string exn;
         }
     in
     stream_done conn stream;
     if is_cancelled () then
       send t conn (error_frame rejected_code "cancelled" stream)
     else send t conn (Frame.of_outcome ~stream outcome)
   end);
  job_done t conn

(* One worker per domain, and the only code in the server that runs jobs:
   a job interns views through its domain's arena slot, so no other thread
   on the domain (reader, writer, accept) may intern. *)
let rec worker t =
  Mutex.lock t.qlock;
  while Queue.is_empty t.queue && not t.shutdown do
    Condition.wait t.qcond t.qlock
  done;
  let item = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.qlock;
  match item with
  | None -> ()
  | Some entry ->
    execute t entry;
    worker t

(* ---------- frame handling (reader side) ---------- *)

let reject t conn stream code message =
  Obs.incr t.frames_rejected;
  send t conn (error_frame code message stream)

let handle_submit t conn stream payload =
  match Job.decode payload with
  | Error m -> reject t conn stream protocol_code ("malformed submit payload: " ^ m)
  | Ok job ->
    let cancelled = ref false in
    (* claim the stream and a pending slot before taking [t.qlock] —
       see the lock-order rule on [conn.lock] *)
    let fresh =
      Mutex.protect conn.lock (fun () ->
          (not (Hashtbl.mem conn.jobs stream))
          && begin
               Hashtbl.replace conn.jobs stream cancelled;
               conn.pending <- conn.pending + 1;
               true
             end)
    in
    if not fresh then
      reject t conn stream protocol_code
        (Printf.sprintf "stream %d already has a job in flight" stream)
    else begin
      let verdict =
        Mutex.protect t.qlock (fun () ->
            if t.shutdown then `Reject "server shutting down"
            else if Queue.length t.queue >= t.max_queue then
              `Reject "server busy (job queue full)"
            else begin
              Queue.add { conn; stream; job; cancelled } t.queue;
              t.inflight <- t.inflight + 1;
              Obs.set t.jobs_gauge t.inflight;
              Condition.signal t.qcond;
              `Accepted
            end)
      in
      match verdict with
      | `Accepted -> ()
      | `Reject why ->
        Mutex.protect conn.lock (fun () ->
            Hashtbl.remove conn.jobs stream;
            conn.pending <- conn.pending - 1;
            Condition.signal conn.wake);
        reject t conn stream rejected_code why
    end

let handle t conn (frame : Frame.t) =
  match frame.Frame.typ with
  | Frame.Submit -> handle_submit t conn frame.Frame.stream frame.Frame.payload
  | Frame.Cancel ->
    Mutex.protect conn.lock (fun () ->
        match Hashtbl.find_opt conn.jobs frame.Frame.stream with
        | Some flag -> flag := true
        | None -> ())  (* finished or never submitted: nothing to cancel *)
  | Frame.Event | Frame.Result | Frame.Error ->
    reject t conn frame.Frame.stream protocol_code
      "unexpected server-to-client frame type from client"

let finish_reader conn =
  Mutex.protect conn.lock (fun () ->
      conn.draining <- true;
      Condition.signal conn.wake)

let rec reader t conn =
  match Frame.read conn.fd with
  | exception Unix.Unix_error _ -> finish_reader conn
  | Ok None -> finish_reader conn
  | Error e ->
    Obs.incr t.frames_rejected;
    send t conn
      (error_frame protocol_code
         (Format.asprintf "%a" Frame.pp_protocol_error e)
         0);
    finish_reader conn
  | Ok (Some frame) ->
    Obs.incr t.frames_in;
    handle t conn frame;
    reader t conn

(* ---------- lifecycle ---------- *)

let unlink_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ()

(* A socket write that makes no progress for this long drops the
   connection instead of wedging its writer thread. *)
let send_timeout = 30.

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | fd, _peer ->
      Obs.incr t.connections;
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout
       with Unix.Unix_error _ -> ());
      let conn =
        {
          fd;
          lock = Mutex.create ();
          wake = Condition.create ();
          outbox = Queue.create ();
          closed = false;
          draining = false;
          pending = 0;
          jobs = Hashtbl.create 7;
        }
      in
      let rd = Thread.create (fun () -> reader t conn) () in
      let wr = Thread.create (fun () -> writer t conn) () in
      Mutex.protect t.qlock (fun () ->
          t.conns <- conn :: t.conns;
          t.threads <- rd :: wr :: t.threads);
      go ()
  in
  go ()

let start ?(obs = Obs.null) ?domains ?(max_queue = 64) addr =
  let domains =
    match domains with
    | Some d when d < 1 -> invalid_arg "Server.start: domains < 1"
    | Some d -> d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  match Addr.resolve addr with
  | Error m -> Error m
  | Ok (domain, sockaddr) ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (match addr with
    | Addr.Unix_sock path -> unlink_stale_socket path
    | Addr.Tcp _ -> ());
    let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match
      (match addr with
      | Addr.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
      | Addr.Unix_sock _ -> ());
      Unix.bind listen_fd sockaddr;
      Unix.listen listen_fd 16
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr)
           (Unix.error_message e))
    | () ->
      let t =
        {
          listen_fd;
          addr;
          queue = Queue.create ();
          qlock = Mutex.create ();
          qcond = Condition.create ();
          shutdown = false;
          inflight = 0;
          conns = [];
          threads = [];
          stopped = false;
          max_queue;
          obs;
          frames_in = Obs.counter obs "server.frames.in";
          frames_out = Obs.counter obs "server.frames.out";
          frames_rejected = Obs.counter obs "server.frames.rejected";
          connections = Obs.counter obs "server.connections";
          jobs_gauge = Obs.gauge obs "server.jobs.in_flight";
          accept_thread = None;
          worker_thread = None;
        }
      in
      t.accept_thread <-
        Some (Thread.create (fun () -> accept_loop t) ());
      t.worker_thread <-
        Some
          (Thread.create
             (fun () -> ignore (Pool.map ~domains worker (Array.make domains t)))
             ());
      Ok t

let stop t =
  let first =
    Mutex.protect t.qlock (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          t.shutdown <- true;
          Condition.broadcast t.qcond;
          true
        end)
  in
  if first then begin
    (* wake the accept thread: on Linux a blocked [accept(2)] survives a
       plain [close(2)] from another thread, but [shutdown(2)] on the
       listening socket makes it return EINVAL *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (* workers drain the queue, then exit; running jobs finish and their
       final frames land in the per-connection outboxes *)
    Option.iter Thread.join t.worker_thread;
    let conns, threads =
      Mutex.protect t.qlock (fun () -> (t.conns, t.threads))
    in
    (* mark every connection draining: its writer flushes what is left
       (bounded by SO_SNDTIMEO per write) and then closes the fd, which
       wakes the reader out of [read(2)] *)
    List.iter
      (fun c ->
        Mutex.protect c.lock (fun () ->
            c.draining <- true;
            Condition.broadcast c.wake))
      conns;
    List.iter Thread.join threads;
    match t.addr with
    | Addr.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  end
