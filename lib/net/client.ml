module Run_error = Anonet_runtime.Run_error

let net_outcome failure =
  let code = Run_error.exit_code (Run_error.Net failure) in
  let message =
    match failure with
    | Run_error.Protocol { message }
    | Run_error.Rejected { message }
    | Run_error.Connection { message } -> message
  in
  { Runner.code; out = ""; err = message }

let connection m = net_outcome (Run_error.Connection { message = m })
let protocol m = net_outcome (Run_error.Protocol { message = m })

(* One job per connection, so the stream id is a constant. *)
let stream = 1

let submit addr job ~on_event =
  match Addr.resolve addr with
  | Error m -> connection m
  | Ok (domain, sockaddr) ->
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd
  with
  | exception Unix.Unix_error (err, _, _) ->
    connection
      (Printf.sprintf "cannot connect to %s: %s" (Addr.to_string addr)
         (Unix.error_message err))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Frame.write fd
            { Frame.typ = Frame.Submit; stream; payload = Job.encode job }
        with
        | exception Unix.Unix_error (err, _, _) ->
          connection ("send failed: " ^ Unix.error_message err)
        | () ->
          let rec await () =
            match Frame.read fd with
            | exception Unix.Unix_error (err, _, _) ->
              connection ("receive failed: " ^ Unix.error_message err)
            | Ok None ->
              connection "server closed the connection before the result"
            | Error e -> protocol (Format.asprintf "%a" Frame.pp_protocol_error e)
            | Ok (Some f) when f.Frame.stream <> stream ->
              (* frames for streams we never opened: a server bug; skip *)
              await ()
            | Ok (Some { Frame.typ = Frame.Event; payload; _ }) ->
              on_event payload;
              await ()
            | Ok (Some ({ Frame.typ = Frame.Result | Frame.Error; _ } as f)) -> (
              match Frame.to_outcome f with
              | Ok outcome -> outcome
              | Error m -> protocol m)
            | Ok (Some { Frame.typ = Frame.Submit | Frame.Cancel; _ }) ->
              protocol "server sent a client-to-server frame type"
          in
          await ())
