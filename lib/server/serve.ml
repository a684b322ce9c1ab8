module Metrics = Bagcq_obs.Metrics
module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Frame = Bagcq_wire.Frame

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let oversized_response ?id ~cap ~got () =
  Json.to_string
    (Proto.error_body ?id ~kind:Proto.Bad_request
       (Printf.sprintf "line exceeds %d bytes (got %d)" cap got))

let stdio ?max_line_bytes router ic oc =
  let oversized = Metrics.counter (Router.metrics router) "server_lines_oversized" in
  let cap = Option.value max_line_bytes ~default:max_int in
  let rec loop () =
    match Frame.input ?max_bytes:max_line_bytes ic with
    | Frame.Eof -> ()
    | Frame.Oversized got ->
        (* An oversized line is a protocol violation, not a request: a
           structured refusal, then the stream ends — the stdio analogue
           of the TCP loop closing the connection. *)
        Metrics.incr oversized;
        write_line oc (oversized_response ~cap ~got ())
    | Frame.Line line ->
        write_line oc (Router.handle_line router line);
        loop ()
  in
  loop ()

(* Writing to a peer that already hung up raises SIGPIPE, which by
   default kills the whole process — exactly the failure the
   disconnect-resilience contract forbids.  Ignoring it turns the write
   into an EPIPE [Unix_error] the event loop absorbs.  Lazy so
   library users that never serve TCP keep their signal disposition. *)
let ignore_sigpipe =
  lazy
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ -> ())

(* ---------------- the event-loop front end ---------------- *)

(* One accepted connection.  All fields are touched only by the event
   loop's domain; worker domains reach a connection exclusively through
   the completions queue below. *)
type conn = {
  fd : Unix.file_descr;
  cid : int;
  rbuf : Buffer.t;  (* bytes of the current, not-yet-terminated line *)
  mutable roversized : int;
      (* -1 normally; >= 0 while discarding an over-cap line, counting
         the dropped bytes until its newline *)
  mutable next_seq : int;  (* sequence number for the next parsed line *)
  mutable next_write : int;  (* sequence whose response goes out next *)
  ready : (int, string) Hashtbl.t;
      (* finished responses waiting for their turn in [next_write] order *)
  mutable out : Bytes.t;  (* bytes queued for the socket *)
  mutable out_off : int;
  mutable inflight : int;  (* submitted to admission, not yet answered *)
  mutable closing : bool;  (* stop reading; close once drained *)
  mutable last_line : float;  (* connect time or last completed line *)
}

type loop_state = {
  router : Router.t;
  admission : Admission.t;
  conns : (int, conn) Hashtbl.t;
  (* Worker→loop handoff: workers push [(cid, seq, response)] under the
     mutex and poke the wake pipe; the loop drains it each iteration.
     This is the only cross-domain state in the front end. *)
  completions : (int * int * string) Queue.t;
  completions_mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  max_line_bytes : int option;
  idle_timeout_ms : int option;
  timeout_s : float option;  (* per-request deadline span, from router caps *)
  oversized : Metrics.counter;
  failed : Metrics.counter;
}

let set_nonblock fd = try Unix.set_nonblock fd with Unix.Unix_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [finish] runs on a worker domain: park the response and wake the
   select loop.  A full wake pipe already guarantees a pending wake, so
   EAGAIN (and a closed pipe during teardown) are ignorable. *)
let push_completion st cid seq response =
  Mutex.lock st.completions_mutex;
  Queue.add (cid, seq, response) st.completions;
  Mutex.unlock st.completions_mutex;
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let drain_wake_pipe st =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read st.wake_r scratch 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let destroy_conn st c =
  Hashtbl.remove st.conns c.cid;
  close_quietly c.fd

(* Append every response that is next in sequence order to the
   connection's outgoing buffer.  Responses finish out of order (the
   worker pool races); this is the single point that restores request
   order on the wire. *)
let flush_ready c =
  let pending = Buffer.create 0 in
  let rec go () =
    match Hashtbl.find_opt c.ready c.next_write with
    | None -> ()
    | Some line ->
        Hashtbl.remove c.ready c.next_write;
        c.next_write <- c.next_write + 1;
        Buffer.add_string pending line;
        Buffer.add_char pending '\n';
        go ()
  in
  go ();
  if Buffer.length pending > 0 then begin
    let fresh = Buffer.to_bytes pending in
    let live = Bytes.length c.out - c.out_off in
    if live = 0 then begin
      c.out <- fresh;
      c.out_off <- 0
    end
    else begin
      let merged = Bytes.create (live + Bytes.length fresh) in
      Bytes.blit c.out c.out_off merged 0 live;
      Bytes.blit fresh 0 merged live (Bytes.length fresh);
      c.out <- merged;
      c.out_off <- 0
    end
  end

let out_empty c = Bytes.length c.out - c.out_off = 0

(* A response produced by the event loop itself (shed, oversized) skips
   the worker pool but still takes a sequence slot, so interleaving with
   worker responses stays in request order. *)
let local_response c seq line =
  Hashtbl.replace c.ready seq line;
  flush_ready c

let request_id line =
  match Json.parse line with Ok j -> Json.member "id" j | Error _ -> None

let shed_response ?id () =
  Json.to_string
    (Proto.error_body ?id ~kind:Proto.Overloaded
       "server overloaded: request shed by admission control")

(* Feed one complete line from connection [c] into admission; on shed,
   answer right here.  The deadline spans queue wait plus execution. *)
let submit_line st c line =
  c.last_line <- Unix.gettimeofday ();
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  let deadline = Option.map (fun s -> c.last_line +. s) st.timeout_s in
  let cid = c.cid in
  let finish response = push_completion st cid seq response in
  match Admission.submit st.admission ?deadline ~line ~finish () with
  | Admission.Accepted -> c.inflight <- c.inflight + 1
  | Admission.Shed -> local_response c seq (shed_response ?id:(request_id line) ())

(* Consume [buf.[0 .. len)] freshly read from [c]: split into lines,
   enforcing the line cap against what is buffered so far.  Over-cap
   lines switch the connection into discard mode until their newline,
   then answer with a structured refusal and close — rereading an
   attacker's flood must never grow [rbuf] past the cap. *)
let ingest st c buf len =
  let cap = Option.value st.max_line_bytes ~default:max_int in
  let i = ref 0 in
  while !i < len && not c.closing do
    let ch = Bytes.get buf !i in
    incr i;
    if c.roversized >= 0 then begin
      if ch = '\n' then begin
        let got = Buffer.length c.rbuf + c.roversized in
        Buffer.clear c.rbuf;
        c.roversized <- -1;
        Metrics.incr st.oversized;
        let seq = c.next_seq in
        c.next_seq <- seq + 1;
        local_response c seq (oversized_response ~cap ~got ());
        c.closing <- true
      end
      else c.roversized <- c.roversized + 1
    end
    else if ch = '\n' then begin
      let line = Buffer.contents c.rbuf in
      Buffer.clear c.rbuf;
      submit_line st c line
    end
    else if Buffer.length c.rbuf >= cap then c.roversized <- 1
    else Buffer.add_char c.rbuf ch
  done

let handle_readable st c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | 0 ->
      (* Orderly EOF: no more requests will arrive.  Answer what is in
         flight, flush, then close. *)
      c.closing <- true
  | n -> ingest st c buf n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) ->
      Metrics.incr st.failed;
      destroy_conn st c

let handle_writable st c =
  let live = Bytes.length c.out - c.out_off in
  if live > 0 then
    match Unix.write c.fd c.out c.out_off live with
    | n ->
        c.out_off <- c.out_off + n;
        if out_empty c then begin
          c.out <- Bytes.create 0;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) ->
        (* Peer is gone (EPIPE/ECONNRESET): drop the connection and any
           responses still owed to it — there is nobody to read them. *)
        Metrics.incr st.failed;
        destroy_conn st c

let default_drain_ms = 1_000

let tcp ?max_connections ?on_listen ?(workers = 1) ?queue_depth ?max_inflight
    ?max_line_bytes ?idle_timeout_ms ?(drain_ms = default_drain_ms) ?stop router
    ~port () =
  Lazy.force ignore_sigpipe;
  if workers < 1 then invalid_arg "Serve.tcp: workers must be >= 1";
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let m = Router.metrics router in
  let connections = Metrics.counter m "server_connections" in
  let admission = Admission.create ?queue_depth ?max_inflight ~workers router in
  let wake_r, wake_w = Unix.pipe () in
  set_nonblock wake_r;
  set_nonblock wake_w;
  let timeout_s =
    Option.map
      (fun ms -> float_of_int ms /. 1000.)
      (Router.caps router).Router.max_timeout_ms
  in
  let st =
    {
      router;
      admission;
      conns = Hashtbl.create 16;
      completions = Queue.create ();
      completions_mutex = Mutex.create ();
      wake_r;
      wake_w;
      max_line_bytes;
      idle_timeout_ms;
      timeout_s;
      oversized = Metrics.counter m "server_lines_oversized";
      failed = Metrics.counter m "server_connections_failed";
    }
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let accepted = ref 0 in
  let accepting = ref true in
  let listen_closed = ref false in
  let close_listener () =
    if not !listen_closed then begin
      listen_closed := true;
      close_quietly sock
    end
  in
  let next_cid = ref 0 in
  let drain_deadline = ref infinity in
  Fun.protect
    ~finally:(fun () ->
      close_listener ();
      Hashtbl.iter (fun _ c -> close_quietly c.fd) st.conns;
      Hashtbl.reset st.conns;
      Admission.shutdown ~drain_ms:0 admission;
      close_quietly wake_r;
      close_quietly wake_w)
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen sock 64;
      set_nonblock sock;
      let actual_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      (match on_listen with Some f -> f actual_port | None -> ());
      let accept_burst () =
        let continue = ref true in
        while !continue && !accepting do
          match Unix.accept sock with
          | conn_fd, _peer ->
              set_nonblock conn_fd;
              incr accepted;
              Metrics.incr connections;
              let cid = !next_cid in
              incr next_cid;
              Hashtbl.replace st.conns cid
                {
                  fd = conn_fd;
                  cid;
                  rbuf = Buffer.create 256;
                  roversized = -1;
                  next_seq = 0;
                  next_write = 0;
                  ready = Hashtbl.create 4;
                  out = Bytes.create 0;
                  out_off = 0;
                  inflight = 0;
                  closing = false;
                  last_line = Unix.gettimeofday ();
                };
              (match max_connections with
              | Some max when !accepted >= max ->
                  accepting := false;
                  close_listener ()
              | _ -> ())
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              continue := false
          | exception Unix.Unix_error (_, _, _) -> continue := false
        done
      in
      let apply_completions () =
        let batch = Queue.create () in
        Mutex.lock st.completions_mutex;
        Queue.transfer st.completions batch;
        Mutex.unlock st.completions_mutex;
        Queue.iter
          (fun (cid, seq, response) ->
            match Hashtbl.find_opt st.conns cid with
            | None -> () (* connection died before its answer was ready *)
            | Some c ->
                c.inflight <- c.inflight - 1;
                local_response c seq response)
          batch
      in
      let begin_drain () =
        if !drain_deadline = infinity then begin
          accepting := false;
          close_listener ();
          drain_deadline :=
            Unix.gettimeofday () +. (float_of_int drain_ms /. 1000.);
          (* Stop reading new requests everywhere; what was already
             submitted still gets answered and flushed. *)
          Hashtbl.iter (fun _ c -> c.closing <- true) st.conns
        end
      in
      let finished = ref false in
      while not !finished do
        if Atomic.get stop then begin_drain ();
        apply_completions ();
        (* Reap connections that are done: closing, nothing owed,
           nothing buffered. *)
        let dead =
          Hashtbl.fold
            (fun _ c acc ->
              if c.closing && c.inflight = 0 && out_empty c
                 && Hashtbl.length c.ready = 0
              then c :: acc
              else acc)
            st.conns []
        in
        List.iter (destroy_conn st) dead;
        (* Idle reaping: a connection that has not completed a line for
           the whole timeout, with nothing running or owed, is taking a
           slot for nothing — slow-loris writers land here, because
           partial lines do not refresh [last_line]. *)
        (match st.idle_timeout_ms with
        | Some ms when ms > 0 ->
            let now = Unix.gettimeofday () in
            let cutoff = float_of_int ms /. 1000. in
            let idle =
              Hashtbl.fold
                (fun _ c acc ->
                  if
                    (not c.closing)
                    && c.inflight = 0
                    && out_empty c
                    && now -. c.last_line > cutoff
                  then c :: acc
                  else acc)
                st.conns []
            in
            List.iter (destroy_conn st) idle
        | _ -> ());
        let now = Unix.gettimeofday () in
        if now >= !drain_deadline then begin
          (* Drain deadline blown: abandon what is left. *)
          Hashtbl.iter (fun _ c -> close_quietly c.fd) st.conns;
          Hashtbl.reset st.conns;
          finished := true
        end
        else if
          (not !accepting)
          && Hashtbl.length st.conns = 0
          && Admission.inflight admission = 0
        then finished := true
        else begin
          let reads = ref [ st.wake_r ] in
          if !accepting then reads := sock :: !reads;
          let writes = ref [] in
          Hashtbl.iter
            (fun _ c ->
              if not c.closing then reads := c.fd :: !reads;
              if not (out_empty c) then writes := c.fd :: !writes)
            st.conns;
          let tick =
            (* The select timeout doubles as the stop-flag poll period: a
               signal handler may run on a worker domain without
               interrupting this select, so the flag must be re-checked
               on a short tick even on a totally idle server. *)
            let idle_tick =
              match st.idle_timeout_ms with
              | Some ms when ms > 0 ->
                  Float.min 0.25 (float_of_int ms /. 1000. /. 2.)
              | _ -> 0.25
            in
            if !drain_deadline = infinity then idle_tick
            else Float.min idle_tick (Float.max 0.01 (!drain_deadline -. now))
          in
          match Unix.select !reads !writes [] tick with
          | readable, _writable, _ ->
              if List.memq st.wake_r readable then drain_wake_pipe st;
              if !accepting && List.memq sock readable then accept_burst ();
              (* Handlers may destroy connections, so dispatch over a
                 snapshot and re-check liveness before each touch —
                 never mutate [st.conns] mid-iteration. *)
              let snapshot =
                Hashtbl.fold (fun _ c acc -> c :: acc) st.conns []
              in
              List.iter
                (fun c ->
                  if
                    Hashtbl.mem st.conns c.cid
                    && (not c.closing)
                    && List.memq c.fd readable
                  then handle_readable st c)
                snapshot;
              apply_completions ();
              (* Try output eagerly rather than only on select-writable:
                 most sockets are writable most of the time, and waiting
                 one select round per response would double latency.  A
                 full socket buffer just returns EAGAIN and the write
                 set wakes us when it clears. *)
              List.iter
                (fun c ->
                  if Hashtbl.mem st.conns c.cid then begin
                    flush_ready c;
                    if not (out_empty c) then handle_writable st c
                  end)
                snapshot
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* A signal landed (SIGINT/SIGTERM); the handler set
                 [stop], which the top of the loop observes. *)
              ()
        end
      done;
      (* Graceful teardown outside the loop: the Fun.protect finally
         closes fds and joins workers (drain already happened, so the
         admission queue is empty unless we were aborted). *)
      ())
