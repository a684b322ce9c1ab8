module Json = Bagcq_wire.Json
module Metrics = Bagcq_obs.Metrics
module Clock = Bagcq_obs.Clock

let queries =
  [| "E(x,y)"; "E(x,y) & E(y,z)"; "E(x,y) & E(y,x)"; "E(x,y) & E(y,z) & E(z,x)" |]

let dbs =
  [| "E(1,2). E(2,3). E(3,1)."; "E(1,1)."; "E(1,2). E(2,1). E(1,3). E(3,2)." |]

(* Small fixed budgets so a scripted run is fast and deterministic; the
   corpus is tiny, so these never exhaust. *)
let fuel = 200_000

let obj fields = Json.to_string (Json.Obj fields)

let eval_line ~id ~combo =
  obj
    [
      ("op", Json.Str "eval");
      ("id", Json.Int id);
      ("query", Json.Str queries.(combo mod Array.length queries));
      ("db", Json.Str dbs.(combo mod Array.length dbs));
      ("fuel", Json.Int fuel);
    ]

let contain_pairs = [| (0, 1); (1, 0); (3, 2) |]

let contain_line ~id ~combo =
  let s, b = contain_pairs.(combo mod Array.length contain_pairs) in
  obj
    [
      ("op", Json.Str "contain");
      ("id", Json.Int id);
      ("small", Json.Str queries.(s));
      ("big", Json.Str queries.(b));
      ("fuel", Json.Int fuel);
    ]

let hunt_pairs = [| (1, 0); (3, 1) |]

let hunt_line ~id ~combo =
  let s, b = hunt_pairs.(combo mod Array.length hunt_pairs) in
  obj
    [
      ("op", Json.Str "hunt");
      ("id", Json.Int id);
      ("small", Json.Str queries.(s));
      ("big", Json.Str queries.(b));
      ("samples", Json.Int 20);
      ("exhaustive_size", Json.Int 1);
      ("seed", Json.Int 0x5eed);
      ("fuel", Json.Int fuel);
    ]

let script ?(malformed_every = 0) ~n () =
  List.init n (fun i ->
      if malformed_every > 0 && (i + 1) mod malformed_every = 0 then
        Printf.sprintf "{\"op\":\"eval\",\"id\":%d" i (* unterminated object *)
      else
        (* Dividing the index by the kind period means each kind walks its
           combo space slowly: a run of a few dozen requests repeats
           combos, which is what feeds the server's result cache. *)
        let combo = i / 4 in
        match i mod 4 with
        | 0 | 2 -> eval_line ~id:i ~combo
        | 1 -> contain_line ~id:i ~combo
        | _ -> hunt_line ~id:i ~combo)

type summary = {
  requests : int;
  ok : int;
  errors : int;
  exhausted : int;
  shed : int;
  cached : int;
  unparsed : int;
  wall_s : float;
  latency : Metrics.summary;
}

type tally = {
  mutable t_ok : int;
  mutable t_errors : int;
  mutable t_exhausted : int;
  mutable t_shed : int;
  mutable t_cached : int;
  mutable t_unparsed : int;
}

let fresh_tally () =
  { t_ok = 0; t_errors = 0; t_exhausted = 0; t_shed = 0; t_cached = 0;
    t_unparsed = 0 }

let classify tally reply =
  match Json.parse reply with
  | Error _ -> tally.t_unparsed <- tally.t_unparsed + 1
  | Ok j ->
      (match Bagcq_wire.Proto.status j with
      | Some "ok" -> tally.t_ok <- tally.t_ok + 1
      | Some "exhausted" -> tally.t_exhausted <- tally.t_exhausted + 1
      | Some "overloaded" -> tally.t_shed <- tally.t_shed + 1
      | _ -> tally.t_errors <- tally.t_errors + 1);
      if Json.member "cached" j = Some (Json.Bool true) then
        tally.t_cached <- tally.t_cached + 1

let finish tally ~requests ~wall_s ~lat =
  {
    requests;
    ok = tally.t_ok;
    errors = tally.t_errors;
    exhausted = tally.t_exhausted;
    shed = tally.t_shed;
    cached = tally.t_cached;
    unparsed = tally.t_unparsed;
    wall_s;
    latency = Metrics.summary lat;
  }

let drive oc ic lines =
  let tally = fresh_tally () in
  let requests = ref 0 in
  let lat = Metrics.fresh_histogram () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun line ->
      incr requests;
      let sent = Clock.now_ms () in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      let reply = In_channel.input_line ic in
      Metrics.observe_ms lat (Clock.elapsed_ms sent);
      match reply with
      | None -> tally.t_unparsed <- tally.t_unparsed + 1
      | Some reply -> classify tally reply)
    lines;
  finish tally ~requests:!requests ~wall_s:(Unix.gettimeofday () -. t0) ~lat

(* The open-loop driver sends as fast as the pipe accepts, from its own
   domain, while this domain reads responses — the arrival rate is set
   by the generator, not by the server's completion rate, which is the
   load shape that actually exercises admission control (a lockstep
   driver can never overload anything: it waits for every answer).
   Responses are matched to send times by the request [id], so latency
   includes queue wait.  Stops when every sent line was answered or the
   server stops talking. *)
let drive_open oc ic lines =
  let sent_at = Hashtbl.create 256 in
  let sent_mutex = Mutex.create () in
  let sent = ref 0 in
  let t0 = Unix.gettimeofday () in
  let writer =
    Domain.spawn (fun () ->
        try
          List.iter
            (fun line ->
              Mutex.lock sent_mutex;
              (match Json.parse line with
              | Ok j -> (
                  match Json.member "id" j with
                  | Some (Json.Int id) ->
                      Hashtbl.replace sent_at id (Clock.now_ms ())
                  | _ -> ())
              | Error _ -> ());
              incr sent;
              Mutex.unlock sent_mutex;
              output_string oc line;
              output_char oc '\n';
              flush oc)
            lines;
          true
        with Sys_error _ | Unix.Unix_error _ -> false)
  in
  let total = List.length lines in
  let tally = fresh_tally () in
  let lat = Metrics.fresh_histogram () in
  let received = ref 0 in
  (try
     while !received < total do
       match In_channel.input_line ic with
       | None -> raise Exit
       | Some reply ->
           incr received;
           classify tally reply;
           let now = Clock.now_ms () in
           (match Json.parse reply with
           | Ok j -> (
               match Json.member "id" j with
               | Some (Json.Int id) -> (
                   Mutex.lock sent_mutex;
                   let t = Hashtbl.find_opt sent_at id in
                   Hashtbl.remove sent_at id;
                   Mutex.unlock sent_mutex;
                   match t with
                   | Some t -> Metrics.observe_ms lat (now -. t)
                   | None -> ())
               | _ -> ())
           | Error _ -> ())
     done
   with Exit -> ());
  ignore (Domain.join writer);
  let wall_s = Unix.gettimeofday () -. t0 in
  tally.t_unparsed <- tally.t_unparsed + (!sent - !received);
  finish tally ~requests:!sent ~wall_s ~lat

let summary_to_string s =
  let rate = if s.wall_s > 0. then float_of_int s.requests /. s.wall_s else 0. in
  Printf.sprintf
    "%d requests in %.3fs (%.1f req/s): %d ok, %d errors, %d exhausted, %d \
     shed, %d cached; latency p50 %.3fms p95 %.3fms p99 %.3fms%s"
    s.requests s.wall_s rate s.ok s.errors s.exhausted s.shed s.cached
    s.latency.Metrics.p50_ms s.latency.Metrics.p95_ms s.latency.Metrics.p99_ms
    (if s.unparsed > 0 then Printf.sprintf ", %d unparsed" s.unparsed else "")

(* ---------------- connecting, with retries ---------------- *)

(* Deterministic "jitter": a hash of the attempt number spreads retry
   instants without consulting a clock or a global RNG — same arguments,
   same schedule, which keeps scripted runs reproducible. *)
let backoff_sleep_ms ~backoff_ms ~attempt =
  let base = backoff_ms * (1 lsl min attempt 6) in
  let jitter = (attempt * 7919) mod max 1 (base / 2) in
  base + jitter

let connect_plain ?(retries = 0) ?(backoff_ms = 50) ~port () =
  let rec go attempt =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if attempt >= retries then Error (Unix.error_message e)
        else begin
          Unix.sleepf
            (float_of_int (backoff_sleep_ms ~backoff_ms ~attempt) /. 1000.);
          go (attempt + 1)
        end
  in
  go 0

let write_all sock s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write sock b !off (n - !off)
     done
   with Unix.Unix_error _ -> ())

(* ---------------- capability handshake ---------------- *)

type capabilities = { api_version : int; ops : string list }

let read_response_line sock =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read sock b 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
        if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
    | exception Unix.Unix_error _ ->
        if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
  in
  go ()

let handshake sock =
  write_all sock "{\"op\":\"ping\"}\n";
  match read_response_line sock with
  | None -> Error "handshake: server closed without answering the ping"
  | Some line -> (
      match Json.parse line with
      | Error e -> Error (Printf.sprintf "handshake: invalid ping response: %s" e)
      | Ok j -> (
          match (Json.member "api_version" j, Json.member "ops" j) with
          | Some (Json.Int api_version), Some (Json.List ops) ->
              let ops =
                List.filter_map
                  (function Json.Str s -> Some s | _ -> None)
                  ops
              in
              Ok { api_version; ops }
          | _ ->
              Error
                "handshake: ping response carries no api_version/ops \
                 capability surface"))

let connect ?retries ?backoff_ms ?require_ops ~port () =
  match connect_plain ?retries ?backoff_ms ~port () with
  | Error _ as e -> e
  | Ok sock -> (
      match require_ops with
      | None -> Ok sock
      | Some required -> (
          let close () = try Unix.close sock with Unix.Unix_error _ -> () in
          match handshake sock with
          | Error e ->
              close ();
              Error e
          | Ok caps -> (
              match
                List.filter (fun op -> not (List.mem op caps.ops)) required
              with
              | [] -> Ok sock
              | missing ->
                  close ();
                  Error
                    (Printf.sprintf
                       "server (api_version %d) does not support: %s"
                       caps.api_version
                       (String.concat ", " missing)))))

(* ---------------- fault injectors ---------------- *)

let with_socket ~port f =
  match connect ~port () with
  | Error e -> Error e
  | Ok sock ->
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () -> Ok (f sock))

let mid_frame_disconnect ~port ?(complete = []) ?(partial = "{\"op\":\"eval\",")
    () =
  with_socket ~port (fun sock ->
      List.iter (fun line -> write_all sock (line ^ "\n")) complete;
      write_all sock partial
      (* close without reading anything back — the peer vanishes with a
         frame on the wire and responses unclaimed *))

let oversized_line ~port ~bytes () =
  with_socket ~port (fun sock ->
      write_all sock (String.make bytes 'x');
      write_all sock "\n";
      (* read the structured refusal, if the server sends one before
         closing *)
      let buf = Buffer.create 256 in
      let b = Bytes.create 1 in
      let rec read_line () =
        match Unix.read sock b 0 1 with
        | 0 -> ()
        | _ -> if Bytes.get b 0 = '\n' then () else begin
            Buffer.add_char buf (Bytes.get b 0);
            read_line ()
          end
        | exception Unix.Unix_error _ -> ()
      in
      read_line ();
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf))
