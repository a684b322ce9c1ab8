(* lib/server: the router's budget clamping, the shared result cache and
   the TCP loop with its ordered concurrent workers.  The headline
   property mirrors the wire layer's: feeding the server loop arbitrary
   bytes always yields a structured single-line JSON response, never an
   exception. *)

module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Router = Bagcq_server.Router
module Serve = Bagcq_server.Serve
module Load = Bagcq_server.Load
module Cache = Bagcq_server.Cache
module Metrics = Bagcq_obs.Metrics

let handle router line =
  match Json.parse (Router.handle_line router line) with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not JSON (%s)" e

let status v = Proto.status v
let get = Json.member

let eval_line =
  {|{"op":"eval","id":1,"query":"E(x,y) & E(y,z)","db":"E(1,2). E(2,3). E(3,1).","fuel":100000}|}

let test_ping_and_echo () =
  let r = Router.create () in
  let v = handle r {|{"op":"ping","id":[1,"a"]}|} in
  Alcotest.(check (option string)) "status" (Some "ok") (status v);
  (match get "id" v with
  | Some (Json.List [ Json.Int 1; Json.Str "a" ]) -> ()
  | _ -> Alcotest.fail "id not echoed structurally")

let test_eval_and_cache () =
  let r = Router.create () in
  let v1 = handle r eval_line in
  Alcotest.(check (option string)) "count" (Some "3") (Json.get_string "count" v1);
  Alcotest.(check (option bool)) "first uncached" (Some false)
    (Json.get_bool "cached" v1);
  let v2 = handle r eval_line in
  Alcotest.(check (option bool)) "repeat cached" (Some true)
    (Json.get_bool "cached" v2);
  (* identical apart from the cached flag *)
  let strip v =
    match v with
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
    | v -> v
  in
  Alcotest.(check bool) "same answer" true (Json.equal (strip v1) (strip v2));
  let s = Cache.stats (Router.cache r) in
  Alcotest.(check int) "one hit" 1 s.Cache.result_hits;
  Alcotest.(check int) "one miss" 1 s.Cache.result_misses;
  (* different surface spelling, same semantics: still a hit *)
  let v3 =
    handle r
      {|{"id":99,"fuel":100000,"db":"E(1,2). E(2,3). E(3,1).","query":"E(x,y)&E(y,z)","op":"eval"}|}
  in
  Alcotest.(check (option bool)) "re-spelled request hits" (Some true)
    (Json.get_bool "cached" v3)

(* The wire layer decodes each request's database text into a fresh
   [Structure.t]; without interning, every eval would rebuild the columnar
   join index from scratch.  [hom_index_builds] counts physical builds, so
   the regression is visible as a per-request increment. *)
let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

let test_index_built_once_per_db () =
  let r = Router.create () in
  let before = global_counter "hom_index_builds" in
  let eval_req id q db =
    Printf.sprintf {|{"op":"eval","id":%d,"query":"%s","db":"%s"}|} id q db
  in
  let db = "E(1,2). E(2,3). E(3,1)." in
  (* three distinct queries (one acyclic, one cyclic, one single-atom), so
     the result memo cannot short-circuit evaluation — each runs a kernel
     against the same database text *)
  ignore (handle r (eval_req 1 "E(x,y) & E(y,z)" db));
  ignore (handle r (eval_req 2 "E(x,y) & E(y,z) & E(z,x)" db));
  ignore (handle r (eval_req 3 "E(x,y)" db));
  Alcotest.(check int) "one index build for one database" 1
    (global_counter "hom_index_builds" - before);
  (* a genuinely different database gets its own build *)
  ignore (handle r (eval_req 4 "E(x,y)" "E(1,2)."));
  Alcotest.(check int) "second database, second build" 2
    (global_counter "hom_index_builds" - before)

(* The UCQ surface through the router: an inline database and the same
   facts held in the named store must give the identical count (the named
   path snapshots, the inline path interns — one engine underneath), and
   a store mutation must be visible to the next ucq_eval (the result memo
   keys on the database version). *)
let test_ucq_ops () =
  let r = Router.create () in
  let u = "(E(x,y)) | (E(x,y) & E(y,z))" in
  let v =
    handle r
      (Printf.sprintf {|{"op":"ucq_eval","id":1,"query":"%s","db":"E(1,2). E(2,3)."}|} u)
  in
  Alcotest.(check (option string)) "inline status" (Some "ok") (status v);
  Alcotest.(check (option string)) "inline count" (Some "3")
    (Json.get_string "count" v);
  Alcotest.(check (option int)) "disjuncts" (Some 2) (Json.get_int "disjuncts" v);
  Alcotest.(check (option bool)) "satisfied" (Some true)
    (Json.get_bool "satisfied" v);
  ignore (handle r {|{"op":"db_create","name":"g"}|});
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(1,2)"}|});
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(2,3)"}|});
  let v' =
    handle r (Printf.sprintf {|{"op":"ucq_eval","id":2,"query":"%s","db_name":"g"}|} u)
  in
  Alcotest.(check (option string)) "named = inline count"
    (Json.get_string "count" v) (Json.get_string "count" v');
  (* mutate the named db: the memo must not serve the stale count *)
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(1,1)"}|});
  let v'' =
    handle r (Printf.sprintf {|{"op":"ucq_eval","id":3,"query":"%s","db_name":"g"}|} u)
  in
  Alcotest.(check (option string)) "post-insert count" (Some "6")
    (Json.get_string "count" v'');
  let v =
    handle r
      (Printf.sprintf {|{"op":"ucq_contain","small":"E(x,y)","big":"%s"}|} u)
  in
  Alcotest.(check (option bool)) "set containment holds" (Some true)
    (Json.get_bool "set_contains" v);
  Alcotest.(check (option bool)) "not bag equivalent" (Some false)
    (Json.get_bool "bag_equivalent" v);
  (* the canonical bag-UCQ violation: 2·E(x,y) vs E(x,y)∧E(z,w), exposed
     by E(1,1) where 2·1 > 1·1 *)
  let v =
    handle r
      ({|{"op":"ucq_hunt","small":"(E(x,y)) | (E(x,y))","big":"E(x,y) & E(z,w)",|}
      ^ {|"exhaustive_size":1,"samples":0}|})
  in
  Alcotest.(check (option bool)) "violated" (Some true)
    (Json.get_bool "violated" v);
  Alcotest.(check (option string)) "small count on witness" (Some "2")
    (Json.get_string "small_count" v);
  Alcotest.(check (option string)) "big count on witness" (Some "1")
    (Json.get_string "big_count" v)

let test_budget_clamp () =
  (* server cap of 50 ticks: a request asking for a billion is clamped,
     and a request asking for nothing gets the cap as its default *)
  let caps = { Router.max_fuel = Some 50; Router.max_timeout_ms = None } in
  let r = Router.create ~caps () in
  List.iter
    (fun line ->
      let v = handle r line in
      Alcotest.(check (option string)) "exhausted" (Some "exhausted") (status v);
      match Json.get_int "ticks" v with
      | Some t when t <= 50 -> ()
      | t ->
          Alcotest.failf "ticks %s above the 50-tick cap"
            (match t with Some t -> string_of_int t | None -> "missing"))
    [
      {|{"op":"hunt","small":"E(x,y) & E(y,z)","big":"E(x,y)","fuel":1000000000}|};
      {|{"op":"hunt","small":"E(x,y) & E(y,z)","big":"E(x,y)"}|};
    ]

let test_exhausted_shape () =
  let r = Router.create () in
  let v =
    handle r
      {|{"op":"hunt","id":5,"small":"E(x,y) & E(y,z)","big":"E(x,y)","fuel":50}|}
  in
  Alcotest.(check (option string)) "status" (Some "exhausted") (status v);
  Alcotest.(check (option string)) "reason" (Some "fuel")
    (Json.get_string "reason" v);
  Alcotest.(check bool) "progress fields present" true
    (Json.get_int "databases_tested" v <> None
    && Json.get_int "largest_size_completed" v <> None);
  (* an exhausted answer is never memoised: re-asking re-runs *)
  let v' = handle r {|{"op":"hunt","id":5,"small":"E(x,y) & E(y,z)","big":"E(x,y)","fuel":50}|} in
  Alcotest.(check bool) "no cached flag on exhausted" true
    (Json.get_bool "cached" v' = None)

let test_malformed_and_stats () =
  let r = Router.create () in
  let v = handle r "{definitely not json" in
  Alcotest.(check (option string)) "error status" (Some "error") (status v);
  ignore (handle r eval_line);
  ignore (handle r eval_line);
  let s = handle r {|{"op":"stats"}|} in
  Alcotest.(check (option int)) "requests" (Some 4) (Json.get_int "requests" s);
  Alcotest.(check (option int)) "errors" (Some 1) (Json.get_int "errors" s);
  Alcotest.(check (option int)) "result_hits" (Some 1)
    (Json.get_int "result_hits" s)

let test_metrics_op () =
  let r = Router.create () in
  ignore (handle r eval_line);
  let v = handle r {|{"op":"metrics","id":3}|} in
  Alcotest.(check (option string)) "status" (Some "ok") (status v);
  let rows =
    match get "metrics" v with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "no metrics list in the response"
  in
  let row ~name ~labels =
    let labels = List.map (fun (k, v) -> (k, Json.Str v)) labels in
    List.find_opt
      (fun row ->
        Json.get_string "name" row = Some name
        && Json.member "labels" row = Some (Json.Obj labels))
      rows
  in
  let value ~name ~labels =
    Option.bind (row ~name ~labels) (Json.get_int "value")
  in
  (* the metrics request observes itself before dispatch, like stats *)
  Alcotest.(check (option int)) "total requests" (Some 2)
    (value ~name:"server_requests" ~labels:[]);
  Alcotest.(check (option int)) "eval requests" (Some 1)
    (value ~name:"server_requests" ~labels:[ ("op", "eval") ]);
  Alcotest.(check (option int)) "ping requests precreated at zero" (Some 0)
    (value ~name:"server_requests" ~labels:[ ("op", "ping") ]);
  Alcotest.(check (option int)) "cache miss counted" (Some 1)
    (value ~name:"cache_result_misses" ~labels:[]);
  Alcotest.(check (option int)) "the dumping request is in flight" (Some 1)
    (value ~name:"server_in_flight" ~labels:[]);
  (* histogram rows carry the summary, not a single value *)
  (match row ~name:"server_request_ms" ~labels:[ ("op", "eval") ] with
  | Some row ->
      Alcotest.(check (option string)) "kind" (Some "histogram")
        (Json.get_string "kind" row);
      Alcotest.(check (option int)) "one eval observed" (Some 1)
        (Json.get_int "count" row)
  | None -> Alcotest.fail "no eval latency row");
  (* two routers do not share request metrics *)
  let r2 = Router.create () in
  let v2 = handle r2 {|{"op":"metrics"}|} in
  (match get "metrics" v2 with
  | Some (Json.List rows2) ->
      Alcotest.(check (option int)) "fresh router starts at one" (Some 1)
        (List.find_map
           (fun row ->
             if
               Json.get_string "name" row = Some "server_requests"
               && Json.member "labels" row = Some (Json.Obj [])
             then Json.get_int "value" row
             else None)
           rows2)
  | _ -> Alcotest.fail "no metrics list from second router")

let test_stats_latency_summaries () =
  let r = Router.create () in
  ignore (handle r eval_line);
  let s = handle r {|{"op":"stats"}|} in
  match get "latency" s with
  | Some (Json.Obj ops) ->
      (* only ops that actually ran appear; the stats op itself has not
         finished when the dump is taken *)
      Alcotest.(check (list string)) "ops with traffic" [ "eval" ]
        (List.map fst ops);
      let eval = List.assoc "eval" ops in
      Alcotest.(check (option int)) "count" (Some 1) (Json.get_int "count" eval);
      Alcotest.(check bool) "p95 present" true
        (Json.member "p95_ms" eval <> None)
  | _ -> Alcotest.fail "stats carries no latency object"

let never_crashes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"handle_line total on arbitrary bytes" ~count:1000
       (QCheck.make ~print:String.escaped
          QCheck.Gen.(string_size ~gen:char (int_bound 80)))
       (let r = Router.create () in
        fun line ->
          match Router.handle_line r line with
          | response -> (
              match Json.parse response with
              | Ok v -> Proto.status v <> None && not (String.contains response '\n')
              | Error e ->
                  QCheck.Test.fail_reportf "unparseable response %S (%s)" response e)
          | exception e ->
              QCheck.Test.fail_reportf "escaped exception %s on %S"
                (Printexc.to_string e) line))

(* request-shaped noise: valid JSON objects with op-like fields drive the
   decoder and handlers, not just the tokenizer *)
let never_crashes_request_soup =
  let gen =
    QCheck.Gen.(
      let field =
        oneofl
          [
            {|"op":"eval"|}; {|"op":"hunt"|}; {|"op":"stats"|}; {|"op":17|};
            {|"query":"E(x,y)"|}; {|"query":"E(x"|}; {|"db":"E(1,2)."|};
            {|"db":"nonsense"|}; {|"small":"E(x,y)"|}; {|"big":true|};
            {|"fuel":3|}; {|"fuel":-3|}; {|"fuel":1e99|}; {|"id":null|};
            {|"samples":0|}; {|"exhaustive_size":1|}; {|"timeout_ms":1|};
          ]
      in
      map
        (fun fs -> "{" ^ String.concat "," fs ^ "}")
        (list_size (int_bound 6) field))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"handle_line total on request soup" ~count:500
       (QCheck.make ~print:Fun.id gen)
       (let r = Router.create () in
        fun line ->
          match Router.handle_line r line with
          | response -> Result.is_ok (Json.parse response)
          | exception e ->
              QCheck.Test.fail_reportf "escaped exception %s on %S"
                (Printexc.to_string e) line))

let test_tcp_roundtrip () =
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.tcp ~max_connections:1
          ~on_listen:(fun p -> Atomic.set port p)
          (Router.create ()) ~port:0 ())
  in
  let rec wait_port n =
    if Atomic.get port = 0 then
      if n = 0 then Alcotest.fail "server never listened"
      else begin
        Unix.sleepf 0.01;
        wait_port (n - 1)
      end
  in
  wait_port 500;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let summary = Load.drive oc ic (Load.script ~malformed_every:7 ~n:21 ()) in
  (try Unix.close sock with Unix.Unix_error _ -> ());
  Domain.join server;
  Alcotest.(check int) "all answered" 21 summary.Load.requests;
  Alcotest.(check int) "none unparsed" 0 summary.Load.unparsed;
  Alcotest.(check int) "malformed counted" 3 summary.Load.errors;
  Alcotest.(check bool) "cache observed" true (summary.Load.cached > 0)

(* ---------------- fault injection ---------------- *)

(* Every fault test runs under a watchdog: the resilience contract is
   "never crash, never hang", and a hang would otherwise stall the whole
   suite.  SIGALRM's default disposition kills the process — loudly. *)
let with_watchdog f () =
  ignore (Unix.alarm 30);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

let with_tcp_server ?max_connections ?workers ?queue_depth ?max_inflight
    ?max_line_bytes ?idle_timeout_ms ?stop router f =
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.tcp ?max_connections ?workers ?queue_depth ?max_inflight
          ?max_line_bytes ?idle_timeout_ms ?stop ~drain_ms:5_000
          ~on_listen:(fun p -> Atomic.set port p)
          router ~port:0 ())
  in
  let rec wait_port n =
    if Atomic.get port = 0 then
      if n = 0 then Alcotest.fail "server never listened"
      else begin
        Unix.sleepf 0.01;
        wait_port (n - 1)
      end
  in
  wait_port 500;
  let result = f (Atomic.get port) in
  Domain.join server;
  result

let roundtrip_ping port =
  match Load.connect ~retries:5 ~backoff_ms:10 ~port () with
  | Error e -> Alcotest.failf "cannot connect: %s" e
  | Ok sock ->
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      output_string oc "{\"op\":\"ping\",\"id\":77}\n";
      flush oc;
      let reply = In_channel.input_line ic in
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (match reply with
      | None -> Alcotest.fail "no reply to ping"
      | Some reply -> (
          match Json.parse reply with
          | Error e -> Alcotest.failf "unparseable ping reply (%s)" e
          | Ok v ->
              Alcotest.(check (option string)) "ping ok" (Some "ok") (status v)))

(* One router answers concurrent requests the way it answers them one at
   a time: a connection sends a scripted run ahead to four workers, and
   the responses come back in request order, equal to [Router.handle_line]
   run line by line — only the cached flag may differ, when duplicates
   race. *)
let test_tcp_workers_ordered () =
  let lines = Load.script ~malformed_every:5 ~n:30 () in
  let one_at_a_time =
    let r = Router.create () in
    List.map (Router.handle_line r) lines
  in
  let concurrent =
    with_tcp_server ~max_connections:1 ~workers:4 (Router.create ()) (fun port ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let ic = Unix.in_channel_of_descr sock in
        let oc = Unix.out_channel_of_descr sock in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        flush oc;
        let responses =
          List.map
            (fun _ ->
              match In_channel.input_line ic with
              | Some l -> l
              | None -> Alcotest.fail "server closed before answering")
            lines
        in
        (try Unix.close sock with Unix.Unix_error _ -> ());
        responses)
  in
  let strip line =
    match Json.parse line with
    | Ok (Json.Obj fields) ->
        Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
    | _ -> line
  in
  Alcotest.(check (list string))
    "in request order, as one at a time"
    (List.map strip one_at_a_time) (List.map strip concurrent)

let test_slow_loris () =
  (* a client that dribbles a frame forever without its newline must not
     hold a slot forever: partial lines are not activity, so the idle
     timeout reaps the connection, and other clients keep being served *)
  let r = Router.create () in
  with_tcp_server ~max_connections:2 ~idle_timeout_ms:100 r (fun port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let payload = Bytes.of_string "{\"op\":" in
      ignore (Unix.write sock payload 0 (Bytes.length payload));
      (* block reading: the SERVER must close this connection, not us *)
      let b = Bytes.create 1 in
      let closed_by_server =
        match Unix.read sock b 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      in
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Alcotest.(check bool) "idle reap closed the connection" true
        closed_by_server;
      roundtrip_ping port)

let test_mid_frame_disconnect () =
  (* a peer that pipelines a few requests, leaves a dangling half-frame
     and hard-closes without reading anything must cost the server
     nothing but a counter bump *)
  let r = Router.create () in
  with_tcp_server ~max_connections:2 r (fun port ->
      (match
         Load.mid_frame_disconnect ~port
           ~complete:(Load.script ~n:3 ())
           ~partial:"{\"op\":\"eval\"," ()
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "injector could not connect: %s" e);
      (* the server must still be fully alive for the next client *)
      roundtrip_ping port)

let test_oversized_line_closes () =
  let r = Router.create () in
  with_tcp_server ~max_connections:2 ~max_line_bytes:64 r (fun port ->
      (match Load.oversized_line ~port ~bytes:4096 () with
      | Error e -> Alcotest.failf "injector could not connect: %s" e
      | Ok None -> Alcotest.fail "no refusal before close"
      | Ok (Some reply) -> (
          match Json.parse reply with
          | Error e -> Alcotest.failf "unparseable refusal (%s)" e
          | Ok v ->
              Alcotest.(check (option string))
                "refusal status" (Some "error") (status v);
              Alcotest.(check (option string))
                "refusal code" (Some "bad_request")
                (match get "code" v with
                | Some (Json.Str c) -> Some c
                | _ -> None)));
      let oversized =
        Metrics.counter_value
          (Metrics.counter (Router.metrics r) "server_lines_oversized")
      in
      Alcotest.(check int) "oversized counted" 1 oversized;
      roundtrip_ping port)

let test_queue_full_sheds () =
  (* flood a server whose admission bounds are minimal: every request is
     still answered — most with a structured overloaded response — and
     the process neither crashes nor hangs *)
  let r = Router.create () in
  with_tcp_server ~max_connections:1 ~workers:1 ~queue_depth:1 ~max_inflight:1
    r (fun port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      let summary = Load.drive_open oc ic (Load.script ~n:200 ()) in
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Alcotest.(check int) "all answered" 200 summary.Load.requests;
      Alcotest.(check int) "none unparsed" 0 summary.Load.unparsed;
      Alcotest.(check bool) "some shed" true (summary.Load.shed > 0);
      Alcotest.(check bool) "some served" true (summary.Load.ok > 0);
      let shed =
        Metrics.counter_value
          (Metrics.counter (Router.metrics r) "server_shed")
      in
      Alcotest.(check int) "server counted the sheds" summary.Load.shed shed)

let test_graceful_drain () =
  (* stopping the server mid-request must not lose the request: the
     drain answers what was admitted, flushes it, then closes *)
  let r = Router.create () in
  let stop = Atomic.make false in
  with_tcp_server ~stop r (fun port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      output_string oc (eval_line ^ "\n");
      flush oc;
      (* wait until the request was admitted, then pull the plug *)
      let requests () =
        Metrics.counter_value (Metrics.counter (Router.metrics r) "server_requests")
      in
      let rec wait n =
        if requests () = 0 && n > 0 then begin
          Unix.sleepf 0.01;
          wait (n - 1)
        end
      in
      wait 500;
      Atomic.set stop true;
      (match In_channel.input_line ic with
      | None -> Alcotest.fail "in-flight request lost in shutdown"
      | Some reply -> (
          match Json.parse reply with
          | Error e -> Alcotest.failf "unparseable drained reply (%s)" e
          | Ok v ->
              Alcotest.(check (option string)) "drained answer" (Some "ok")
                (status v)));
      Alcotest.(check (option string)) "connection closed after drain" None
        (In_channel.input_line ic);
      try Unix.close sock with Unix.Unix_error _ -> ())

let () =
  Alcotest.run "server"
    [
      ( "router",
        [
          Alcotest.test_case "ping echoes structured ids" `Quick test_ping_and_echo;
          Alcotest.test_case "eval + shared result cache" `Quick test_eval_and_cache;
          Alcotest.test_case "interned db builds its index once" `Quick
            test_index_built_once_per_db;
          Alcotest.test_case "ucq ops: named = inline, contain, hunt" `Quick
            test_ucq_ops;
          Alcotest.test_case "budgets clamped by caps" `Quick test_budget_clamp;
          Alcotest.test_case "exhaustion is structured" `Quick test_exhausted_shape;
          Alcotest.test_case "malformed input + stats" `Quick test_malformed_and_stats;
          Alcotest.test_case "metrics op dumps both registries" `Quick
            test_metrics_op;
          Alcotest.test_case "stats carries latency summaries" `Quick
            test_stats_latency_summaries;
        ] );
      ("robustness", [ never_crashes; never_crashes_request_soup ]);
      ( "serving",
        [
          Alcotest.test_case "tcp round-trip on an ephemeral port" `Quick
            test_tcp_roundtrip;
          Alcotest.test_case "tcp workers answer as one at a time" `Quick
            (with_watchdog test_tcp_workers_ordered);
        ] );
      ( "faults",
        [
          Alcotest.test_case "slow-loris writer is reaped" `Quick
            (with_watchdog test_slow_loris);
          Alcotest.test_case "mid-frame disconnect is survivable" `Quick
            (with_watchdog test_mid_frame_disconnect);
          Alcotest.test_case "oversized line refused and closed" `Quick
            (with_watchdog test_oversized_line_closes);
          Alcotest.test_case "queue-full flood sheds, never hangs" `Quick
            (with_watchdog test_queue_full_sheds);
          Alcotest.test_case "graceful drain answers in-flight" `Quick
            (with_watchdog test_graceful_drain);
        ] );
    ]
