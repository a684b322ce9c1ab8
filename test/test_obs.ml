(* lib/obs: the lock-free metrics registry and the tracing spans.  The
   two properties every other layer leans on: counters lose no
   increments under any number of domains (Atomic.fetch_and_add), and a
   histogram quantile is always the upper edge of the bucket holding the
   exact order statistic — within one bucket of a sorted-array oracle,
   overflow excepted (there it reports the observed max). *)

module Metrics = Bagcq_obs.Metrics
module Trace = Bagcq_obs.Trace

(* ---------------- counters under domains ---------------- *)

let counters_exact_under_domains =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"counters exact under N domains" ~count:20
       QCheck.(pair (int_range 1 6) (small_list (int_range 0 17)))
       (fun (domains, deltas) ->
         let c = Metrics.fresh_counter () in
         let spawned =
           List.init domains (fun _ ->
               Domain.spawn (fun () ->
                   List.iter (fun d -> Metrics.add c d) deltas;
                   for _ = 1 to 1000 do
                     Metrics.incr c
                   done))
         in
         List.iter Domain.join spawned;
         Metrics.counter_value c
         = domains * (List.fold_left ( + ) 0 deltas + 1000)))

let gauge_balanced_under_domains =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"gauge deltas balance under N domains" ~count:20
       QCheck.(int_range 1 6)
       (fun domains ->
         let m = Metrics.create () in
         let g = Metrics.gauge m "in_flight" in
         let spawned =
           List.init domains (fun _ ->
               Domain.spawn (fun () ->
                   for _ = 1 to 500 do
                     Metrics.gauge_add g 1;
                     Metrics.gauge_add g (-1)
                   done))
         in
         List.iter Domain.join spawned;
         Metrics.gauge_value g = 0))

(* ---------------- histogram quantiles vs a sorted oracle ------------- *)

(* The bucket the implementation files [v] under: first default bound
   >= v, or one past the end for overflow. *)
let bucket_of v =
  let bounds = Metrics.default_latency_buckets_ms in
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let quantile_within_one_bucket =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"histogram quantile within one bucket of sorted oracle"
       ~count:300
       QCheck.(
         pair
           (list_of_size Gen.(1 -- 120) (float_bound_inclusive 20000.))
           (float_bound_inclusive 1.))
       (fun (obs, q) ->
         let h = Metrics.fresh_histogram () in
         List.iter (Metrics.observe_ms h) obs;
         let sorted = List.sort compare obs in
         let n = List.length obs in
         let rank =
           Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
         in
         let oracle = List.nth sorted (rank - 1) in
         let reported = Metrics.quantile_ms h q in
         let bounds = Metrics.default_latency_buckets_ms in
         if bucket_of oracle >= Array.length bounds then
           (* overflow rank: the observed max, to the ns the histogram
              stores internally *)
           let max_obs = List.fold_left Float.max 0. obs in
           Float.abs (reported -. max_obs) <= 1e-5
         else
           (* exactly the upper edge of the oracle's bucket *)
           reported = bounds.(bucket_of oracle)))

let test_summary_shape () =
  let h = Metrics.fresh_histogram () in
  List.iter (Metrics.observe_ms h) [ 0.02; 0.3; 4.; 4.; 7000. ];
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-3)) "sum" 7008.32 s.Metrics.sum_ms;
  (* rank ceil(0.5*5)=3 -> third smallest is 4.0, whose bucket edge is 5 *)
  Alcotest.(check (float 1e-9)) "p50 is a bucket edge" 5. s.Metrics.p50_ms;
  Alcotest.(check (float 1e-4)) "max observed" 7000. s.Metrics.max_ms;
  let empty = Metrics.summary (Metrics.fresh_histogram ()) in
  Alcotest.(check int) "empty count" 0 empty.Metrics.count;
  Alcotest.(check (float 0.)) "empty quantile" 0. empty.Metrics.p99_ms

(* ---------------- registry semantics ---------------- *)

let test_registry_identity () =
  let m = Metrics.create () in
  let c1 = Metrics.counter ~labels:[ ("op", "eval"); ("tier", "1") ] m "req" in
  let c2 = Metrics.counter ~labels:[ ("tier", "1"); ("op", "eval") ] m "req" in
  Metrics.incr c1;
  Metrics.incr c2;
  (* label order is canonicalised: both handles hit the same cell *)
  Alcotest.(check int) "label order canonical" 2 (Metrics.counter_value c1);
  (try
     ignore (Metrics.gauge ~labels:[ ("op", "eval"); ("tier", "1") ] m "req");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  (* registries are independent namespaces *)
  let other = Metrics.counter ~labels:[ ("op", "eval"); ("tier", "1") ]
      (Metrics.create ()) "req"
  in
  Alcotest.(check int) "fresh registry starts at zero" 0
    (Metrics.counter_value other)

let test_rows_sorted_and_registered () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "b_counter");
  ignore (Metrics.gauge m "a_gauge");
  let c = Metrics.fresh_counter () in
  Metrics.add c 3;
  Metrics.register_counter m "c_registered" c;
  let rows = Metrics.rows m in
  Alcotest.(check (list string))
    "sorted by name"
    [ "a_gauge"; "b_counter"; "c_registered" ]
    (List.map (fun r -> r.Metrics.name) rows);
  match rows with
  | [ _; { Metrics.value = Metrics.Counter_v 0; _ };
      { Metrics.value = Metrics.Counter_v 3; _ } ] ->
      ()
  | _ -> Alcotest.fail "registered counter did not surface its value"

(* ---------------- tracing ---------------- *)

let test_trace_off_is_null () =
  Trace.set_sink None;
  Alcotest.(check bool) "disabled" false (Trace.is_enabled ());
  Trace.with_span "root" (fun sp ->
      Alcotest.(check int) "null span id" 0 (Trace.id sp))

let test_trace_parent_ids () =
  let sink, drain = Trace.memory_sink () in
  Trace.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      Trace.with_span "outer" (fun outer ->
          Trace.with_span ~parent:outer "inner" (fun inner ->
              Alcotest.(check bool) "distinct live ids" true
                (Trace.id inner <> Trace.id outer && Trace.id inner > 0))));
  match drain () with
  | [ inner; outer ] ->
      (* the inner span finishes (and is emitted) first *)
      Alcotest.(check string) "inner name" "inner" inner.Trace.name;
      Alcotest.(check string) "outer name" "outer" outer.Trace.name;
      Alcotest.(check (option int)) "parent link" (Some outer.Trace.span_id)
        inner.Trace.parent_id;
      Alcotest.(check (option int)) "root is parentless" None
        outer.Trace.parent_id;
      Alcotest.(check bool) "durations non-negative" true
        (inner.Trace.dur_ms >= 0. && outer.Trace.dur_ms >= 0.)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_trace_emits_on_raise () =
  let sink, drain = Trace.memory_sink () in
  Trace.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      try Trace.with_span "boom" (fun _ -> failwith "boom")
      with Failure _ -> ());
  match drain () with
  | [ r ] -> Alcotest.(check string) "record on raise" "boom" r.Trace.name
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          counters_exact_under_domains;
          gauge_balanced_under_domains;
          quantile_within_one_bucket;
          Alcotest.test_case "summary shape" `Quick test_summary_shape;
          Alcotest.test_case "registry identity + kinds" `Quick
            test_registry_identity;
          Alcotest.test_case "rows sorted, registered counters surface" `Quick
            test_rows_sorted_and_registered;
        ] );
      ( "trace",
        [
          Alcotest.test_case "no sink, null span" `Quick test_trace_off_is_null;
          Alcotest.test_case "parent ids reconstruct the tree" `Quick
            test_trace_parent_ids;
          Alcotest.test_case "span emitted on raise" `Quick
            test_trace_emits_on_raise;
        ] );
    ]
