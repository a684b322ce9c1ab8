module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Eval = Bagcq_hom.Eval
module Nat = Bagcq_bignum.Nat
module Containment = Bagcq_reduction.Containment
module Hunt = Bagcq_search.Hunt
module Sampler = Bagcq_search.Sampler
module Metrics = Bagcq_obs.Metrics
module Clock = Bagcq_obs.Clock
module Trace = Bagcq_obs.Trace
module Store = Bagcq_store.Store

type caps = { max_fuel : int option; max_timeout_ms : int option }

let default_caps = { max_fuel = Some 50_000_000; max_timeout_ms = Some 10_000 }

(* Every op label a request can resolve to; undecodable lines count under
   "invalid".  Handles are precreated at router creation so a metrics
   dump always shows the full family, all-zero rows included, and the
   request path never touches the registry. *)
let op_labels =
  [
    "ping";
    "stats";
    "metrics";
    "eval";
    "contain";
    "hunt";
    "ucq_eval";
    "ucq_contain";
    "ucq_hunt";
    "db_create";
    "db_insert";
    "db_delete";
    "register";
    "unregister";
    "counts";
    "invalid";
  ]

type t = {
  caps : caps;
  hunt_jobs : int;
  cache : Cache.t;
  store : Store.t;
  metrics : Metrics.t;
  req_total : Metrics.counter;
  req_by_op : (string * Metrics.counter) list;
  resp_ok : Metrics.counter;
  resp_error : Metrics.counter;
  resp_exhausted : Metrics.counter;
  latency_by_op : (string * Metrics.histogram) list;
  in_flight : Metrics.gauge;
  budget_ticks : Metrics.counter;
}

let create ?(caps = default_caps) ?(hunt_jobs = 1) () =
  if hunt_jobs < 1 then invalid_arg "Router.create: hunt_jobs must be >= 1";
  let m = Metrics.create () in
  let per_op make = List.map (fun op -> (op, make op)) op_labels in
  (* connection and admission counters live here, not in Serve, so a
     stdio-only router still dumps the full key set *)
  ignore (Metrics.counter m "server_connections");
  ignore (Metrics.counter m "server_connections_failed");
  ignore (Metrics.counter m "server_shed");
  ignore (Metrics.counter m "server_lines_oversized");
  ignore (Metrics.gauge m "server_queue_depth");
  let cache = Cache.create ~metrics:m () in
  (* A committed mutation invalidates the result memo's entries for that
     database while the store still holds its shard lock — a later request
     can only see post-mutation state.  Version-stamped eval memo keys
     already make superseded entries unreachable; eviction reclaims them. *)
  let store =
    Store.create ~metrics:m
      ~on_mutate:(fun name -> ignore (Cache.evict_db cache ~name))
      ()
  in
  {
    caps;
    hunt_jobs;
    cache;
    store;
    metrics = m;
    req_total = Metrics.counter m "server_requests";
    req_by_op =
      per_op (fun op -> Metrics.counter ~labels:[ ("op", op) ] m "server_requests");
    resp_ok = Metrics.counter ~labels:[ ("status", "ok") ] m "server_responses";
    resp_error =
      Metrics.counter ~labels:[ ("status", "error") ] m "server_responses";
    resp_exhausted =
      Metrics.counter ~labels:[ ("status", "exhausted") ] m "server_responses";
    latency_by_op =
      per_op (fun op ->
          Metrics.histogram ~labels:[ ("op", op) ] m "server_request_ms");
    in_flight = Metrics.gauge m "server_in_flight";
    budget_ticks = Metrics.counter m "server_budget_ticks";
  }

let caps t = t.caps
let cache t = t.cache
let metrics t = t.metrics

let clamp one cap =
  match (one, cap) with
  | Some v, Some c -> Some (min v c)
  | Some v, None -> Some v
  | None, c -> c

let clamp_budget caps (spec : Proto.budget_spec) =
  {
    Proto.fuel = clamp spec.Proto.fuel caps.max_fuel;
    Proto.timeout_ms = clamp spec.Proto.timeout_ms caps.max_timeout_ms;
  }

(* [deadline] is the request's admission deadline (absolute seconds):
   wall-clock already spent waiting in the admission queue counts against
   the request, so a request that queued past its whole allowance
   exhausts immediately instead of running late. *)
let make_budget ?deadline caps spec =
  let spec = clamp_budget caps spec in
  Budget.create ?fuel:spec.Proto.fuel ?timeout_ms:spec.Proto.timeout_ms
    ?deadline ()

let stats_fields t =
  let s = Cache.stats t.cache in
  let latency =
    List.filter_map
      (fun (op, h) ->
        let s = Metrics.summary h in
        if s.Metrics.count = 0 then None
        else Some (op, Json.Obj (Proto.summary_fields s)))
      t.latency_by_op
  in
  [
    ("requests", Json.Int (Metrics.counter_value t.req_total));
    ("ok", Json.Int (Metrics.counter_value t.resp_ok));
    ("errors", Json.Int (Metrics.counter_value t.resp_error));
    ("exhausted", Json.Int (Metrics.counter_value t.resp_exhausted));
    ("result_hits", Json.Int s.Cache.result_hits);
    ("result_misses", Json.Int s.Cache.result_misses);
    ("result_entries", Json.Int s.Cache.result_entries);
    ("result_evicted", Json.Int s.Cache.result_evicted);
    ("plan_hits", Json.Int s.Cache.plan_hits);
    ("plan_misses", Json.Int s.Cache.plan_misses);
    ("count_hits", Json.Int s.Cache.count_hits);
    ("count_misses", Json.Int s.Cache.count_misses);
    ("hunt_jobs", Json.Int t.hunt_jobs);
    ("latency", Json.Obj (List.sort compare latency));
  ]

let metrics_rows t =
  List.sort
    (fun (a : Metrics.row) b ->
      compare (a.Metrics.name, a.Metrics.labels) (b.Metrics.name, b.Metrics.labels))
    (Metrics.rows t.metrics @ Metrics.rows Metrics.global)

(* ---------------- op handlers ---------------- *)

(* Look up the memo; on miss run [compute], which returns either the core
   fields of a Complete response (memoised — a cached replay reports the
   ticks the original computation spent, the deterministic cost of the
   answer) or an already-built exhausted response (never memoised: how far
   a budget got is a property of the request's budget, not of the
   answer).  [db_name] tags the entry with the named database the request
   read, so a mutation of that database evicts it. *)
let memoised ?key ?db_name t req ~compute =
  let key = match key with Some k -> k | None -> Proto.cache_key req in
  match Cache.find_result t.cache key with
  | Some core -> Proto.attach ?id:req.Proto.id ~cached:true core
  | None -> (
      match compute () with
      | Ok core ->
          Cache.store_result ?db_name t.cache key core;
          Proto.attach ?id:req.Proto.id ~cached:false core
      | Error response -> response)

let spend t budget response =
  Metrics.add t.budget_ticks (Budget.ticks budget);
  response

(* Every query op, counts and hunts alike: a budget from the request,
   spent whatever the answer; the memo; then [run] on the budget.
   [Complete v] becomes the memoised core [core v ~ticks]; [Exhausted (p,
   reason)] an exhausted body under [op] with the budget snapshot and
   [extra p]. *)
let answer ?key ?db_name ?deadline ?(extra = fun _ -> []) t (req : Proto.request) ~op
    ~run ~core =
  let budget = make_budget ?deadline t.caps req.Proto.budget in
  spend t budget
  @@ memoised ?key ?db_name t req ~compute:(fun () ->
         match run budget with
         | Outcome.Complete v -> Ok (core v ~ticks:(Budget.ticks budget))
         | Outcome.Exhausted (p, reason) ->
             Error
               (Proto.error_body ?id:req.Proto.id ~op
                  ~kind:(Proto.Exhausted reason)
                  ~budget:(Budget.snapshot budget) ~extra:(extra p) ""))

(* [run] for a computation that unwinds with [Budget.Exhausted_]. *)
let guarded f budget = Outcome.guard ~partial:(fun () -> ()) (fun () -> f budget)

(* Resolve the [db]-inline-xor-[db_name] reference shared by [eval] and
   [ucq_eval], then continue with the concrete structure and (for named
   databases) a version-stamped memo key and the name to tag it with. *)
let resolve_db_ref t (req : Proto.request) ~op ~db k =
  match db with
  | Proto.Db_inline db ->
      (* Intern before evaluating: the decoded structure is request-local,
         and only the interned representative carries the memoised join
         index and count memo shared across requests. *)
      k ?key:None ?db_name:None (Cache.intern_db t.cache db)
  | Proto.Db_named name -> (
      match Store.snapshot t.store ~name with
      | Store.Rejected msg ->
          Proto.error_body ?id:req.Proto.id ~op ~kind:Proto.Bad_request msg
      | Store.Exhausted reason ->
          Proto.error_body ?id:req.Proto.id ~op
            ~kind:(Proto.Exhausted reason) ""
      | Store.Done (db, version) ->
          (* The store's structure is already one stable physical value
             between mutations (no interning needed), and the memo key is
             stamped with the database version: an entry computed against
             a superseded version can never be replayed, even if a slow
             in-flight eval stores its result after the mutation's
             eviction pass ran. *)
          let key =
            Printf.sprintf "%s#v%d" (Proto.cache_key req) version
          in
          k ?key:(Some key) ?db_name:(Some name) db)

(* [eval] and [ucq_eval]: [count] is the CQ or UCQ count of the query. *)
let handle_eval ?deadline t (req : Proto.request) ~op ~db ~count ~core =
  resolve_db_ref t req ~op ~db (fun ?key ?db_name db ->
      answer ?key ?db_name ?deadline t req ~op
        ~run:
          (guarded (fun budget ->
               Cache.with_eval t.cache (fun cache -> count ~budget ~cache db)))
        ~core:(fun n -> core ~count:n ~satisfied:(not (Nat.is_zero n))))

let handle_contain ?deadline t (req : Proto.request) ~small ~big =
  answer ?deadline t req ~op:"contain"
    ~run:
      (guarded (fun budget ->
           let set_contains =
             try Some (Containment.set_contains ~budget ~small ~big ())
             with Invalid_argument _ -> None
           in
           (set_contains, Containment.bag_equivalent small big)))
    ~core:(fun (set_contains, bag_equivalent) ->
      Proto.contain_core ~set_contains ~bag_equivalent)

let handle_ucq_contain ?deadline t (req : Proto.request) ~small ~big =
  answer ?deadline t req ~op:"ucq_contain"
    ~run:
      (guarded (fun budget ->
           let set_contains, hom_checks =
             try
               let v, n =
                 Containment.ucq_set_contains_counted ~budget ~small ~big ()
               in
               (Some v, n)
             with Invalid_argument _ -> (None, 0)
           in
           (set_contains, hom_checks, Containment.ucq_bag_equivalent small big)))
    ~core:(fun (set_contains, hom_checks, bag_equivalent) ->
      Proto.ucq_contain_core ~set_contains ~bag_equivalent ~hom_checks)

(* [hunt] and [ucq_hunt]: one hunt driver over a CQ or a UCQ pair.  The
   witness comes with the counts of the hunt's own exact re-check.  A
   candidate that failed that re-check is an engine inconsistency: the
   answer is an [internal] error naming the database, never [violated:
   false]. *)
let handle_hunt ?deadline t (req : Proto.request) ~op
    ~(hunt : ?strategy:Hunt.strategy -> ?jobs:int -> budget:Budget.t -> unit -> _)
    ~samples ~exhaustive_size ~seed =
  let strategy =
    {
      Hunt.exhaustive_max_size = exhaustive_size;
      Hunt.sampler = { Sampler.default with Sampler.samples; Sampler.seed };
    }
  in
  let witness (report : Hunt.report) =
    match (report.witness, report.counts) with
    | Some d, Some (cs, cb) -> Some (d, cs, cb)
    | _ -> None
  in
  answer ?deadline t req ~op
    ~run:(fun budget ->
      match hunt ~strategy ~jobs:t.hunt_jobs ~budget () with
      | Outcome.Complete ({ Hunt.unverified = Some d; _ }, _) ->
          failwith
            ("the hunt's witness failed exact re-verification: "
            ^ Bagcq_relational.Encode.to_string d)
      | outcome -> outcome)
    ~core:(fun (report, _) ~ticks ->
      Proto.hunt_core ~op ~witness:(witness report)
        ~exhaustive_complete:report.Hunt.exhaustive_complete
        ~tested_random:report.Hunt.tested_random ~ticks ())
    ~extra:(fun (report, progress) ->
      Proto.witness_fields (witness report)
      @ [
          ("databases_tested", Json.Int progress.Hunt.databases_tested);
          ( "largest_size_completed",
            Json.Int progress.Hunt.largest_size_completed );
          ("tested_random", Json.Int report.Hunt.tested_random);
        ])

(* ---------------- data-plane handlers ----------------

   Store ops are never memoised: creates and mutations change live state,
   and register/counts read it — replaying a stored answer after a delta
   would be exactly the staleness the data plane exists to avoid.  The
   [reply] type maps onto the wire one-to-one: [Rejected] is a
   [bad_request], [Exhausted] carries the budget snapshot. *)

let store_reply ?budget t (req : Proto.request) ~op ~core reply =
  let finish response =
    match budget with None -> response | Some b -> spend t b response
  in
  finish
  @@
  match reply with
  | Store.Done v -> Proto.attach ?id:req.Proto.id ~cached:false (core v)
  | Store.Rejected msg ->
      Proto.error_body ?id:req.Proto.id ~op ~kind:Proto.Bad_request msg
  | Store.Exhausted reason ->
      Proto.error_body ?id:req.Proto.id ~op ~kind:(Proto.Exhausted reason)
        ?budget:(Option.map Budget.snapshot budget) ""

let handle_db_create t (req : Proto.request) ~name ~db =
  Store.db_create t.store ~name db
  |> store_reply t req ~op:"db_create" ~core:(fun atoms ->
         Proto.db_create_core ~atoms)

let handle_mutation ?deadline t (req : Proto.request) ~op ~name ~fact ~add =
  let budget = make_budget ?deadline t.caps req.Proto.budget in
  let sym, tup = fact in
  (if add then Store.db_insert else Store.db_delete)
    ~budget t.store ~name sym tup
  |> store_reply ~budget t req ~op ~core:(fun (m : Store.mutation) ->
         Proto.mutation_core ~op ~atoms:m.Store.atoms
           ~registrations:m.Store.registrations ~maintained:m.Store.maintained
           ~recomputed:m.Store.recomputed ~stale:m.Store.stale
           ~ticks:(Budget.ticks budget))

let handle_register ?deadline t (req : Proto.request) ~name ~query =
  let budget = make_budget ?deadline t.caps req.Proto.budget in
  Store.register ~budget t.store ~name query
  |> store_reply ~budget t req ~op:"register" ~core:(fun (i : Store.reg_info) ->
         Proto.register_core ~count:i.Store.reg_count
           ~components:i.Store.reg_components ~maintained:i.Store.reg_maintained
           ~ticks:(Budget.ticks budget))

let handle_unregister t (req : Proto.request) ~name ~query =
  Store.unregister t.store ~name query
  |> store_reply t req ~op:"unregister" ~core:(fun () ->
         Proto.unregister_core ())

let handle_counts ?deadline t (req : Proto.request) ~name =
  let budget = make_budget ?deadline t.caps req.Proto.budget in
  Store.counts ~budget t.store ~name
  |> store_reply ~budget t req ~op:"counts" ~core:(fun rows ->
         Proto.counts_core
           ~rows:
             (List.map
                (fun (r : Store.count_row) ->
                  Proto.count_row_json ~query:r.Store.cr_query
                    ~count:r.Store.cr_count ~maintained:r.Store.cr_maintained)
                rows)
           ~ticks:(Budget.ticks budget))

(* ---------------- entry points ---------------- *)

let classify t response =
  (match Proto.status response with
  | Some "ok" -> Metrics.incr t.resp_ok
  | Some "exhausted" -> Metrics.incr t.resp_exhausted
  | Some "error" | Some _ | None -> Metrics.incr t.resp_error);
  response

(* [req_total] and the per-op counter bump before dispatch (a [stats] /
   [metrics] request observes itself, like the Atomic counters it
   replaces); the latency observation lands after, so a dump read inside
   a request never sees a half-recorded self. *)
let instrument t ~op f =
  Metrics.incr t.req_total;
  Metrics.incr (List.assoc op t.req_by_op);
  Metrics.gauge_add t.in_flight 1;
  let t0 = Clock.now_ms () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.observe_ms (List.assoc op t.latency_by_op) (Clock.elapsed_ms t0);
      Metrics.gauge_add t.in_flight (-1))
    (fun () -> Trace.with_span ("req:" ^ op) (fun _sp -> classify t (f ())))

let dispatch ?deadline t (req : Proto.request) =
  let id = req.Proto.id in
  try
    match req.Proto.op with
    | Proto.Ping -> Proto.ping_response ?id ()
    | Proto.Stats -> Proto.stats_response ?id (stats_fields t)
    | Proto.Metrics -> Proto.metrics_response ?id (metrics_rows t)
    | Proto.Eval { query; db } ->
        handle_eval ?deadline t req ~op:"eval" ~db
          ~count:(fun ~budget ~cache -> Eval.count ~budget ~cache query)
          ~core:Proto.eval_core
    | Proto.Contain { small; big } -> handle_contain ?deadline t req ~small ~big
    | Proto.Hunt { small; big; samples; exhaustive_size; seed } ->
        handle_hunt ?deadline t req ~op:"hunt"
          ~hunt:(Hunt.counterexample_guarded ~small ~big)
          ~samples ~exhaustive_size ~seed
    | Proto.Ucq_eval { query; db } ->
        handle_eval ?deadline t req ~op:"ucq_eval" ~db
          ~count:(fun ~budget ~cache -> Eval.count_ucq ~budget ~cache query)
          ~core:
            (Proto.ucq_eval_core
               ~disjuncts:(Bagcq_cq.Ucq.num_disjuncts query))
    | Proto.Ucq_contain { small; big } ->
        handle_ucq_contain ?deadline t req ~small ~big
    | Proto.Ucq_hunt { small; big; samples; exhaustive_size; seed } ->
        handle_hunt ?deadline t req ~op:"ucq_hunt"
          ~hunt:(Hunt.ucq_counterexample_guarded ~small ~big)
          ~samples ~exhaustive_size ~seed
    | Proto.Db_create { name; db } -> handle_db_create t req ~name ~db
    | Proto.Db_insert { name; fact } ->
        handle_mutation ?deadline t req ~op:"db_insert" ~name ~fact ~add:true
    | Proto.Db_delete { name; fact } ->
        handle_mutation ?deadline t req ~op:"db_delete" ~name ~fact ~add:false
    | Proto.Register { name; query } -> handle_register ?deadline t req ~name ~query
    | Proto.Unregister { name; query } -> handle_unregister t req ~name ~query
    | Proto.Counts { name } -> handle_counts ?deadline t req ~name
  with e ->
    Proto.error_body ?id ~op:(Proto.op_name req.Proto.op) ~kind:Proto.Internal
      (Printf.sprintf "internal error: %s" (Printexc.to_string e))

let handle_json ?deadline t j =
  match Proto.decode j with
  | Error e ->
      instrument t ~op:"invalid" (fun () ->
          Proto.error_response ?id:(Json.member "id" j) e)
  | Ok req ->
      instrument t ~op:(Proto.op_name req.Proto.op) (fun () ->
          dispatch ?deadline t req)

let handle_line ?deadline t line =
  let response =
    match Json.parse line with
    | Error e ->
        instrument t ~op:"invalid" (fun () ->
            Proto.error_response (Printf.sprintf "invalid JSON: %s" e))
    | Ok j -> handle_json ?deadline t j
  in
  Json.to_string response
