(* In-process replay of a script, for per-layer attribution.

   The replay keeps the state the server keeps: the intern table and
   result memo (through the public [Cache] functions), a plan map and a
   per-structure count memo that mirror [Eval]'s, and a [Store] whose
   [on_mutate] calls [Cache.evict_db].  Every call into a layer's public
   function is wrapped in a [Trace.with_span] span named after the layer;
   spans go to a memory sink and are folded into self times when the
   replay ends.  No span is recorded inside the library. *)

module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Cache = Bagcq_server.Cache
module Store = Bagcq_store.Store
module Trace = Bagcq_obs.Trace
module Metrics = Bagcq_obs.Metrics
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Nat = Bagcq_bignum.Nat
module Decomp = Bagcq_hom.Decomp
module Index = Bagcq_hom.Index
module Wcoj = Bagcq_hom.Wcoj
module Ghd = Bagcq_hom.Ghd
module Plan = Bagcq_hom.Plan
module Solver = Bagcq_hom.Solver
module Hunt = Bagcq_search.Hunt
module Sampler = Bagcq_search.Sampler
module Containment = Bagcq_reduction.Containment
module Query = Bagcq_cq.Query
module QueryMap = Map.Make (Query)

(* ---------------- spans ---------------- *)

let current = ref Trace.null_span

let span name f =
  let parent = !current in
  Trace.with_span ~parent name (fun sp ->
      current := sp;
      Fun.protect ~finally:(fun () -> current := parent) f)

(* ---------------- state ---------------- *)

type strategy =
  | Dp of Decomp.tree
  | Leapfrog of Wcoj.plan
  | Hyper of Ghd.t
  | Search of Plan.t

type t = {
  cache : Cache.t;
  store : Store.t;
  store_metrics : Metrics.t;
  mutable plans : strategy QueryMap.t;
  mutable counts : Nat.t QueryMap.t;
  mutable counts_for : Bagcq_relational.Structure.t option;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable count_hits : int;
  mutable count_misses : int;
  mutable ticks : int;
  mutable result_bits : int;
  mutable databases_tested : int;
  mutable failed : int;
}

let create () =
  let cache = Cache.create () in
  let store_metrics = Metrics.create () in
  let store =
    Store.create ~metrics:store_metrics
      ~on_mutate:(fun name ->
        ignore (span "server.evict_db" (fun () -> Cache.evict_db cache ~name)))
      ()
  in
  {
    cache;
    store;
    store_metrics;
    plans = QueryMap.empty;
    counts = QueryMap.empty;
    counts_for = None;
    plan_hits = 0;
    plan_misses = 0;
    count_hits = 0;
    count_misses = 0;
    ticks = 0;
    result_bits = 0;
    databases_tested = 0;
    failed = 0;
  }

(* The server's default caps: 50M ticks, 10 s. *)
let budget () = Budget.create ~fuel:50_000_000 ~timeout_ms:10_000 ()

(* ---------------- the evaluation mirror ---------------- *)

let plan_for t key =
  match QueryMap.find_opt key t.plans with
  | Some p ->
      t.plan_hits <- t.plan_hits + 1;
      p
  | None ->
      t.plan_misses <- t.plan_misses + 1;
      span "plan.choose" (fun () ->
          let choice = Decomp.choose key in
          Decomp.record_choice choice;
          let p =
            match choice with
            | Decomp.Dp tree -> Dp tree
            | Decomp.Wcoj w -> Leapfrog w
            | Decomp.Ghd g -> Hyper g
            | Decomp.Backtrack -> Search (Plan.compile key)
          in
          t.plans <- QueryMap.add key p t.plans;
          p)

let kernel ~budget p d =
  match p with
  | Dp tree -> span "kernel.dp" (fun () -> Decomp.count_tree ~budget tree d)
  | Leapfrog w -> span "kernel.wcoj" (fun () -> Wcoj.count ~budget w d)
  | Hyper g -> span "kernel.ghd" (fun () -> Ghd.count ~budget g d)
  | Search p ->
      span "kernel.backtrack" (fun () -> Nat.of_int (Solver.count_plan ~budget p d))

(* [Eval.count ~cache] with a span at each layer boundary.  The index is
   fetched when evaluation moves to another structure, the same point
   where the count memo is flushed, so a build is timed on its own. *)
let count t ~budget q d =
  (match t.counts_for with
  | Some d' when d' == d -> ()
  | _ ->
      t.counts <- QueryMap.empty;
      t.counts_for <- Some d;
      span "index.build" (fun () -> ignore (Index.get d)));
  let comps = span "plan.factor" (fun () -> Decomp.factor q) in
  let rec go acc = function
    | [] -> acc
    | (comp, mult) :: rest ->
        let c =
          match QueryMap.find_opt comp t.counts with
          | Some c ->
              t.count_hits <- t.count_hits + 1;
              c
          | None ->
              t.count_misses <- t.count_misses + 1;
              let c = kernel ~budget (plan_for t comp) d in
              t.counts <- QueryMap.add comp c t.counts;
              c
        in
        if Nat.is_zero c then Nat.zero
        else
          go
            (span "bignum.combine" (fun () ->
                 Nat.mul acc (if mult = 1 then c else Nat.pow c mult)))
            rest
  in
  go Nat.one comps

(* ---------------- request dispatch (mirrors Router) ---------------- *)

let exhausted (req : Proto.request) ~op budget reason =
  Proto.error_body ?id:req.Proto.id ~op ~kind:(Proto.Exhausted reason)
    ~budget:(Budget.snapshot budget) ""

let memoised t (req : Proto.request) ~key ~compute =
  match Cache.find_result t.cache key with
  | Some core -> Proto.attach ?id:req.Proto.id ~cached:true core
  | None -> (
      match compute () with
      | Ok core ->
          Cache.store_result t.cache key core;
          Proto.attach ?id:req.Proto.id ~cached:false core
      | Error response -> response)

let spend t budget response =
  t.ticks <- t.ticks + Budget.ticks budget;
  response

let eval t (req : Proto.request) ~query ~d ~key =
  let budget = budget () in
  spend t budget
  @@ memoised t req ~key ~compute:(fun () ->
         match
           Outcome.guard ~partial:(fun () -> ()) (fun () -> count t ~budget query d)
         with
         | Outcome.Complete n ->
             t.result_bits <- t.result_bits + Nat.num_bits n;
             Ok
               (span "bignum.print" (fun () ->
                    Proto.eval_core ~count:n ~satisfied:(not (Nat.is_zero n))
                      ~ticks:(Budget.ticks budget)))
         | Outcome.Exhausted ((), reason) -> Error (exhausted req ~op:"eval" budget reason))

let store_reply ?budget t (req : Proto.request) ~op ~core reply =
  let response =
    match reply with
    | Store.Done v -> Proto.attach ?id:req.Proto.id ~cached:false (core v)
    | Store.Rejected msg ->
        Proto.error_body ?id:req.Proto.id ~op ~kind:Proto.Bad_request msg
    | Store.Exhausted reason ->
        Proto.error_body ?id:req.Proto.id ~op ~kind:(Proto.Exhausted reason) ""
  in
  match budget with Some b -> spend t b response | None -> response

let dispatch t (req : Proto.request) =
  match req.Proto.op with
  | Proto.Eval { query; db = Proto.Db_inline d } ->
      let d = span "server.intern" (fun () -> Cache.intern_db t.cache d) in
      let key = span "server.cache_key" (fun () -> Proto.cache_key req) in
      eval t req ~query ~d ~key
  | Proto.Eval { query; db = Proto.Db_named name } -> (
      match Store.snapshot t.store ~name with
      | Store.Done (d, version) ->
          let key =
            span "server.cache_key" (fun () ->
                Printf.sprintf "%s#v%d" (Proto.cache_key req) version)
          in
          eval t req ~query ~d ~key
      | _ -> Proto.error_response ?id:req.Proto.id ("no database " ^ name))
  | Proto.Db_create { name; db } ->
      store_reply t req ~op:"db_create"
        ~core:(fun atoms -> Proto.db_create_core ~atoms)
        (Store.db_create t.store ~name db)
  | Proto.Db_insert { name; fact = sym, tup } | Proto.Db_delete { name; fact = sym, tup }
    ->
      let add = match req.Proto.op with Proto.Db_insert _ -> true | _ -> false in
      let op = if add then "db_insert" else "db_delete" in
      let budget = budget () in
      span "store.delta" (fun () ->
          (if add then Store.db_insert else Store.db_delete)
            ~budget t.store ~name sym tup)
      |> store_reply ~budget t req ~op ~core:(fun (m : Store.mutation) ->
             Proto.mutation_core ~op ~atoms:m.Store.atoms
               ~registrations:m.Store.registrations ~maintained:m.Store.maintained
               ~recomputed:m.Store.recomputed ~stale:m.Store.stale
               ~ticks:(Budget.ticks budget))
  | Proto.Register { name; query } ->
      let budget = budget () in
      span "store.register" (fun () -> Store.register ~budget t.store ~name query)
      |> store_reply ~budget t req ~op:"register" ~core:(fun (i : Store.reg_info) ->
             Proto.register_core ~count:i.Store.reg_count
               ~components:i.Store.reg_components ~maintained:i.Store.reg_maintained
               ~ticks:(Budget.ticks budget))
  | Proto.Counts { name } ->
      let budget = budget () in
      span "store.counts" (fun () -> Store.counts ~budget t.store ~name)
      |> store_reply ~budget t req ~op:"counts" ~core:(fun rows ->
             List.iter
               (fun (r : Store.count_row) ->
                 t.result_bits <- t.result_bits + Nat.num_bits r.Store.cr_count)
               rows;
             Proto.counts_core
               ~rows:
                 (List.map
                    (fun (r : Store.count_row) ->
                      Proto.count_row_json ~query:r.Store.cr_query ~count:r.Store.cr_count
                        ~maintained:r.Store.cr_maintained)
                    rows)
               ~ticks:(Budget.ticks budget))
  | Proto.Hunt { small; big; samples; exhaustive_size; seed } ->
      let budget = budget () in
      let strategy =
        {
          Hunt.exhaustive_max_size = exhaustive_size;
          Hunt.sampler = { Sampler.default with Sampler.samples; Sampler.seed };
        }
      in
      let key = span "server.cache_key" (fun () -> Proto.cache_key req) in
      spend t budget
      @@ memoised t req ~key ~compute:(fun () ->
             match
               span "search.hunt" (fun () ->
                   Hunt.counterexample_guarded ~strategy ~jobs:1 ~budget ~small ~big ())
             with
             | Outcome.Complete (report, progress) ->
                 t.databases_tested <- t.databases_tested + progress.Hunt.databases_tested;
                 let witness =
                   Option.map
                     (fun d ->
                       let cs, cb = Containment.bag_counts ~small ~big d in
                       (d, cs, cb))
                     report.Hunt.witness
                 in
                 Ok
                   (Proto.hunt_core ~witness
                      ~exhaustive_complete:report.Hunt.exhaustive_complete
                      ~tested_random:report.Hunt.tested_random
                      ~ticks:progress.Hunt.ticks_spent ())
             | Outcome.Exhausted (_, reason) -> Error (exhausted req ~op:"hunt" budget reason))
  | _ -> Proto.error_response ?id:req.Proto.id "op not replayed"

let handle t line =
  span "req" (fun () ->
      let response =
        match span "wire.parse" (fun () -> Json.parse line) with
        | Error e -> Proto.error_response e
        | Ok j -> (
            match span "wire.decode" (fun () -> Proto.decode j) with
            | Error e -> Proto.error_response e
            | Ok req -> dispatch t req)
      in
      if Proto.status response <> Some "ok" then t.failed <- t.failed + 1;
      span "wire.encode" (fun () -> Json.to_string response))

(* ---------------- running and folding ---------------- *)

type result = {
  self_ms : (string * float) list;  (* summed self time per span name *)
  request_ms : float;  (* summed duration of the root [req] spans *)
  global : (string * int) list;  (* Metrics.global counter deltas *)
  store_counters : (string * int) list;  (* store_* counter deltas *)
  cache_before : Cache.stats;
  cache_after : Cache.stats;
  state : t;  (* its tallies cover the timed requests only *)
  register_ms : float;  (* mean self time of a set-up registration *)
  setup_failed : int;
  responses : string array;
}

let counter_rows m =
  List.filter_map
    (fun (r : Metrics.row) ->
      match r.Metrics.value with
      | Metrics.Counter_v v when r.Metrics.labels = [] -> Some (r.Metrics.name, v)
      | _ -> None)
    (Metrics.rows m)

let delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

let self_times records =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.parent_id with
      | Some p ->
          Hashtbl.replace children p
            (r.Trace.dur_ms +. Option.value ~default:0. (Hashtbl.find_opt children p))
      | None -> ())
    records;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (r : Trace.record) ->
      let self =
        r.Trace.dur_ms
        -. Option.value ~default:0. (Hashtbl.find_opt children r.Trace.span_id)
      in
      Hashtbl.replace by_name r.Trace.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name r.Trace.name)))
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []

let run (script : Workload.t) =
  let t = create () in
  (* Only registrations are read from the set-up's spans: no timed
     request registers, so their cost is reported per call. *)
  let setup_sink, setup_drain = Trace.memory_sink () in
  Trace.set_sink (Some setup_sink);
  List.iter (fun line -> ignore (handle t line)) (script.Workload.fixtures @ script.Workload.warmup);
  Trace.set_sink None;
  let setup_records = setup_drain () in
  let registrations =
    List.length (List.filter (fun (r : Trace.record) -> r.Trace.name = "store.register") setup_records)
  in
  let register_ms =
    if registrations = 0 then 0.
    else
      Option.value ~default:0. (List.assoc_opt "store.register" (self_times setup_records))
      /. float_of_int registrations
  in
  let setup_failed = t.failed in
  t.failed <- 0;
  t.plan_hits <- 0;
  t.plan_misses <- 0;
  t.count_hits <- 0;
  t.count_misses <- 0;
  t.ticks <- 0;
  t.result_bits <- 0;
  t.databases_tested <- 0;
  let g0 = counter_rows Metrics.global and s0 = counter_rows t.store_metrics in
  let cache_before = Cache.stats t.cache in
  let sink, drain = Trace.memory_sink () in
  Trace.set_sink (Some sink);
  let responses = Array.map (fun line -> handle t line) script.Workload.timed in
  Trace.set_sink None;
  let records = drain () in
  let request_ms =
    List.fold_left
      (fun acc (r : Trace.record) -> if r.Trace.name = "req" then acc +. r.Trace.dur_ms else acc)
      0. records
  in
  {
    self_ms = self_times records;
    request_ms;
    global = delta g0 (counter_rows Metrics.global);
    store_counters = delta s0 (counter_rows t.store_metrics);
    cache_before;
    cache_after = Cache.stats t.cache;
    state = t;
    register_ms;
    setup_failed;
    responses;
  }
