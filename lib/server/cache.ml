module Eval = Bagcq_hom.Eval
module Json = Bagcq_wire.Json
module Metrics = Bagcq_obs.Metrics

(* A memoised response: its core fields, the named database the request
   read, if any (the tag [evict_db] matches on), and the clock tick of its
   last use. *)
type memo = {
  fields : (string * Json.t) list;
  db_name : string option;
  mutable gen : int;
}

type t = {
  mutex : Mutex.t;
  eval_cache : Eval.cache;
  results : (string, memo) Hashtbl.t;
  mutable clock : int;
  result_hits : Metrics.counter;
  result_misses : Metrics.counter;
  result_evicted : Metrics.counter;
}

let max_results = 1024

(* The hit/miss tallies live on Obs counters so one set of cells feeds
   both the [stats] compat view and a metrics dump.  [?metrics] names
   them (and the shared eval cache's counters) in a registry at creation
   time; recording never touches the registry. *)
let create ?metrics () =
  let eval_cache = Eval.create_cache () in
  let result_hits = Metrics.fresh_counter () in
  let result_misses = Metrics.fresh_counter () in
  let result_evicted = Metrics.fresh_counter () in
  (match metrics with
  | None -> ()
  | Some reg ->
      Metrics.register_counter reg "cache_result_hits" result_hits;
      Metrics.register_counter reg "cache_result_misses" result_misses;
      Metrics.register_counter reg "server_cache_evicted" result_evicted;
      List.iter
        (fun (name, c) -> Metrics.register_counter reg ("cache_" ^ name) c)
        (Eval.cache_counters eval_cache));
  {
    mutex = Mutex.create ();
    eval_cache;
    results = Hashtbl.create 64;
    clock = 0;
    result_hits;
    result_misses;
    result_evicted;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let with_eval t f = locked t (fun () -> f t.eval_cache)

let intern_db _ d = d

let find_result t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.results key with
      | Some m ->
          t.clock <- t.clock + 1;
          m.gen <- t.clock;
          Metrics.incr t.result_hits;
          Some m.fields
      | None ->
          Metrics.incr t.result_misses;
          None)

(* Past [max_results] entries, the least-recently-used one goes first,
   found by linear scan.  O(entries) only on the eviction path, which
   fires once per insert past the cap — the find/hit path stays O(1).  At
   the default cap the scan is microseconds; a generation heap would buy
   nothing measurable. *)
let store_result ?db_name t key fields =
  locked t (fun () ->
      if not (Hashtbl.mem t.results key) then begin
        if Hashtbl.length t.results >= max_results then begin
          match
            Hashtbl.fold
              (fun key m acc ->
                match acc with
                | Some (_, g) when g <= m.gen -> acc
                | _ -> Some (key, m.gen))
              t.results None
          with
          | Some (victim, _) ->
              Hashtbl.remove t.results victim;
              Metrics.incr t.result_evicted
          | None -> ()
        end;
        t.clock <- t.clock + 1;
        Hashtbl.add t.results key { fields; db_name; gen = t.clock }
      end)

let evict_db t ~name =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun key m acc ->
            match m.db_name with
            | Some n when String.equal n name -> key :: acc
            | _ -> acc)
          t.results []
      in
      List.iter
        (fun key ->
          Hashtbl.remove t.results key;
          Metrics.incr t.result_evicted)
        doomed;
      List.length doomed)

type stats = {
  result_hits : int;
  result_misses : int;
  result_entries : int;
  result_evicted : int;
  plan_hits : int;
  plan_misses : int;
  count_hits : int;
  count_misses : int;
}

let stats t =
  locked t (fun () ->
      let e = Eval.cache_stats t.eval_cache in
      {
        result_hits = Metrics.counter_value t.result_hits;
        result_misses = Metrics.counter_value t.result_misses;
        result_entries = Hashtbl.length t.results;
        result_evicted = Metrics.counter_value t.result_evicted;
        plan_hits = e.Eval.plan_hits;
        plan_misses = e.Eval.plan_misses;
        count_hits = e.Eval.count_hits;
        count_misses = e.Eval.count_misses;
      })
