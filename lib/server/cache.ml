module Eval = Bagcq_hom.Eval
module Json = Bagcq_wire.Json
module Metrics = Bagcq_obs.Metrics
module Encode = Bagcq_relational.Encode
module Structure = Bagcq_relational.Structure

(* A table value stamped with the clock tick of its last use. *)
type 'a slot = { value : 'a; mutable gen : int }

(* [db_name] is the named database the request read, if any: the tag
   [evict_db] matches on. *)
type memo = { fields : (string * Json.t) list; db_name : string option }

type t = {
  mutex : Mutex.t;
  eval_cache : Eval.cache;
  results : (string, memo slot) Hashtbl.t;
  mutable clock : int;
  structures : (string, Structure.t slot) Hashtbl.t;
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
    structures = Hashtbl.create 16;
    result_hits;
    result_misses;
    result_evicted;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let with_eval t f = locked t (fun () -> f t.eval_cache)

let touch t slot =
  t.clock <- t.clock + 1;
  slot.gen <- t.clock

(* Insert a fresh slot.  Both tables hold at most [max_results] slots:
   past the cap, the least-recently-used slot goes first, found by linear
   scan.  O(slots) only on the eviction path, which fires once per insert
   past the cap — the find/hit path stays O(1).  At the default cap the
   scan is microseconds; a generation heap would buy nothing measurable.
   Returns whether a slot was dropped. *)
let add t tbl key value =
  let evicted =
    Hashtbl.length tbl >= max_results
    &&
    match
      Hashtbl.fold
        (fun key s acc ->
          match acc with
          | Some (_, g) when g <= s.gen -> acc
          | _ -> Some (key, s.gen))
        tbl None
    with
    | Some (key, _) ->
        Hashtbl.remove tbl key;
        true
    | None -> false
  in
  t.clock <- t.clock + 1;
  Hashtbl.add tbl key { value; gen = t.clock };
  evicted

(* [Proto] decodes every request's database text into a fresh
   [Structure.t], and everything the evaluator memoises on a structure —
   the columnar index in its memo slot, [Eval]'s per-structure count
   memo — keys on physical identity.  Interning by canonical re-encoding
   makes repeated requests against the same database share one physical
   structure, so those memos actually hit across requests. *)
let intern_db t d =
  let key = Encode.to_string d in
  locked t (fun () ->
      match Hashtbl.find_opt t.structures key with
      | Some s ->
          touch t s;
          s.value
      | None ->
          ignore (add t t.structures key d);
          d)

let find_result t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.results key with
      | Some s ->
          touch t s;
          Metrics.incr t.result_hits;
          Some s.value.fields
      | None ->
          Metrics.incr t.result_misses;
          None)

let store_result ?db_name t key fields =
  locked t (fun () ->
      if not (Hashtbl.mem t.results key) then begin
        if add t t.results key { fields; db_name } then
          Metrics.incr t.result_evicted
      end)

let evict_db t ~name =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun key s acc ->
            match s.value.db_name with
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
