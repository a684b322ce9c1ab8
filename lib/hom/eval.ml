open Bagcq_bignum
open Bagcq_cq

module QueryMap = Map.Make (Query)

(* The evaluation cache.  [plans] maps a canonical component to the
   strategy [Decomp.choose] picked on first encounter and is never
   invalidated (strategies depend only on the query); [counts] memoises
   per-component counts against [counts_for], compared by physical
   identity — a hunt switches structures thousands of times, and
   re-keying on the structure pointer makes the table a cheap per-database
   memo that still amortises across repeated components (∧̄ / ↑ powers).
   Without a caller-supplied cache every [count] call gets a fresh one, so
   the memoisation scope is exactly the seed behaviour. *)
type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  count_hits : int;
  count_misses : int;
}

module Metrics = Bagcq_obs.Metrics

(* The hit/miss tallies are Obs counters rather than mutable ints: the
   values are identical (each cache serves one domain, so counting was
   never racy), but a holder can register them into a metrics registry
   ([cache_counters]) and the server's stats view reads the same cells
   the metrics dump does.  Fresh counters are registry-less on purpose —
   hunts allocate one cache per worker and those must not leak into a
   process-wide dump. *)
type cache = {
  plans : Decomp.strategy QueryMap.t ref;
  counts : Nat.t QueryMap.t ref;
  mutable counts_for : Bagcq_relational.Structure.t option;
  plan_hits : Metrics.counter;
  plan_misses : Metrics.counter;
  count_hits : Metrics.counter;
  count_misses : Metrics.counter;
}

let create_cache () =
  {
    plans = ref QueryMap.empty;
    counts = ref QueryMap.empty;
    counts_for = None;
    plan_hits = Metrics.fresh_counter ();
    plan_misses = Metrics.fresh_counter ();
    count_hits = Metrics.fresh_counter ();
    count_misses = Metrics.fresh_counter ();
  }

let cache_stats c =
  {
    plan_hits = Metrics.counter_value c.plan_hits;
    plan_misses = Metrics.counter_value c.plan_misses;
    count_hits = Metrics.counter_value c.count_hits;
    count_misses = Metrics.counter_value c.count_misses;
  }

let cache_counters c =
  [
    ("plan_hits", c.plan_hits);
    ("plan_misses", c.plan_misses);
    ("count_hits", c.count_hits);
    ("count_misses", c.count_misses);
  ]

let plan_for cache key =
  match QueryMap.find_opt key !(cache.plans) with
  | Some p ->
      Metrics.incr cache.plan_hits;
      p
  | None ->
      Metrics.incr cache.plan_misses;
      let p = Decomp.choose key in
      (* cold plan: this is the one site where the plan_* selection
         counters advance, so they track plan-cache misses exactly *)
      Decomp.record_choice p;
      cache.plans := QueryMap.add key p !(cache.plans);
      p

let sync_structure cache d =
  match cache.counts_for with
  | Some d' when d' == d -> ()
  | _ ->
      cache.counts := QueryMap.empty;
      cache.counts_for <- Some d

let with_cache cache d =
  match cache with
  | Some c ->
      sync_structure c d;
      c
  | None -> create_cache ()

(* One memoised count per canonical component ([Decomp.factor] already
   canonicalised the key), run by the shared component executor. *)
let count_memo ?budget cache key d =
  match QueryMap.find_opt key !(cache.counts) with
  | Some c ->
      Metrics.incr cache.count_hits;
      c
  | None ->
      Metrics.incr cache.count_misses;
      let c = Decomp.count ?budget (plan_for cache key) key d in
      cache.counts := QueryMap.add key c !(cache.counts);
      c

(* Repeated components — the ↑/∧̄ powers — are counted once and raised to
   their multiplicity: the factorised form of Lemma 1. *)
let count ?budget ?cache q d =
  let cache = with_cache cache d in
  let rec go acc = function
    | [] -> acc
    | (comp, mult) :: rest ->
        let c = count_memo ?budget cache comp d in
        if Nat.is_zero c then Nat.zero
        else
          let c = if mult = 1 then c else Nat.pow c mult in
          go (Nat.mul acc c) rest
  in
  go Nat.one (Decomp.factor q)

let count_int ?budget ?cache q d = Nat.to_int (count ?budget ?cache q d)

(* Satisfied iff every component counts non-zero. *)
let satisfies ?budget ?cache d q =
  let cache = with_cache cache d in
  List.for_all
    (fun (comp, _mult) -> not (Nat.is_zero (count_memo ?budget cache comp d)))
    (Decomp.factor q)

let count_pquery_factored ?budget ?cache pq d =
  List.map (fun (q, e) -> (count ?budget ?cache q d, e)) (Pquery.factors pq)

let count_pquery ?budget ?cache pq d =
  List.fold_left
    (fun acc (base, e) -> Nat.mul acc (Nat.pow_nat base e))
    Nat.one
    (count_pquery_factored ?budget ?cache pq d)

let pquery_geq ?budget ?cache pq d bound =
  if Nat.is_zero bound then true
  else begin
    let factored =
      List.filter (fun (_, e) -> not (Nat.is_zero e))
        (count_pquery_factored ?budget ?cache pq d)
    in
    if List.exists (fun (base, _) -> Nat.is_zero base) factored then false
    else begin
      (* b ≥ 2^{bits(b)−1}, so the product is at least 2^S with
         S = Σ e·(bits(b)−1); factors with base 1 contribute nothing. *)
      let s =
        List.fold_left
          (fun acc (base, e) ->
            Nat.add acc (Nat.mul e (Nat.of_int (Nat.num_bits base - 1))))
          Nat.zero factored
      in
      if Nat.compare s (Nat.of_int (Nat.num_bits bound)) >= 0 then true
      else begin
        (* S is small, hence every exponent of a base ≥ 2 factor is small:
           materialise exactly. *)
        let product =
          List.fold_left
            (fun acc (base, e) ->
              if Nat.equal base Nat.one then acc else Nat.mul acc (Nat.pow_nat base e))
            Nat.one factored
        in
        Nat.compare product bound >= 0
      end
    end
  end

let satisfies_pquery ?budget ?cache d pq =
  List.for_all
    (fun (q, e) -> Nat.is_zero e || satisfies ?budget ?cache d q)
    (Pquery.factors pq)

let count_ucq ?budget ?cache u d =
  List.fold_left
    (fun acc q -> Nat.add acc (count ?budget ?cache q d))
    Nat.zero (Ucq.disjuncts u)

let ucq_contained_on ?budget ?cache ~small ~big d =
  Nat.compare (count_ucq ?budget ?cache small d) (count_ucq ?budget ?cache big d) <= 0
