open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

module StringMap = Map.Make (String)

(* The count memo's key: a plan's id and the values its parameter slots
   were bound to.  One plan's keys all have its slot count. *)
module Memo = Map.Make (struct
  type t = int * Value.t array

  let compare (i, a) (j, b) =
    match Int.compare i j with
    | 0 ->
        let rec go k =
          if k = Array.length a then 0
          else match Value.compare a.(k) b.(k) with 0 -> go (k + 1) | c -> c
        in
        go 0
    | c -> c
end)

(* The evaluation cache.  [plans] maps a component's shape (its canonical
   form with each constant a parameter slot) to the plan [Decomp.choose]
   picked for the first component of that shape, and is never
   invalidated: strategies depend only on the shape, so the map does not
   grow with every new constant.  [counts] memoises per-plan counts,
   keyed by the plan's id and its parameter values, against [counts_for],
   compared by physical identity — a hunt switches structures thousands
   of times, and re-keying on the structure pointer makes the table a
   cheap per-database memo that still amortises across repeated
   components (∧̄ / ↑ powers, UCQ disjuncts).  A prepared query carries
   its plans, so counting it compares ints and values, never queries.
   Without a caller-supplied cache every [count] call gets a fresh one,
   so the memoisation scope is exactly the seed behaviour. *)
type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  count_hits : int;
  count_misses : int;
}

module Metrics = Bagcq_obs.Metrics

(* A plan's id is drawn once, when the plan enters some cache's plan map,
   from one process-wide sequence: equal ids mean the same shape and
   strategy whichever cache prepared them, so a query prepared through one
   cache can be counted through another (a hunt prepares on the calling
   domain and counts on its workers) without two shapes ever sharing a
   memo slot.  [comp] is the component the plan was compiled from. *)
type plan = { id : int; strategy : Decomp.strategy; comp : Query.t }

(* Per component: its plan, its own constants by slot, its multiplicity. *)
type prepared = (plan * string array * int) list

let next_plan_id = Atomic.make 0

(* The hit/miss tallies are Obs counters rather than mutable ints: the
   values are identical (each cache serves one domain, so counting was
   never racy), but a holder can register them into a metrics registry
   ([cache_counters]) and the server's stats view reads the same cells
   the metrics dump does.  Fresh counters are registry-less on purpose —
   hunts allocate one cache per worker and those must not leak into a
   process-wide dump. *)
type cache = {
  mutable plans : plan StringMap.t;
  mutable counts : Nat.t Memo.t;
  mutable counts_for : Bagcq_relational.Structure.t option;
  plan_hits : Metrics.counter;
  plan_misses : Metrics.counter;
  count_hits : Metrics.counter;
  count_misses : Metrics.counter;
}

let create_cache () =
  {
    plans = StringMap.empty;
    counts = Memo.empty;
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

let plan_for cache (c : Decomp.component) =
  match StringMap.find_opt c.shape cache.plans with
  | Some p ->
      Metrics.incr cache.plan_hits;
      p
  | None ->
      Metrics.incr cache.plan_misses;
      let strategy = Decomp.choose c.query in
      (* cold plan: this is the one site where the plan_* selection
         counters advance, so they track plan-cache misses exactly *)
      Decomp.record_choice strategy;
      let p = { id = Atomic.fetch_and_add next_plan_id 1; strategy; comp = c.query } in
      cache.plans <- StringMap.add c.shape p cache.plans;
      p

let or_fresh = function Some c -> c | None -> create_cache ()

let prepare ?cache q =
  let cache = or_fresh cache in
  List.map
    (fun (c : Decomp.component) -> (plan_for cache c, c.constants, c.mult))
    (Decomp.components q)

let sync_structure cache d =
  match cache.counts_for with
  | Some d' when d' == d -> ()
  | _ ->
      cache.counts <- Memo.empty;
      cache.counts_for <- Some d

(* One memoised count per plan and parameter vector, run by the shared
   component executor.  The parameters are the component's constants as
   [d] interprets them; an uninterpreted one answers zero before the
   memo or any kernel is reached. *)
let count_memo ?budget cache plan constants d =
  let values = Array.map (Structure.interpretation d) constants in
  if Array.exists Option.is_none values then Nat.zero
  else
    let params = Array.map Option.get values in
    let key = (plan.id, params) in
    match Memo.find_opt key cache.counts with
    | Some c ->
        Metrics.incr cache.count_hits;
        c
    | None ->
        Metrics.incr cache.count_misses;
        let c = Decomp.count ?budget ~params plan.strategy plan.comp d in
        cache.counts <- Memo.add key c cache.counts;
        c

(* Repeated components — the ↑/∧̄ powers — are counted once and raised to
   their multiplicity: the factorised form of Lemma 1. *)
let count_prepared ?budget ?cache p d =
  let cache = or_fresh cache in
  sync_structure cache d;
  let rec go acc = function
    | [] -> acc
    | (plan, constants, mult) :: rest ->
        let c = count_memo ?budget cache plan constants d in
        if Nat.is_zero c then Nat.zero
        else
          let c = if mult = 1 then c else Nat.pow c mult in
          go (Nat.mul acc c) rest
  in
  go Nat.one p

let count ?budget ?cache q d =
  let cache = or_fresh cache in
  count_prepared ?budget ~cache (prepare ~cache q) d

(* Satisfied iff every component counts non-zero. *)
let satisfies ?budget ?cache d q =
  let cache = or_fresh cache in
  let p = prepare ~cache q in
  sync_structure cache d;
  List.for_all
    (fun (plan, constants, _mult) ->
      not (Nat.is_zero (count_memo ?budget cache plan constants d)))
    p

(* Per-factor [(θᵢ(D), eᵢ)] pairs — the symbolic form of a power-product
   count, never materialised. *)
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

let count_ucq ?budget ?cache u d =
  List.fold_left
    (fun acc q -> Nat.add acc (count ?budget ?cache q d))
    Nat.zero (Ucq.disjuncts u)

let ucq_contained_on ?budget ?cache ~small ~big d =
  Nat.compare (count_ucq ?budget ?cache small d) (count_ucq ?budget ?cache big d) <= 0
