open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Containment = Bagcq_reduction.Containment
module Eval = Bagcq_hom.Eval
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome

type strategy = {
  exhaustive_max_size : int;
  sampler : Sampler.config;
}

let default = { exhaustive_max_size = 2; sampler = Sampler.default }

type report = {
  witness : Structure.t option;
  counts : (Nat.t * Nat.t) option;
  exhaustive_complete : bool;
  tested_random : int;
  unverified : Structure.t option;
}

type progress = {
  databases_tested : int;
  ticks_spent : int;
  largest_size_completed : int;
}

(* Both hunt flavours — CQ pairs and UCQ pairs — run the same two phases
   (exhaustive sweep over tiny domains, then randomised sampling); only the
   schema and the counted queries differ, so the phases are written
   against this record.  A CQ is a union of one disjunct.  [counts] is
   the exact recount of a returned witness: unprepared, unbudgeted,
   uncached. *)
type target = {
  schema : Schema.t;
  small : Query.t list;
  big : Query.t list;
  counts : Structure.t -> Nat.t * Nat.t;
}

let cq_target ~small ~big =
  {
    schema = Sampler.schema_of_pair small big;
    small = [ small ];
    big = [ big ];
    counts = Containment.bag_counts ~small ~big;
  }

let ucq_target ~small ~big =
  {
    schema = Schema.union (Ucq.schema small) (Ucq.schema big);
    small = Ucq.disjuncts small;
    big = Ucq.disjuncts big;
    counts = Containment.ucq_bag_counts ~small ~big;
  }

(* The violation test [small(D) > big(D)] over queries prepared once per
   hunt through [cache]'s plan map, so a candidate costs only its kernels.
   [big] is counted first, disjunct by disjunct, then [small]: the order
   [Containment.bag_counts] evaluates its pair in, so the same kernels run
   in the same order as an unprepared check. *)
let prepare target cache =
  let prep = List.map (Eval.prepare ~cache) in
  let small = prep target.small and big = prep target.big in
  let total ~budget ~cache ps d =
    List.fold_left
      (fun acc p -> Nat.add acc (Eval.count_prepared ~budget ~cache p d))
      Nat.zero ps
  in
  fun ~budget ~cache d ->
    let cb = total ~budget ~cache big d in
    Nat.compare (total ~budget ~cache small d) cb > 0

(* Every witness either phase reports is counted once more, exactly:
   the counts are the report's, so no caller recounts.  A candidate the
   prepared path flagged but exact counting rejects is an engine
   inconsistency, surfaced as [unverified], never returned. *)
let settle target = function
  | None -> (None, None, None)
  | Some d -> (
      match target.counts d with
      | cs, cb when Nat.compare cs cb > 0 -> (Some d, Some (cs, cb), None)
      | _ -> (None, None, Some d))

(* Largest domain size whose potential-atom count fits under the Dbspace
   cap, at most the requested size; 0 when even size 1 is infeasible. *)
let feasible_size schema requested =
  let feasible size = Dbspace.count_space schema ~size <= Dbspace.max_potential_atoms in
  let size = ref requested in
  while !size >= 1 && not (feasible !size) do
    decr size
  done;
  Stdlib.max 0 !size

(* One evaluation cache per domain: worker predicates running on spawned
   domains each get their own (counts memoise per structure), with no
   cross-domain sharing to synchronise.  The calling domain's cache also
   holds the plans the hunt prepares, so planning stays warm across
   hunts. *)
let dls_cache : Eval.cache Domain.DLS.key = Domain.DLS.new_key Eval.create_cache

(* The one hunt driver.  Both phases return structured outcomes (shards
   are absorbed inside [Dbspace.find_guarded] and
   [Sampler.sample_batches_guarded]), so no [Exhausted_] unwinds through
   here.  The queries are prepared once, on the calling domain; each
   worker counts them through its own cache.  The exhaustive phase is
   complete iff the swept size is the requested one, also when both are
   0. *)
let hunt_guarded ?(strategy = default) ?(jobs = 1) ~budget ~target () =
  if jobs < 1 then invalid_arg "Hunt.counterexample_guarded: jobs must be >= 1";
  let schema = target.schema in
  let violation = prepare target (Domain.DLS.get dls_cache) in
  let pred ~budget d = violation ~budget ~cache:(Domain.DLS.get dls_cache) d in
  let size = feasible_size schema strategy.exhaustive_max_size in
  let result ~complete ?(random = 0) ?found (stats : Dbspace.stats) =
    let witness, counts, unverified = settle target found in
    ( { witness; counts; exhaustive_complete = complete; tested_random = random; unverified },
      {
        databases_tested = stats.databases_tested + random;
        ticks_spent = Budget.ticks budget;
        largest_size_completed = stats.largest_size_completed;
      } )
  in
  let exhaustive =
    if size >= 1 then Dbspace.find_guarded ~budget ~jobs schema ~max_size:size pred
    else Outcome.Complete (None, { Dbspace.databases_tested = 0; largest_size_completed = 0 })
  in
  let complete = size = strategy.exhaustive_max_size in
  match exhaustive with
  | Outcome.Exhausted (stats, reason) ->
      Outcome.Exhausted (result ~complete:false stats, reason)
  | Outcome.Complete (Some d, stats) -> Outcome.Complete (result ~complete ~found:d stats)
  | Outcome.Complete (None, stats) -> (
      match Sampler.sample_batches_guarded ~budget ~jobs strategy.sampler schema pred with
      | Outcome.Exhausted (o, reason) ->
          Outcome.Exhausted (result ~complete ~random:o.tested stats, reason)
      | Outcome.Complete o ->
          Outcome.Complete (result ~complete ~random:o.tested ?found:o.witness stats))

(* Hunt metrics, recorded once per hunt from the structured outcome —
   the hot loops inside Dbspace/Sampler stay untouched.  Both exhaustion
   reasons register their labeled counter eagerly at module
   initialisation so a metrics dump always shows the full family; the
   ucq_* pair is the per-flavour split on top of the shared family. *)
module Metrics = Bagcq_obs.Metrics

let hunt_runs = Metrics.counter Metrics.global "hunt_runs"
let hunt_candidates = Metrics.counter Metrics.global "hunt_candidates_tested"
let hunt_witnesses = Metrics.counter Metrics.global "hunt_witnesses_found"
let hunt_ticks = Metrics.counter Metrics.global "hunt_ticks_spent"
let ucq_hunt_runs = Metrics.counter Metrics.global "ucq_hunt_runs"
let ucq_hunt_witnesses = Metrics.counter Metrics.global "ucq_hunt_witnesses_found"

let hunt_exhausted_fuel =
  Metrics.counter ~labels:[ ("reason", "fuel") ] Metrics.global "hunt_exhausted"

let hunt_exhausted_deadline =
  Metrics.counter
    ~labels:[ ("reason", "deadline") ]
    Metrics.global "hunt_exhausted"

let record ~runs ~witnesses outcome =
  Metrics.incr runs;
  let report, progress, reason =
    match outcome with
    | Outcome.Complete (report, progress) -> (report, progress, None)
    | Outcome.Exhausted ((report, progress), reason) ->
        (report, progress, Some reason)
  in
  Metrics.add hunt_candidates progress.databases_tested;
  Metrics.add hunt_ticks progress.ticks_spent;
  if report.witness <> None then Metrics.incr witnesses;
  (match reason with
  | Some Budget.Fuel -> Metrics.incr hunt_exhausted_fuel
  | Some Budget.Deadline -> Metrics.incr hunt_exhausted_deadline
  | None -> ());
  outcome

let counterexample_guarded ?strategy ?jobs ~budget ~small ~big () =
  record ~runs:hunt_runs ~witnesses:hunt_witnesses
    (hunt_guarded ?strategy ?jobs ~budget ~target:(cq_target ~small ~big) ())

let ucq_counterexample_guarded ?strategy ?jobs ~budget ~small ~big () =
  record ~runs:ucq_hunt_runs ~witnesses:ucq_hunt_witnesses
    (hunt_guarded ?strategy ?jobs ~budget ~target:(ucq_target ~small ~big) ())

let counterexample ?(strategy = default) ?jobs ~small ~big () =
  let budget = Budget.unlimited () in
  match counterexample_guarded ~strategy ?jobs ~budget ~small ~big () with
  | Outcome.Complete (report, _) -> report
  | Outcome.Exhausted _ -> assert false (* an unlimited budget never trips *)

let ucq_counterexample ?(strategy = default) ?jobs ~small ~big () =
  let budget = Budget.unlimited () in
  match ucq_counterexample_guarded ~strategy ?jobs ~budget ~small ~big () with
  | Outcome.Complete (report, _) -> report
  | Outcome.Exhausted _ -> assert false (* an unlimited budget never trips *)
