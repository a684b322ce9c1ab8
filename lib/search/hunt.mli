(** Combined counterexample hunting: exhaustive on tiny domains, then
    randomised — the practical front end behind [serve]'s [hunt] and
    [ucq_hunt] ops (and so the CLI) and the examples.

    Bag containment is undecidable, so this search is a permanent
    semi-decision loop; the guarded entry point bounds it with a
    {!Bagcq_guard.Budget.t} and degrades gracefully into best-so-far
    statistics instead of hanging. *)

open Bagcq_relational
open Bagcq_cq

type strategy = {
  exhaustive_max_size : int;
      (** try every database up to this domain size, up to isomorphism,
          first (0 disables); truncated automatically to the largest size
          whose potential-atom count fits under the {!Dbspace} cap *)
  sampler : Sampler.config;
}

val default : strategy

type report = {
  witness : Structure.t option;
  counts : (Bagcq_bignum.Nat.t * Bagcq_bignum.Nat.t) option;
      (** [Some (small(D), big(D))] for the [witness] [D], counted exactly
          once by the re-check below; [None] with no witness.  Front ends
          report these counts instead of recounting the witness. *)
  exhaustive_complete : bool;
      (** the exhaustive phase ran to completion — so if [witness] is
          [None], no counterexample exists up to [exhaustive_max_size] *)
  tested_random : int;
  unverified : Structure.t option;
      (** a candidate either phase reported as violating but exact
          re-verification rejected.  This cannot happen unless the engine
          is inconsistent; it is surfaced here (instead of being silently
          dropped) so tests and callers can fail loudly on it — [serve],
          and so the CLI, answer it as an [internal] error naming the
          database. *)
}

type progress = {
  databases_tested : int;
      (** exhaustive candidates plus random samples.  The exhaustive phase
          tests one database per isomorphism class ({!Dbspace}): 2 + 8 +
          94 on E/2 up to size 3, not the 530 labelled ones.  Random
          samples are all counted, isomorphic or not. *)
  ticks_spent : int;  (** budget ticks consumed across all phases *)
  largest_size_completed : int;
      (** every database up to this domain size was exhaustively tested *)
}

val counterexample :
  ?strategy:strategy -> ?jobs:int -> small:Query.t -> big:Query.t -> unit -> report
(** Hunt for [small(D) > big(D)] without a budget (runs to completion; may
    effectively diverge on adversarial inputs — prefer
    {!counterexample_guarded}).

    [small] and [big] are prepared once per hunt ({!Bagcq_hom.Eval.prepare}:
    factored, and each component planned) before the first candidate, so
    a candidate costs only its enumeration, its index build and the
    counting kernels.  The witness, from either phase, is re-checked
    before being returned: {!Bagcq_reduction.Containment.bag_counts}
    counts it once, exactly, with no budget and no cache, and those
    counts become [report.counts].  A candidate whose exact counts do not
    violate is reported as [unverified] instead. *)

val counterexample_guarded :
  ?strategy:strategy ->
  ?jobs:int ->
  budget:Bagcq_guard.Budget.t ->
  small:Query.t ->
  big:Query.t ->
  unit ->
  (report * progress, report * progress) Bagcq_guard.Outcome.t
(** Budgeted hunt.  [Complete (report, progress)] is bit-for-bit the report
    the unguarded {!counterexample} produces; [Exhausted ((report,
    progress), reason)] carries everything learned before the budget
    tripped: databases tested, ticks spent, the largest domain size whose
    exhaustive sweep finished, and any witness found (which always
    re-verifies).

    Every hunt runs the same two phases, {!Dbspace.find_guarded}
    then {!Sampler.sample_batches_guarded}, over [jobs] worker domains
    (default 1).  [?jobs] sets only the worker count: the candidates, in
    order, and the witness (the lowest-index one) are the same for every
    [n], and omitting it is [~jobs:1].  At one job [budget]
    is ticked directly; otherwise each worker draws on a shard of it,
    summed back into [budget], and exhaustion in any shard stops the hunt.
    The queries are prepared once, on the calling domain, through that
    domain's long-lived evaluation cache (so plans stay warm across hunts),
    and the prepared value is shared with the workers; each worker counts
    through its own cache.  [exhaustive_complete] holds iff the swept size
    equals the requested [exhaustive_max_size] (so a requested size of 0
    is complete). *)

val ucq_counterexample :
  ?strategy:strategy -> ?jobs:int -> small:Ucq.t -> big:Ucq.t -> unit -> report
(** {!counterexample} for UCQ pairs: hunts for a database where the summed
    disjunct counts of [small] exceed those of [big] — one instance of the
    {e undecidable} [QCP^bag_UCQ].  Same two phases, same sampler; every
    disjunct is prepared once per hunt through one cache, so components
    appearing in several disjuncts plan once and count once per
    candidate.  Witnesses are re-checked by
    {!Bagcq_reduction.Containment.ucq_bag_counts} with no budget and no
    cache, which also yields [report.counts]. *)

val ucq_counterexample_guarded :
  ?strategy:strategy ->
  ?jobs:int ->
  budget:Bagcq_guard.Budget.t ->
  small:Ucq.t ->
  big:Ucq.t ->
  unit ->
  (report * progress, report * progress) Bagcq_guard.Outcome.t
(** Budgeted UCQ hunt, mirroring {!counterexample_guarded}: the same
    driver and, for the same strategy, the same candidates.  Recorded
    under the [ucq_hunt_*] metric family on top of the shared
    [hunt_candidates_tested] / [hunt_ticks_spent] / [hunt_exhausted]
    cells. *)

val feasible_size : Schema.t -> int -> int
(** [feasible_size schema requested] — the largest domain size [≤
    requested] whose potential-atom space fits under
    {!Dbspace.max_potential_atoms} (0 if none). *)
