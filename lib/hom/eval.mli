(** Bag-semantics query evaluation: [ψ(D) = |Hom(ψ, D)|] (Section 2.1),
    computed exactly as an arbitrary-precision natural.

    Evaluation factorises across the connected components of the query —
    the generalisation of Lemma 1 that keeps the reduction queries (stars
    plus many disjoint cycles) tractable — and across the factors of a
    power-product query, raising component counts to their exponents
    instead of materialising [θ↑k]. *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

type cache
(** An evaluation cache: one execution strategy per canonical component —
    a join-tree dynamic program for acyclic inequality-free components, a
    worst-case-optimal leapfrog plan (with ≠ filters and domain ranks) for
    components with inequalities, the leapfrog or a bounded-width
    hypertree decomposition for cyclic ones, chosen by {!Decomp.choose},
    run by {!Decomp.count} and kept for the cache's lifetime (strategies
    depend only on the query) — plus component
    counts for the most recent structure (invalidated whenever evaluation
    moves to a structure that is not physically the same).  Each plan gets
    an int id when it enters a plan map, unique across the process, and
    the count memo is keyed by that id (an [Int] map, O(log k) per
    lookup), never by the component itself.  Cold plans
    call {!Decomp.record_choice}, so the process-wide [plan_*] selection
    counters count this cache's misses, never its hits.  One cache serves
    one domain: share nothing, shard everything — parallel sweeps
    allocate one per worker. *)

val create_cache : unit -> cache

type cache_stats = {
  plan_hits : int;  (** strategy lookups answered from the cache *)
  plan_misses : int;  (** strategy selections (DP build or plan compile) *)
  count_hits : int;  (** component counts answered from the memo *)
  count_misses : int;  (** component counts computed by the solver *)
}
(** Hit/miss counters since the cache was created.  The count memo is
    flushed whenever evaluation moves to a different structure, so on a
    workload that alternates databases the plan counters measure the
    long-lived sharing and the count counters the within-database
    sharing — the split the server's [stats] endpoint reports. *)

val cache_stats : cache -> cache_stats

val cache_counters : cache -> (string * Bagcq_obs.Metrics.counter) list
(** The live counter cells behind {!cache_stats}, keyed
    ["plan_hits"]/["plan_misses"]/["count_hits"]/["count_misses"] — for
    registering a long-lived cache into an {!Bagcq_obs.Metrics} registry
    so its dump and the stats view read the same cells.  Per-worker
    caches should not be registered (they are transient). *)

type prepared
(** A query factored into canonical components ({!Decomp.factor}) with
    each component's plan resolved: everything about [ψ(D)] that does not
    depend on [D].  Immutable, so one value may be counted from any
    domain, through any cache. *)

val prepare : ?cache:cache -> Query.t -> prepared
(** Factors the query once and resolves each component's strategy
    through the cache's plan map (a fresh map without [?cache]): a hit
    bumps [plan_hits], a cold plan bumps [plan_misses], calls
    {!Decomp.record_choice} and draws the plan's id.  Every component is
    planned, including those a zero count would later short-circuit. *)

val count_prepared :
  ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> prepared -> Structure.t -> Nat.t
(** [ψ(D)] for a prepared [ψ]: only the kernels run, in component order,
    stopping at the first zero.  Component counts go through the cache's
    per-structure memo, keyed by plan id, so two prepared queries sharing
    a plan (prepared through the same cache) count the shared component
    once per structure.  The counting cache need not be the preparing
    one. *)

val count : ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Query.t -> Structure.t -> Nat.t
(** [count ψ D = ψ(D)], i.e. [count_prepared (prepare ψ) D].  With
    [?budget], the component kernels tick the budget and the call unwinds
    with {!Bagcq_guard.Budget.Exhausted_} if it trips (same for every
    [?budget] below).  With [?cache], plans and per-component counts are
    shared across calls; without it each call memoises only within itself
    (the seed behaviour).  A caller counting one query on many structures
    should {!prepare} it once instead. *)

val satisfies : ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Structure.t -> Query.t -> bool
(** [D ⊨ ψ]: [Hom(ψ,D)] is non-empty, i.e. every component counts
    non-zero. *)

val count_pquery :
  ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Pquery.t -> Structure.t -> Nat.t
(** Counts a power-product query factor-wise: [∏ᵢ θᵢ(D)^{eᵢ}].  When a
    factor count is ≥ 2 and its exponent exceeds [max_int] the result is
    not representable; this raises {!Bagcq_bignum.Nat.Exponent_too_large} —
    use {!pquery_geq}, which compares the product against a bound without
    expanding it, for such counts. *)

val pquery_geq :
  ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Pquery.t -> Structure.t -> Nat.t -> bool
(** [pquery_geq ψ D bound]: decide [ψ(D) ≥ bound] without materialising the
    count (factors with base ≥ 2 dominate their exponent:
    [b^e ≥ 2^e ≥ e + 1]).  Anti-cheating arguments (Lemmas 18, 21) only
    need such comparisons. *)

val satisfies_pquery :
  ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Structure.t -> Pquery.t -> bool

val count_ucq : ?budget:Bagcq_guard.Budget.t -> ?cache:cache -> Ucq.t -> Structure.t -> Nat.t
(** Bag-semantics union: the sum of the disjunct counts. *)

val ucq_contained_on :
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:cache ->
  small:Ucq.t ->
  big:Ucq.t ->
  Structure.t ->
  bool
(** One instance of [QCP^bag_UCQ] (undecidable in general —
    Ioannidis–Ramakrishnan [14]): [small(D) ≤ big(D)]. *)
