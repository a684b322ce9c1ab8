(** Exhaustive enumeration of the databases over a schema with a bounded
    domain, one per isomorphism class — the brute-force side of verifying
    universally quantified statements such as condition (≤) of
    Definition 3 on small instances.

    At domain size [n] a candidate is a subset of the potential atoms over
    [{#1…#n}] (a mask), crossed with a binding of the schema's constants
    to those elements: [2^(Σ_R n^{arity R}) · n^{#constants}] labelled
    candidates, ordered by (mask, binding).  Enumeration refuses to start
    when a size's potential-atom count exceeds {!max_potential_atoms}.
    Only the candidates that pass two integer tests, run before any
    structure is built, reach the caller:
    - {e full domain}: the atoms' elements plus the binding's images are
      all of [{#1…#n}] (any other candidate is a renamed copy of one at a
      smaller size).  The empty database is the exception: it is handed
      over once, as the first candidate of size 1;
    - {e orbit-first}: no permutation of [{#1…#n}] maps the candidate to
      a smaller (mask, binding).  Permutations are enumerated while
      [n! ≤ 120], which under the atom cap covers every size of a schema
      with a symbol of arity ≥ 2; larger sizes, reached only by
      unary-only schemas, keep the full-domain test alone.

    So every database of domain size at most [max_size] is isomorphic to
    exactly one candidate handed over (for E/2 without constants: 2, 8,
    94 and 2 940 candidates at sizes 1–4, against 2, 16, 512 and 65 536
    labelled ones).  A predicate must therefore be isomorphism-invariant —
    every bag count, and so every containment check, is.  For such a
    predicate the first witness is the labelled enumeration's first
    witness, byte for byte: that one is full-domain (a copy on fewer
    elements would have come at a smaller size) and orbit-first (an
    earlier isomorphic copy would have been a witness too).

    A [?budget] is ticked once per candidate handed over, before the
    callback runs; rejected candidates cost no tick.  Between two ticks
    the sweep does no predicate work: it rejects at most the remaining
    candidates of one size and the leading ones of the next, at most
    [2^22 · n^{#constants}] per size, each rejection costing at most
    [min(n!, 120)] mask permutations (one table lookup per 8 potential
    atoms) and as many binding comparisons (one step per constant); and
    it may build the next size's tables (at most 119 permutations, one
    256-entry table per 8 potential atoms each). *)

open Bagcq_relational

val max_potential_atoms : int
(** 22 — caps the enumeration at ~4M atom subsets per constant binding. *)

val potential_atoms : Schema.t -> size:int -> (Symbol.t * Tuple.t) list

type stats = {
  databases_tested : int;
      (** candidates handed to the predicate: one per isomorphism class *)
  largest_size_completed : int;
      (** every database of this domain size (and below) was enumerated *)
}

val count_space : Schema.t -> size:int -> int
(** Number of potential atoms at one domain size (not the number of
    databases). *)

(** {2 Sweeps}

    Each size's masks are fanned over a {!Bagcq_parallel.Pool.sweep}
    (whether a mask is canonical is decided per mask, so chunking changes
    nothing).  At one job ([?jobs] defaults to 1) nothing is spawned and
    the caller's budget is ticked directly.  Otherwise each worker domain
    gets its own {!Bagcq_guard.Budget} shard drawn from the caller's
    budget: exhaustion in any shard stops the sweep, and ticks are summed
    back into the parent before returning.  The predicate receives the
    worker's budget so its own backtracking ticks the right one.  An
    {!Bagcq_guard.Budget.Exhausted_} that the predicate raises for some
    other budget is not taken for a trip: it propagates. *)

val find_guarded :
  budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  ?with_constants:bool ->
  Schema.t ->
  max_size:int ->
  (budget:Bagcq_guard.Budget.t -> Structure.t -> bool) ->
  (Structure.t option * stats, stats) Bagcq_guard.Outcome.t
(** The first witness in (size, mask, binding) order — the labelled
    enumeration's first witness, for an isomorphism-invariant predicate —
    with progress reporting: [Complete (witness, stats)] when the
    enumeration ran to the end (or found a witness), or
    [Exhausted (stats, reason)] with best-so-far statistics when the
    budget tripped mid-enumeration, including trips inside the
    predicate.  When [with_constants] (default true) every assignment of
    the schema's constants to domain elements is enumerated too;
    otherwise constants are left uninterpreted.  The witness is the same
    whatever [jobs] (workers cooperate on a lowest-witness bound rather
    than stopping at the first hit), so seeded hunts are reproducible
    across job counts.  Raises [Invalid_argument] when the space is too
    large. *)

val fold :
  ?budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  ?with_constants:bool ->
  Schema.t ->
  max_size:int ->
  worker:(unit -> 'w) ->
  f:(budget:Bagcq_guard.Budget.t -> 'w -> Structure.t -> unit) ->
  unit ->
  'w array
(** Folds over one database per isomorphism class, with per-worker
    mutable state: [worker ()] allocates each worker's accumulator, [f]
    folds a candidate database into it, and the per-worker states come
    back for the caller to merge.  At one job the candidates arrive in
    (size, mask, binding) order; across workers the order is
    scheduling-dependent, so merge with a commutative operation.  When a
    [?budget] is given and any shard trips, the sweep stops, shards are
    absorbed, and {!Bagcq_guard.Budget.Exhausted_} is raised. *)
