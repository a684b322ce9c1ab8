(** The mutable data plane: a registry of named databases with
    incrementally-maintained bag-semantics hom-counts.

    Everything below the serving tier so far was read-only: a structure
    arrives inline with the request, is evaluated, and is forgotten (or
    interned by the server cache, keyed by its text).  This module makes
    databases first-class and {e mutable}: a database is created under a
    name, tuples are inserted and deleted one at a time, and (database,
    query) pairs can be {e registered} so their count [ψ(D) = |Hom(ψ,D)|]
    is kept current under the deltas instead of recomputed from scratch.

    Maintenance strategy follows the planner's component factorisation
    ({!Bagcq_hom.Decomp.factor}): a registration holds per-component
    state, and a tuple delta touches only the components it can change:
    those mentioning the mutated symbol, and those whose ≠ atoms read the
    whole domain or a constant's interpretation.  Untouched components
    contribute their cached counts through the factor product
    [Π cᵢ^mᵢ].  Acyclic inequality-free components keep the join-tree
    DP's per-node weight tables materialised ({!Bagcq_hom.Jtree.state}):
    a delta is one walk up the tree that re-weighs only the frames joining
    a changed key, and applies one exact addition or subtraction per
    changed key — O(tree depth × fan-in of the changed keys), however
    many nodes carry the mutated symbol, and never a rescan or a
    recount.  Other components recount through
    {!Bagcq_hom.Decomp.count}, but only themselves.

    Failure semantics: a mutation {e commits} the relation change first;
    maintenance runs after, under the request's budget.  A budget trip
    mid-propagation leaves the affected registration marked {e stale} —
    its tables are garbage and are never read; the next [register] or
    [counts] on it rebuilds from the (authoritative) current relation.
    Counts are therefore always either exactly right or explicitly
    stale-being-repaired, never silently half-updated.

    Concurrency: databases shard by name hash across [n] mutexes, so the
    serving tier's worker domains mutate distinct databases in parallel
    while all operations on one database are serialised (the DP tables
    mutate in place). *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

type t

type 'a reply =
  | Done of 'a
  | Rejected of string
      (** caller error — unknown database, duplicate create, inserting a
          tuple already present, deleting one that is not, arity clash
          with the database's schema.  The wire layer maps this to
          [bad_request]. *)
  | Exhausted of Bagcq_guard.Budget.reason
      (** the request budget tripped during registration build or stale
          repair.  Mutations never surface this: they commit and absorb
          the trip as stale registrations. *)

type mutation = {
  atoms : int;  (** total atoms in the database after the commit *)
  registrations : int;
  maintained : int;
      (** registrations updated purely through materialised-DP deltas *)
  recomputed : int;
      (** registrations where at least one touched component recomputed *)
  stale : int;
      (** registrations left (or already) stale — repaired on next read *)
}

type reg_info = {
  reg_count : Nat.t;
  reg_components : int;
  reg_maintained : int;  (** components with materialised DP state *)
}

type count_row = {
  cr_query : string;  (** the registration key, [Query.to_string] *)
  cr_count : Nat.t;
  cr_maintained : bool;  (** every component delta-maintained *)
}

val create :
  ?metrics:Bagcq_obs.Metrics.t ->
  ?on_mutate:(string -> unit) ->
  unit ->
  t
(** Databases are striped by name hash over 16 locks.  [?metrics]
    registers the [store_*] counters ([store_creates], [store_inserts],
    [store_deletes], [store_delta_maintained], [store_delta_recomputed],
    [store_stale], [store_repairs]) and the [store_databases] /
    [store_registered] gauges — resolved eagerly so the family is present
    at zero in every dump.  [?on_mutate] fires with the database name
    after every committed insert/delete, while the database's shard lock
    is still held — the server hooks cache invalidation here; keep it
    cheap and never have it call back into the store. *)

val db_create : t -> name:string -> Structure.t -> int reply
(** Register a new named database with the given initial contents.
    [Done] carries its total atom count.  Rejects empty names and
    duplicates — names are create-once. *)

val db_insert :
  ?budget:Bagcq_guard.Budget.t ->
  t ->
  name:string ->
  Symbol.t ->
  Tuple.t ->
  mutation reply
(** Insert one tuple.  Rejects a tuple already present (stored relations
    are sets; a silent no-op would desynchronise maintained counts) and
    a symbol whose arity clashes with the database's schema.  On
    [Done] the mutation has committed and every registration was either
    delta-maintained, component-recomputed, or marked stale (budget
    trip) for later repair. *)

val db_delete :
  ?budget:Bagcq_guard.Budget.t ->
  t ->
  name:string ->
  Symbol.t ->
  Tuple.t ->
  mutation reply
(** Delete one tuple.  Rejects a tuple that is not present — which is
    exactly what makes the maintenance [Nat.sub] exact, never a
    saturating guess. *)

val register :
  ?budget:Bagcq_guard.Budget.t -> t -> name:string -> Query.t -> reg_info reply
(** Register a query against a database: factor into components, build
    per-component maintenance state (materialised DP tables where the
    planner chose the join tree), compute the initial count.
    Idempotent — re-registering returns the live state (repairing it
    first if stale). *)

val unregister : t -> name:string -> Query.t -> unit reply

val counts :
  ?budget:Bagcq_guard.Budget.t -> t -> name:string -> count_row list reply
(** All registered counts of a database, sorted by query text.  Stale
    registrations are rebuilt from the current relation first (under
    [?budget]) — a returned row is always exact. *)

val is_stale : t -> name:string -> Query.t -> bool reply
(** Introspection: whether the registration is currently marked stale
    (a budget tripped mid-maintenance and no read has repaired it yet).
    The fault-injection tests pin the stale→repair lifecycle with
    this. *)

val snapshot : t -> name:string -> (Structure.t * int) reply
(** The database's current structure and monotone version counter — what
    the server evaluates ad-hoc queries against.  The structure is
    immutable; the version stamps server-cache keys so entries for
    superseded versions can never be served after a mutation. *)
