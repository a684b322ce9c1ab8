(** Structure-aware query planning: component factorization and acyclic
    join-tree counting.

    The paper's constructions multiply homomorphism counts by building
    variable-disjoint conjunctions — [(θ↑k)(D) = θ(D)^k] (Definition 2) is
    a [k]-fold disjoint copy of [θ], and Lemma 1 factorises any query's
    count over the connected components of its Gaifman graph.  This module
    turns both laws into a planner: {!factor} splits a query into canonical
    components with multiplicities (so [θ↑k] costs one component search
    plus one [Nat.pow]), and {!choose} classifies each component — GYO
    reduction sends α-acyclic components to the join-tree dynamic program
    ({!count_tree}: polynomial in the structure), components with
    inequalities and cyclic ones run the leapfrog kernel ({!Wcoj}) or, when
    a cyclic order is weak and a width ≤ 2 decomposition exists, the
    join-tree DP over hypertree bags ({!Ghd}).  {!count} runs whichever
    was chosen; [Eval] and the store both count through it.

    Plan selection is observable through five process-wide counters in
    {!Bagcq_obs.Metrics.global}: [plan_components] (components seen by
    {!factor}), and [plan_dp_selected] / [plan_wcoj_selected] /
    [plan_ghd_selected] / [plan_fallback] — bumped by {!record_choice} on
    cold plans only, so the family tracks plan-cache misses.
    [plan_fallback] stays registered and reads 0: {!choose} never picks
    the backtracking kernel. *)

open Bagcq_bignum
open Bagcq_cq

val canonical : Query.t -> Query.t
(** Variables renamed by first occurrence ([v1], [v2], …), so components
    that differ only in variable names — the disjoint copies produced by
    [∧̄] and [↑] — share one syntactic form, one cache entry and one
    search.  A heuristic, not a graph-isomorphism canonical form: two
    isomorphic components may still canonicalise apart, which costs a
    duplicate search but never an incorrect count. *)

val factor : Query.t -> (Query.t * int) list
(** Connected components of the query, canonicalised, grouped by syntactic
    equality and paired with their multiplicities, in {!Query.compare}
    order.  [count q D = Π_i count cᵢ D ^ mᵢ] over [factor q]; the empty
    conjunction factors into [[]]. *)

type tree = {
  atom : Atom.t;
  key : string list;  (** shared variables with the parent, sorted; [[]] at
                          the root *)
  children : tree list;
}
(** A join tree over a component's atoms.  The GYO parent relation has the
    running-intersection property, so each edge's [key] — the variables the
    child atom shares with its parent atom — is exactly the interface
    between the child's subtree and the rest of the query. *)

type strategy =
  | Dp of tree  (** α-acyclic, no inequalities: count by {!count_tree} *)
  | Wcoj of Wcoj.plan
      (** cyclic, or carrying inequalities: worst-case-optimal leapfrog
          join *)
  | Ghd of Ghd.t
      (** cyclic with a weak leapfrog order but small hypertree width:
          join-tree DP over materialised decomposition bags *)
  | Backtrack
      (** compiled backtracking kernel ({!Solver}): never chosen, kept so
          a caller can run the baseline through {!count} *)

val choose : Query.t -> strategy
(** Classify one component (callers pass the elements of {!factor}).
    Components with inequalities run the leapfrog, with ≠ filters and a
    domain rank per variable occurring only in ≠ atoms.  Otherwise GYO
    reduction decides: one surviving edge means α-acyclic (join-tree DP);
    a cyclic residue compiles the leapfrog plan, and when its variable
    order has ≥ 4 weak ranks (iterators unsupported by any earlier
    binding — {!Wcoj.rank_supports}) {e and} {!Ghd.plan} finds a width ≤ 2
    decomposition, the component runs the decomposition instead.  Never
    returns [Backtrack].

    {!choose} does not touch the [plan_*] counters — callers holding a
    plan cache call {!record_choice} on misses. *)

val record_choice : strategy -> unit
(** Bump the strategy's selection counter ([plan_dp_selected] /
    [plan_wcoj_selected] / [plan_ghd_selected] / [plan_fallback]).
    Called by plan-cache holders on cold plans only, so the counter
    family matches cache misses, not lookups. *)

val count_tree :
  ?budget:Bagcq_guard.Budget.t -> tree -> Bagcq_relational.Structure.t -> Nat.t
(** Counts homomorphisms of an acyclic component by dynamic programming
    over the join tree: each node's table maps a [key] projection to the
    [Nat] weight of its subtree, computed bottom-up in one pass over the
    node's tuples — O(Σ_nodes tuples·arity), never exponential.  Weights
    are bignums: unlike backtracking, the DP can produce counts that
    dwarf the work done computing them.  With [?budget] every tuple
    considered ticks once per node (plus one tick per node entered), and
    the call unwinds with {!Bagcq_guard.Budget.Exhausted_} on a trip. *)

val count :
  ?budget:Bagcq_guard.Budget.t ->
  strategy ->
  Query.t ->
  Bagcq_relational.Structure.t ->
  Nat.t
(** [count s comp D] = |Hom(comp, D)|, run by [s] — which must be
    [choose comp], or [Backtrack], which runs any component.  The
    component executor that [Eval] and the store share.  [?budget] ticks
    as the chosen kernel documents. *)

(** {2 Materialised DP state}

    The same dynamic program as {!count_tree} with the per-node bignum
    weight tables kept alive — the substrate of incremental hom-count
    maintenance ([lib/store]).  A single tuple insert/delete updates the
    tables of the nodes carrying the mutated symbol with one exact
    {!Bagcq_bignum.Nat.add}/[sub] at the tuple's key projection; the change
    then climbs the tree as per-key deltas through reverse maps (child
    join-key → matching parent tuples), so each ancestor re-weighs only
    the tuples joining a changed key: O(tree depth × fan-in of the mutated
    key) per delta instead of a full bottom-up pass.  Only when the
    mutated symbol reaches a node through several subtree paths does that
    node fall back to rescanning its relation. *)

type dp
(** Materialised per-node tables for one acyclic component against one
    evolving database.  Mutable: {!dp_delta} updates it in place, so a [dp]
    must be guarded by whatever lock guards its database.  After a budget
    trip mid-{!dp_delta} the tables may be half-propagated — discard the
    state and rebuild; never read {!dp_count} from it. *)

val dp_build :
  ?budget:Bagcq_guard.Budget.t ->
  tree ->
  Bagcq_relational.Structure.t ->
  dp option
(** One bottom-up pass materialising every node table.  [None] when the
    component mentions a constant the structure does not interpret — the
    count is zero and not maintainable (a later insert can bind the
    constant), so callers fall back to recompute-on-delta.  Ticks
    [?budget] like {!count_tree} and unwinds on a trip. *)

val dp_count : dp -> Nat.t
(** The root table's entry at the empty key: |Hom(component, D)|.  O(1). *)

val dp_mentions : dp -> Bagcq_relational.Symbol.t -> bool
(** Whether a node of the tree scans the given symbol — deltas on other
    symbols cannot change the count and skip propagation entirely. *)

val dp_delta :
  ?budget:Bagcq_guard.Budget.t ->
  dp ->
  Bagcq_relational.Structure.t ->
  Bagcq_relational.Symbol.t ->
  Bagcq_relational.Tuple.t ->
  add:bool ->
  unit
(** [dp_delta dp d sym tup ~add] folds one tuple insert ([add:true]) or
    delete ([add:false]) into the tables.  [d] is the structure {e after}
    the mutation (ancestor re-aggregation scans it); the caller guarantees
    the mutation was exactly this tuple — inserted while absent, deleted
    while present — which is what makes the delete-side {!Nat.sub} exact.
    Ticks [?budget] per node entered and per tuple re-scanned; on a trip
    the state is half-propagated and must be discarded. *)

val render : strategy -> string list
(** Human-readable plan lines for [bagcq explain]: the join tree indented
    two spaces per depth with [key] annotations, the leapfrog variable
    order with its domain ranks marked [(domain)], the decomposition's bag
    tree, or the backtracking note.  Deterministic. *)
