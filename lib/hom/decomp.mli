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
    ({!Jtree}: polynomial in the structure), components with
    inequalities and cyclic ones run the leapfrog kernel ({!Wcoj}) or, when
    a cyclic order is weak and a width ≤ 2 decomposition exists, the
    join-tree DP over hypertree bags ({!Ghd}).  {!count} runs whichever
    was chosen; [Eval] and the store both count through it.

    Strategy selection is observable through five process-wide counters in
    {!Bagcq_obs.Metrics.global}: [plan_components] (components seen by
    {!factor}), and [plan_dp_selected] / [plan_wcoj_selected] /
    [plan_ghd_selected] / [plan_fallback] — bumped by {!record_choice} on
    cold plans only, so the family tracks plan-cache misses.
    [plan_fallback] stays registered and reads 0: {!choose} never picks
    [Backtrack]. *)

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

type tree
(** A join tree over a component's atoms, from GYO reduction: the parent
    relation has the running-intersection property, so each edge's key —
    the variables a child atom shares with its parent atom — is exactly
    the interface between the child's subtree and the rest of the query.
    It carries its DP, compiled once. *)

val jtree : tree -> Jtree.t
(** The tree's DP: one atom-scan node per atom.  The store builds its
    maintained counts from it. *)

type strategy =
  | Dp of tree  (** α-acyclic, no inequalities: the join-tree DP *)
  | Wcoj of Wcoj.plan
      (** cyclic, or carrying inequalities: worst-case-optimal leapfrog
          join *)
  | Ghd of Ghd.t
      (** cyclic with a weak leapfrog order but small hypertree width:
          join-tree DP over materialised decomposition bags *)
  | Backtrack
      (** never chosen; kept only because perfbench's replay matches it,
          and goes with the replay (ROADMAP item 1).  {!count} runs it on
          the leapfrog. *)

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
(** [Jtree.count (jtree t)]: the engine's one-shot count, kept as a name
    because perfbench's replay calls it.  Polynomial in the structure,
    with [int] weights that promote to {!Nat.t} past 2{^ 61}; with
    [?budget] one tick per node entered and one per tuple scanned. *)

val count :
  ?budget:Bagcq_guard.Budget.t ->
  strategy ->
  Query.t ->
  Bagcq_relational.Structure.t ->
  Nat.t
(** [count s comp D] = |Hom(comp, D)|, run by [s] — which must be
    [choose comp], or [Backtrack], which compiles [comp] for the leapfrog
    and so runs any component.  The component executor that [Eval] and
    the store share.  [?budget] ticks as the chosen kernel documents. *)

val render : strategy -> string list
(** Human-readable plan lines for [bagcq explain]: the join tree indented
    two spaces per depth with [key] annotations, the leapfrog variable
    order with its domain ranks marked [(domain)], the decomposition's bag
    tree, or the [Backtrack] note.  Deterministic. *)
