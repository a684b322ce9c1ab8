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

val factor : Query.t -> (Query.t * int) list
(** Connected components of the query ({!Query.components}), each
    canonicalised, grouped by syntactic equality and paired with its
    multiplicity, in {!Query.compare} order.  [count q D = Π_i count cᵢ D ^
    mᵢ] over [factor q]; the empty conjunction factors into [[]].

    A component's canonical form renames its variables [v1], [v2], … by
    first occurrence: atoms in order, each atom's arguments left to right,
    then the inequalities in order, right side first.  So components that
    differ only in variable names — the disjoint copies produced by [∧̄]
    and [↑] — share one form, one plan and one count.  A heuristic, not a
    graph-isomorphism canonical form: two isomorphic components may still
    canonicalise apart, which costs a duplicate count, never a wrong one.

    The factor runs over an int-coded copy of the query: variables are
    numbered once, and union–find, renaming, sorting and grouping compare
    ints (a renamed variable [vn] against [vm] as the strings compare, so
    [v10] sorts before [v2]).  Only the first copy of each distinct
    component is built as a {!Query.t}: the 150 copies of a path in
    [θ↑150] build one.  Per-variable arrays are domain-local scratch,
    reused across calls. *)

val canonical : Query.t -> Query.t
(** The canonical renaming of one whole query, by name, through
    {!Query.rename_vars}: for a connected query, {!factor}'s one
    component.  Kept because perfbench's verifier keys its reference
    counts with it. *)

type component = {
  query : Query.t;  (** the canonical form, as {!factor} gives it *)
  mult : int;  (** its multiplicity *)
  shape : string;
      (** the canonical form with each constant replaced by its slot
          number: printed flat ({!Query.add_flat}), every constant as
          [#i] where [i] indexes {!constants} *)
  constants : string array;  (** the component's constants, by slot ({!Query.constant_slots}) *)
}
(** One factor of a query, with its plan key.  Two components of one
    shape differ only in their constants, so one plan, compiled from
    either, counts both: {!choose}'s decisions and every compiled kernel
    read constants only through their slots. *)

val components : Query.t -> component list
(** {!factor}, with each component's shape and constants. *)

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
  ?params:Bagcq_relational.Value.t array ->
  strategy ->
  Query.t ->
  Bagcq_relational.Structure.t ->
  Nat.t
(** [count s comp D] = |Hom(comp, D)|, run by [s] — which must be
    [choose comp], or [Backtrack], which compiles [comp] for the leapfrog
    and so runs any component.  The component executor that [Eval] and
    the store share.  With [?params], slot [i]'s constant is bound to
    [params.(i)] instead of its interpretation in [D]: then [s] may be
    [choose c] for any [c] of [comp]'s shape, and the count is that of
    [comp] with its constants so bound, in the ticks of [choose comp].
    [?budget] ticks as the chosen kernel documents. *)

val render : strategy -> string list
(** Human-readable plan lines for [bagcq explain]: the join tree indented
    two spaces per depth with [key] annotations, the leapfrog variable
    order with its domain ranks marked [(domain)], the decomposition's bag
    tree, or the [Backtrack] note.  Deterministic. *)
