(** Worst-case-optimal counting for cyclic components and for components
    with inequalities: a Leapfrog-Triejoin style multiway intersection over
    the sorted columnar indexes of {!Index}.

    The classic backtracking kernel joins one {e atom} at a time; on cyclic
    queries (triangles, the paper's CYCLIQ family, the Arena/ζ_b reduction
    structures) it enumerates partial assignments that every remaining atom
    then rejects — the Θ(n²)-intermediate-result trap AGM-bounded joins
    avoid.  This kernel instead binds one {e variable} at a time under a
    fixed global variable order: every atom containing the variable
    contributes a sorted iterator over the codes possible at its trie
    level, and their intersection is computed by leapfrogging — repeatedly
    galloping the lowest iterator up to the current maximum — so each
    candidate value costs seeks logarithmic in the ranges instead of a
    scan.

    One recursion serves {!count} and {!iter}.  Textbook LFTJ emits each
    full match, and {!iter} does: it hands every homomorphism to its
    callback.  Counting only needs the {e number} of extensions, so
    {!count} changes the leaf step: when the innermost variable occurs in
    a single atom (no repeated positions) the kernel adds the width of
    that atom's final range — the rows share the whole bound prefix, hence
    are distinct at the last level — without visiting the values; when it
    occurs in several, each match of the innermost intersection adds one
    without narrowing.  Counts accumulate in an int and flush into a
    {!Bagcq_bignum.Nat} before overflow.

    Inequalities compile into {e per-rank filters}: an [x ≠ y] atom runs
    at the later of the two ranks against the code bound at the earlier
    one, an [x ≠ c] atom at [x]'s rank against the constant's per-structure
    code, both checked the moment the intersection matches a value —
    before any range narrowing or recursion.  The paper reads [x ≠ y] over
    the whole domain (the virtual relation V_D×V_D∖diag of Section 2.1), so
    a variable occurring only in ≠ atoms — every variable of an atom-free
    component such as [x ≠ y] — becomes a trailing {e domain rank} with no
    iterators: an inner one walks the codes of {!Index.domain} under its
    filters, and the innermost adds [|domain| − |distinct forbidden codes|]
    without iterating when counting.

    These three counting shortcuts add extensions without binding them, so
    a run takes them only when it counts, decided once per run; {!iter}
    binds every rank.  Both tick by one rule: once per seek (gallop) and
    once per domain value walked, plus, when counting, once per leaf width
    and per innermost domain rank's closed form.

    {!Decomp.choose} selects this kernel for cyclic components and for
    every component with inequalities, and it is the one enumeration
    kernel: {!Morphism} and {!Answers} run on {!iter}.  Observable through
    the process-wide counters [wcoj_plans_compiled], [wcoj_runs] and
    [wcoj_seeks] (both entry points count as runs and seeks). *)

open Bagcq_relational
open Bagcq_cq

type plan

val compile : Query.t -> plan
(** Compile one component: choose the global variable order (prefer
    variables connected to already-ordered ones, then higher atom
    frequency, ties by name — deterministic) with the inequality-only
    variables appended by name as domain ranks, lay out each atom's trie
    level order (constants first, then variables by rank, repeats on
    consecutive levels), and attach inequalities as per-rank filters.
    The constants become parameter slots, numbered as
    {!Query.constant_slots} numbers them; nothing else in the plan depends
    on their names, so two components that differ only in their constants
    compile to the same plan up to those names.  Total on every query. *)

val variable_order : plan -> string list
(** The chosen global variable order, outermost first — what
    [bagcq explain] prints. *)

val domain_vars : plan -> string list
(** The variables bound by domain ranks (those occurring only in ≠
    atoms): the trailing suffix of {!variable_order}. *)

val rank_supports : plan -> int array
(** Per rank of the variable order: how many of the rank's iterators sit
    below an earlier variable level of their own atom, i.e. enter the
    intersection already narrowed by an outer binding.  The planner's
    cost model counts ranks supported ≤ 1 — where leapfrog degenerates to
    scanning — to decide when a bounded-width decomposition ({!Ghd}) is
    worth the bag materialisation. *)

val count :
  ?budget:Bagcq_guard.Budget.t ->
  ?params:Value.t array ->
  plan ->
  Structure.t ->
  Bagcq_bignum.Nat.t
(** [count p D] = |Hom(component, D)|.  With [?budget] every seek
    (gallop), every leaf width, every value an inner domain rank visits
    and every innermost domain rank ticks once, and the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} mid-intersection on a trip.

    The constants' values come from [?params], one per slot
    ({!Query.constant_slots} order), or, without it, from [D]'s
    interpretation of the names the plan was compiled with: so a plan
    compiled from one component counts every component of the same shape,
    with the ticks of a plan compiled for that component.  Inequality
    semantics follow {!Solver_ref}: an uninterpreted constant anywhere
    (≠ atoms included) yields zero before the first tick, and a
    [c ≠ c'] between constants interpreted equal yields zero.  An
    interpreted constant always lies in the domain, since {!Index.domain}
    folds in every interpretation, and so must every parameter
    ({!Index.constants}). *)

type assignment = Value.t Map.Make(String).t
(** A homomorphism: every variable of the component (inequality-only ones
    included) mapped to its value in the structure. *)

val iter :
  ?budget:Bagcq_guard.Budget.t ->
  ?params:Value.t array ->
  (assignment -> unit) ->
  plan ->
  Structure.t ->
  unit
(** [iter f p D] calls [f] once per homomorphism in Hom(component, D),
    in the leapfrog's order (outermost rank first, codes ascending), so
    [f] is called exactly [count p D] times.  Same semantics, parameters,
    budget and ticks as {!count} without its shortcuts: one tick per seek
    and one per domain value.  An exception raised by [f] unwinds the
    run, which is how callers stop at the first hit. *)
