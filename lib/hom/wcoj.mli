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

    Counting changes the leaf step.  Textbook LFTJ emits each full match;
    counting homomorphisms only needs the {e number} of extensions, so when
    the innermost variable occurs in a single atom (no repeated positions)
    the kernel adds the width of that atom's final range — the rows share
    the whole bound prefix, hence are distinct at the last level — without
    visiting the values.  Counts accumulate in an int and flush into a
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
    without iterating.

    Selected by {!Decomp.choose} for cyclic components and for every
    component with inequalities.  Observable through the process-wide
    counters [wcoj_plans_compiled], [wcoj_runs] and [wcoj_seeks]. *)

open Bagcq_cq

type plan

val compile : Query.t -> plan
(** Compile one component: choose the global variable order (prefer
    variables connected to already-ordered ones, then higher atom
    frequency, ties by name — deterministic) with the inequality-only
    variables appended by name as domain ranks, lay out each atom's trie
    level order (constants first, then variables by rank, repeats on
    consecutive levels), and attach inequalities as per-rank filters.
    Total on every query. *)

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
  plan ->
  Bagcq_relational.Structure.t ->
  Bagcq_bignum.Nat.t
(** [count p D] = |Hom(component, D)|.  With [?budget] every seek
    (gallop), every value an inner domain rank visits and every innermost
    domain rank ticks once, and the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} mid-intersection on a trip.
    Inequality semantics follow {!Solver_ref}: an uninterpreted constant
    anywhere (≠ atoms included) yields zero, and a [c ≠ c'] between
    constants interpreted equal yields zero.  An interpreted constant
    always lies in the domain, since {!Index.domain} folds in every
    interpretation. *)
