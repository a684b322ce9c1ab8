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

    One recursion serves {!count}, {!iter} and {!rows}.  Textbook LFTJ
    emits each full match, and {!iter} does: it hands every homomorphism
    to its callback.  Counting only needs the {e number} of extensions, so
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
    binds every rank.  A rank with one iterator at its atom's last trie
    level, no repeat and no filter, {e walks} its range: those rows are
    distinct values.  Every entry point ticks by one rule: once per seek
    (gallop), per row walked and per domain value walked, plus, when
    counting, once per leaf width and per innermost domain rank's closed
    form.  A walked row costs the tick the seek past its value would have.

    {2 Head-first rows}

    Compiled with a [~head], a plan binds the head's variables first, and
    {!rows} hands on each distinct head tuple once, past the head
    descending only to the first leaf: there the counting shortcuts test
    that an extension exists.  A variable outside the head occurring
    once, in no ≠, is {e private}: it gets no rank and its level goes
    last in its atom, since any row reaching the atom's last ranked level
    extends to it.  {!Jtree} materialises hypertree bags this way.

    {!Decomp.choose} selects this kernel for cyclic components and for
    every component with inequalities, and it is the one enumeration
    kernel: {!Morphism} and {!Answers} run on {!iter}.  Observable through
    the process-wide counters [wcoj_plans_compiled], [wcoj_runs] and
    [wcoj_seeks]; every entry point, bags included, counts as runs and
    seeks. *)

open Bagcq_relational
open Bagcq_cq

type plan

val compile : ?head:string array -> Query.t -> plan
(** Compile one component: choose the global variable order (prefer
    variables connected to already-ordered ones, then higher atom
    frequency, ties by name — deterministic) with the inequality-only
    variables appended by name as domain ranks, lay out each atom's trie
    level order (constants first, then variables by rank, repeats on
    consecutive levels), and attach inequalities as per-rank filters.
    The constants become parameter slots, numbered as
    {!Query.constant_slots} numbers them; nothing else in the plan depends
    on their names, so two components that differ only in their constants
    compile to the same plan up to those names.  With [~head] (distinct
    variables of the atoms, or [Invalid_argument]) the head takes the
    first ranks, in the same greedy order, private variables take none,
    and the plan serves {!rows} alone. *)

val variable_order : plan -> string list
(** The chosen global variable order, outermost first, without private
    variables — what [bagcq explain] prints. *)

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
    (gallop), every row walked, every leaf width, every value an inner
    domain rank visits and every innermost domain rank ticks once, and the
    call unwinds with {!Bagcq_guard.Budget.Exhausted_} mid-intersection on
    a trip.

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
    ({!Index.constants}).  [Invalid_argument] on a plan with a head. *)

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
    budget and ticks as {!count} without its shortcuts: one tick per seek,
    one per row walked and one per domain value.  An exception raised by
    [f] unwinds the run, which is how callers stop at the first hit.
    [Invalid_argument] on a plan with a head. *)

val rows :
  ?budget:Bagcq_guard.Budget.t ->
  ?params:Value.t array ->
  (int array -> unit) ->
  plan ->
  Structure.t ->
  unit
(** [rows f p D] calls [f] once per distinct projection onto the head of
    Hom(component, D), for a plan compiled with a head of [h] variables
    ([Invalid_argument] otherwise).  [f] gets the run's codes by rank:
    entries [0..h-1] are the head tuple, ordered as {!variable_order},
    each an index into {!Index.domain}; the array is overwritten as the
    run goes on.  Same parameters, budget and tick rule as {!count}. *)
