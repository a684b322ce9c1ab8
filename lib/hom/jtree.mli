(** The join-tree dynamic program: the one DP behind every count of an
    acyclic component, of a registered count the store maintains, and of
    a hypertree decomposition's bags.

    {2 Node shape}

    A tree is compiled once, when {!Decomp.choose} or {!Ghd.plan} builds
    the plan that [Eval.prepare] caches.  Every node has one shape: a
    variable frame (slots numbered at compile time), an op array per atom
    (compare with a constant slot, check a bound slot, bind a slot), the
    slots of its own key (the variables shared with its parent) and, per
    child, the slots of the child's key in this frame.  Constants are
    parameter slots, numbered by the caller ({!Query.constant_slots}) and
    resolved once per count, from a parameter vector or from the
    structure's interpretation, so one compiled tree counts every
    component that differs from its own only in constants.  Bottom-up,
    each node weighs every row it produces by the product of its
    children's table entries at the row's lookup projections, and
    aggregates the weights at the row's key projection.  The
    running-intersection property makes each key a complete interface,
    so the root's entry at the empty key is |Hom(component, D)|.

    {2 Two row sources}

    - An {e atom scan} (every node of an acyclic component's join tree)
      matches its atom's ops against the tuples of one relation.  When
      the atom holds a constant, it reads only the run of that constant's
      code in the view with its first constant position first
      ({!Index.probe_first}), as a bag-join step probing a constant does;
      otherwise every tuple.  It ticks once on entry and once per row it
      reads: [E('c',x)] costs 1 + the number of tuples holding [c] first,
      and an atom with two constants 1 + the run of the first one.
    - A {e bag join} (every node of a decomposition) joins the bag's atoms
      by index probes in a compiled order and hands each distinct
      projection onto the bag's variables χ to the weigh-and-aggregate step
      as the join reaches it, so bag rows are never stored and walked a
      second time.  A set of the χ-rows seen so far folds repeats; a bag
      whose only variables outside χ are private ones, pre-projected away,
      needs no such set, because each of its join results then has a χ-row
      of its own.  It ticks once per candidate tuple and once per tuple a
      pre-projected step reads, never per bag.  Each distinct row adds one
      to [ghd_bag_rows], and each count of a tree with bag joins adds one
      to [ghd_runs]; both cells live here because only this module sees
      bag rows.

    {2 Codes, tables and weights}

    No table, frame or match holds a {!Value.t}: frames, keys and
    constants are integer codes, and a tuple matches an op array by
    comparing codes.  A one-shot count reads the codes of {!Index}: an
    atom scan reads the code columns (the identity {!Index.view}), and a
    probing bag-join step reads a memoised view with the probed position
    first, whose candidates for a code are the contiguous {!Index.run}.
    Materialised
    state codes values through its own append-only {!Index.interner}
    (below), the one place the DP hashes values: once per value of each
    tuple {!build} scans and of each tuple {!delta} folds in.

    Every table — a node's key aggregation, a bag join's set of seen
    χ-rows, a pre-projection's set of distinct rows, a propagation's
    per-key deltas — has one type: a map from keys of a fixed width in
    codes to weights, where an absent key weighs zero.  A key of width ≤ 1
    is a dense array indexed by code (the root's empty key is one cell)
    when the codes number no more than the rows the node reads (or
    eight); any other key is hashed, open-addressed over its codes, and
    starts with room for the rows the node reads.  So no table is sized
    by the domain when the node reads fewer rows than that.

    Weights are [int]s while they stay below 2{^ 61}.  When an addition
    at an entry, or a product of child weights, would reach 2{^ 61}, that
    table is {e promoted} in place: its entries become {!Nat.t}s, the
    exact sum or product is stored, and the table stays promoted.  A
    product with a promoted factor is computed in {!Nat.t}.  No count is
    ever rerun: the pass that overflows carries on exactly.  This is the
    rule the leapfrog's leaf accumulator follows, per table rather than
    per count, so one large entry does not slow the other tables down.

    Compiled trees are immutable and shared: a hunt counts one prepared
    plan on several worker domains, and the server's plan cache serves
    every connection.  Frames, constant codes and tables are allocated
    per count, and materialised state per {!build}. *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

type t
(** A compiled tree. *)

type spec =
  | Scan of Atom.t  (** an atom-scan node over one atom *)
  | Join of string array * Atom.t array
      (** a bag-join node: χ, then the atoms to join in probe order *)

val compile : consts:string array -> ('a -> spec * string list * 'a list) -> 'a -> t
(** [compile ~consts view top] compiles the tree whose nodes [view]
    describes as (row source, key variables, children), rooted at [top].
    The key of the root must be empty; every other key must be variables
    of both the node and its parent.  [consts] numbers the parameter
    slots: it must list every constant of the tree's atoms. *)

val count :
  ?budget:Bagcq_guard.Budget.t -> ?params:Value.t array -> t -> Structure.t -> Nat.t
(** The one-shot count, run by {!Decomp.count} for [Eval] and the store's
    recounts: one bottom-up pass over the {!Index} code columns and
    probe-first views that keeps no reverse maps and drops each table
    once its parent has read it.  Slot [i] holds [params.(i)], or,
    without [?params], the structure's interpretation of [consts.(i)],
    through {!Index.constants}: an uninterpreted constant answers zero
    before any index is fetched or any tick is spent.  Ticks [?budget] by
    the rule above and unwinds with {!Bagcq_guard.Budget.Exhausted_} on a
    trip. *)

(** {2 Materialised state}

    For trees of atom scans only: the per-node tables kept alive, the
    substrate of the store's maintained counts.  Each node keeps, per
    child, a reverse map from the child's key to the frames of the node's
    tuples matching its ops; membership does not depend on weight, so a
    tuple weighing zero stays reachable for when its child's entry grows.

    A tuple insert or delete is one walk, children first, with one update
    rule, and never reads a relation.  A node takes its children in
    order: it updates the child, then re-weighs the frames its reverse
    map files under each key whose entry the child changed, by the
    change times the siblings' current entries — the new tables of the
    children taken before, the old tables of those after.  The product's
    change then splits into one term per child with no cross terms, so a
    symbol that occurs at several nodes, or a tuple that changes several
    children of one node at once, costs no more than a single path.  A
    node that carries the mutated symbol then weighs the tuple against
    its new child tables and files it in (or takes it out of) its reverse
    maps.  A deleted tuple's frame stays filed while the change from
    below is propagated, so the propagation keeps it at its current
    weight and its own term takes that out whole.  Every term has the
    mutation's direction, since an insert only grows tables and a delete
    only shrinks them: a node sums the magnitudes in one per-key table,
    applies it with one exact addition or subtraction per key, and hands
    it to its parent.  The cost is one step per node carrying the symbol
    plus one per frame joining a changed key: O(depth × fan-in of the
    changed keys).

    Index codes are ranks and would shift when a write brings in a new
    value, so the state codes values through its own append-only
    {!Index.interner} instead: the codes must survive writes.  A code,
    once handed out, means the same value for the state's lifetime, so
    tables and reverse maps survive every write, and a dense table grows
    when an insert brings in a code past its end.  A value whose last
    tuple is deleted keeps its code.  Tables promote to {!Nat.t} by the
    rule above; a delete that brings an entry back below 2{^ 61} leaves
    the table promoted. *)

type state
(** Mutable: {!delta} updates it in place, so it must be guarded by
    whatever lock guards its database.  After a budget trip mid-{!delta}
    the tables may be half-propagated: discard the state and rebuild;
    never read {!total} from it. *)

val build : ?budget:Bagcq_guard.Budget.t -> t -> Structure.t -> state option
(** One bottom-up pass over {!Structure.tuple_array}, filling every
    node's table and reverse maps: the one time the state reads a
    relation.  [None] when a constant is uninterpreted: the count is zero
    and not maintainable, since a later insert can bind the constant.
    Ticks [?budget] like {!count}, except that an atom scan reads every
    tuple, bound position or not (the tuple array is not sorted by the
    view).  Raises [Invalid_argument] on a tree with bag joins. *)

val total : state -> Nat.t
(** The root's entry at the empty key: |Hom(component, D)|.  O(1). *)

val delta :
  ?budget:Bagcq_guard.Budget.t ->
  state ->
  Symbol.t ->
  Tuple.t ->
  add:bool ->
  unit
(** [delta st sym tup ~add] folds one tuple insert ([add:true]) or delete
    into the tables by the ordered rule above, children in the order
    {!compile} gave them.  The caller guarantees the mutation was exactly
    this tuple — inserted while absent, deleted while present — which
    makes the subtraction exact.  A symbol no node scans returns at once.
    Ticks [?budget] once per node carrying [sym] and once per frame
    re-weighed. *)
