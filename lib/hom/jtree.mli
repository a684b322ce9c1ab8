(** The join-tree dynamic program: the one bignum DP behind every count of
    an acyclic component, of a registered count the store maintains, and
    of a hypertree decomposition's bags.

    {2 Node shape}

    A tree is compiled once, when {!Decomp.choose} or {!Ghd.plan} builds
    the plan that [Eval.prepare] caches.  Every node has one shape: a
    variable frame (slots numbered at compile time), an op array per atom
    (compare with a constant slot, check a bound slot, bind a slot), the
    slots of its own key (the variables shared with its parent) and, per
    child, the slots of the child's key in this frame.  Constants are
    slots, resolved against the structure once per count.  Bottom-up,
    each node weighs every row it produces by the product of its
    children's table entries at the row's lookup projections, and
    aggregates the weights at the row's key projection.  The
    running-intersection property makes each key a complete interface,
    so the root's entry at the empty key is |Hom(component, D)|.

    {2 Two row sources}

    - An {e atom scan} (every node of an acyclic component's join tree)
      matches its atom's ops against each tuple of one relation.  It ticks
      once on entry and once per tuple.
    - A {e bag join} (every node of a decomposition) joins the bag's atoms
      by index probes in a compiled order and hands each distinct
      projection onto the bag's variables χ to the weigh-and-aggregate step
      as the join reaches it, so bag rows are never stored and walked a
      second time.  It ticks once per candidate tuple and once per tuple a
      pre-projected step reads, never per bag.  Each distinct row adds one
      to [ghd_bag_rows], and each count of a tree with bag joins adds one
      to [ghd_runs]; both cells live here because only this module sees
      bag rows.

    Compiled trees are immutable and shared: a hunt counts one prepared
    plan on several worker domains, and the server's plan cache serves
    every connection.  Frames, constant values and tables are allocated
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

val compile : ('a -> spec * string list * 'a list) -> 'a -> t
(** [compile view top] compiles the tree whose nodes [view] describes as
    (row source, key variables, children), rooted at [top].  The key of
    the root must be empty; every other key must be variables of both the
    node and its parent. *)

val count : ?budget:Bagcq_guard.Budget.t -> t -> Structure.t -> Nat.t
(** The one-shot count, run by {!Decomp.count} for [Eval] and the store's
    recounts: one bottom-up pass over {!Index.all} and index probes that
    keeps no reverse maps and drops each table once its parent has read
    it.  An uninterpreted constant answers zero before the first tick.
    Ticks [?budget] by the rule above and unwinds with
    {!Bagcq_guard.Budget.Exhausted_} on a trip. *)

(** {2 Materialised state}

    For trees of atom scans only: the per-node tables kept alive, the
    substrate of the store's maintained counts.  A tuple insert or delete
    updates the nodes carrying the mutated symbol with one exact
    {!Nat.add} or {!Nat.sub} at the tuple's key projection, and the change
    climbs the tree as per-key deltas.  Each node keeps, per child, a
    reverse map from the child's key to the node's tuples matching its
    ops; membership does not depend on weight, so a tuple weighing zero
    stays reachable for when its child's entry grows.  An ancestor thus
    re-weighs only the tuples joining a changed key: O(depth × fan-in of
    the mutated key) per delta.  Only when the mutated symbol reaches a
    node along several paths does the node rescan its relation.  Scans
    read {!Structure.tuple_array}, not {!Index.all}: each write makes a
    new snapshot, and an index per snapshot would cost more than the
    delta. *)

type state
(** Mutable: {!delta} updates it in place, so it must be guarded by
    whatever lock guards its database.  After a budget trip mid-{!delta}
    the tables may be half-propagated: discard the state and rebuild;
    never read {!total} from it. *)

val build : ?budget:Bagcq_guard.Budget.t -> t -> Structure.t -> state option
(** One bottom-up pass filling every node's table and reverse maps.
    [None] when a constant is uninterpreted: the count is zero and not
    maintainable, since a later insert can bind the constant.  Ticks
    [?budget] like {!count}.  Raises [Invalid_argument] on a tree with
    bag joins. *)

val total : state -> Nat.t
(** The root's entry at the empty key: |Hom(component, D)|.  O(1). *)

val delta :
  ?budget:Bagcq_guard.Budget.t ->
  state ->
  Structure.t ->
  Symbol.t ->
  Tuple.t ->
  add:bool ->
  unit
(** [delta st d sym tup ~add] folds one tuple insert ([add:true]) or
    delete into the tables.  [d] is the structure {e after} the mutation
    (a rescan reads it); the caller guarantees the mutation was exactly
    this tuple — inserted while absent, deleted while present — which
    makes the subtraction exact.  A symbol no node scans returns at once.
    Ticks [?budget] once per node the tuple itself updates, once per tuple
    a propagation re-weighs, and like {!build} for a node that rescans. *)
