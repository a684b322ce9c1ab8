(** Bounded-width generalised hypertree decompositions (GHDs).

    A width-[w] GHD turns a cyclic component into an acyclic one over
    {e bags of atoms}: each bag [B] carries a variable set [χ(B)] and a
    cover [λ(B)] of at most [w] atoms with [χ(B) ⊆ vars(λ(B))], the bags
    form a tree in which every variable's bags are connected (the
    running-intersection property), and every query atom fits inside some
    bag.  Joining each bag — the distinct projections onto [χ(B)] of the
    join of its atoms — inside the join-tree DP ({!Jtree}) then
    counts homomorphisms in time polynomial in the bag sizes, where the leapfrog kernel on the flat query can degrade toward
    its worst case ([AGM] bound) on large relation intersections.

    The decomposition search runs on the query's variable graph (a clique
    per atom) through elimination orders: exact by a subset DP for small
    queries (≤ 8 atoms), greedy min-degree with a min-fill tiebreak above
    — min-degree alone is exact on treewidth ≤ 2 graphs, the regime
    {!Decomp.choose}'s cost model routes here.  Bag covers are searched
    exhaustively up to three atoms; {!plan} refuses (returns [None]) when
    that does not suffice, and the planner falls back to leapfrog. *)

open Bagcq_relational
open Bagcq_cq

type bag
(** One bag: χ, λ, the assigned atoms, the parent interface, children. *)

type t
(** A full decomposition of one connected, inequality-free component. *)

val plan : Query.t -> t option
(** Search for a decomposition.  [None] when the query carries
    inequalities, has fewer than three atoms, or no cover of at most
    three atoms exists for some bag — callers then keep the flat
    strategies.  Bumps [ghd_plans_built] on success. *)

val width : t -> int
(** Max cover size over the bags — the generalised hypertree width of the
    decomposition (not necessarily of the query). *)

val nbags : t -> int

val jtree : t -> Jtree.t
(** The decomposition's DP, compiled by {!plan}: one bag-join node per
    bag.  {!Decomp.count} runs it. *)

val count : ?budget:Bagcq_guard.Budget.t -> t -> Structure.t -> Bagcq_bignum.Nat.t
(** [Jtree.count (jtree g)]: the engine's one-shot count, kept as a name
    because perfbench's replay calls it.  An uninterpreted constant yields
    zero; one budget tick per candidate tuple, so fuel trips mid-bag;
    bumps [ghd_runs] and [ghd_bag_rows]. *)

(** {2 Reporting} — the decomposition shape, for [bagcq explain]. *)

val root : t -> bag
val bag_vars : bag -> string list  (** χ(B), sorted. *)

val bag_cover : bag -> Atom.t list  (** λ(B). *)

val bag_atoms : bag -> Atom.t list
(** Everything the bag joins — λ(B) plus assigned atoms — in the
    backtracking join order the materialisation uses. *)

val bag_key : bag -> string list
(** χ(B) ∩ χ(parent), the DP interface ([[]] at the root). *)

val bag_children : bag -> bag list

val render : t -> string list
(** Human-readable tree: one header line (width, bag count), then one
    indented line per bag. *)
