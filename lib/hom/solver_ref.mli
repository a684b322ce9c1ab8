(** The seed backtracking kernel, kept as a reference implementation: the
    oracle of the differential tests and of the bench rows' count checks.

    A homomorphism is a map [h : Var(ψ) → V_D] such that every atom of ψ
    maps to an atom of [D], every constant is sent to its interpretation in
    [D] (so a query mentioning an uninterpreted constant has no
    homomorphisms), and every inequality [t ≠ t'] of ψ has
    [h(t) ≠ h(t')] — the virtual-relation semantics of Section 2.1.
    Variables occurring only in inequalities range over the whole active
    domain.

    This module enumerates; callers that want the bag-semantics *count*
    with cross-component factorisation should use {!Eval}.

    Every entry point accepts an optional {!Bagcq_guard.Budget.t}.  When
    given, one tick is consumed per backtracking node (and per candidate
    tuple tried at a node), so the search unwinds with
    {!Bagcq_guard.Budget.Exhausted_} as soon as the budget trips — the
    worst-case-exponential backtracking tree can never outrun its fuel. *)

open Bagcq_relational
open Bagcq_cq

type assignment = Value.t Map.Make(String).t

val count : ?budget:Bagcq_guard.Budget.t -> Query.t -> Structure.t -> int
(** [|Hom(ψ, D)|] by exhaustive backtracking.  Linear in the number of
    homomorphisms, so only suitable per connected component — {!Eval.count}
    multiplies component counts into a {!Bagcq_bignum.Nat.t}. *)

val exists : ?budget:Bagcq_guard.Budget.t -> Query.t -> Structure.t -> bool
(** Early-exit satisfiability: [D ⊨ ψ]. *)

val enumerate :
  ?budget:Bagcq_guard.Budget.t -> ?limit:int -> Query.t -> Structure.t -> assignment list
(** All homomorphisms (or the first [limit]). *)

val iter :
  ?budget:Bagcq_guard.Budget.t -> (assignment -> unit) -> Query.t -> Structure.t -> unit

val fold :
  ?budget:Bagcq_guard.Budget.t ->
  ('a -> assignment -> 'a) ->
  'a ->
  Query.t ->
  Structure.t ->
  'a
