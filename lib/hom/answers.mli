(** Non-boolean conjunctive queries: answer {e bags}.

    Section 1.1 states QCP for general queries, whose result [Ψ(D)] is a
    multiset of tuples; Section 2.3 then explains how constants in boolean
    queries trade against free variables.  This module evaluates a CQ with
    a tuple of head terms to its answer bag — each answer tuple paired with
    its multiplicity, the number of homomorphisms projecting to it — and
    decides the multiset inclusions the general QCP speaks about.

    A head variable that does not occur in the body ranges over the whole
    active domain (the usual semantics of free variables). *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

type bag
(** A finite multiset of answer tuples with {!Nat.t} multiplicities. *)

val answers : head:Term.t list -> Query.t -> Structure.t -> bag
(** Every homomorphism of the body, enumerated on the leapfrog
    ({!Wcoj.iter}), projected onto the head.  A head constant
    without an interpretation yields the empty bag, as does a body with an
    uninterpreted constant. *)

val cardinal : bag -> Nat.t
(** Total multiplicity — for an empty head this is exactly the boolean bag
    count [ψ(D)]. *)

val support : bag -> Tuple.t list
(** The distinct answer tuples, sorted. *)

val multiplicity : bag -> Tuple.t -> Nat.t

val included : bag -> bag -> bool
(** Multiset inclusion: every tuple's multiplicity on the left is ≤ its
    multiplicity on the right. *)

val equal : bag -> bag -> bool

val contained_on :
  head_small:Term.t list ->
  head_big:Term.t list ->
  small:Query.t ->
  big:Query.t ->
  Structure.t ->
  bool
(** One instance of the general [QCP^bag]: [Ψ_s(D) ⊆ Ψ_b(D)] as multisets.
    Raises [Invalid_argument] when the two heads have different lengths. *)
