(** Query containment baselines: the decidable problems the paper's
    undecidable ones generalise.

    - Set semantics ([QCP^set_CQ]): Chandra–Merlin — [φ_s ⊆ φ_b] iff
      [φ_b] has a homomorphism into the canonical structure of [φ_s]
      (NP-complete, decidable).
    - Bag {e equivalence} of CQs: Chaudhuri–Vardi — equal counts on every
      database iff the queries are isomorphic.
    - Bag containment ([QCP^bag_CQ]): open!  The best this library — or
      anyone — can do is search for counterexamples ({!Bagcq_search}) and
      verify candidate witnesses, which is what these helpers support. *)

open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq

val set_contains :
  ?budget:Bagcq_guard.Budget.t -> small:Query.t -> big:Query.t -> unit -> bool
(** Chandra–Merlin containment test for boolean CQs without inequalities
    ([D ⊨ small ⇒ D ⊨ big] for all [D]).  Raises [Invalid_argument] when
    either query has inequalities.  The homomorphism check is NP-hard, so a
    [?budget] bounds it like every other search in the engine. *)

val bag_equivalent : ?budget:Bagcq_guard.Budget.t -> Query.t -> Query.t -> bool
(** Chaudhuri–Vardi: syntactic isomorphism ({!Bagcq_hom.Morphism.isomorphic}).
    Its search is exponential in the worst case, so a [?budget] bounds it
    like the Chandra–Merlin check; the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} when it trips. *)

val bag_counts :
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  small:Query.t ->
  big:Query.t ->
  Structure.t ->
  Nat.t * Nat.t
(** With [?cache], plans for [small] and [big] compile once across the
    thousands of candidate databases a hunt checks. *)

val bag_violation :
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  small:Query.t ->
  big:Query.t ->
  Structure.t ->
  bool
(** [small(D) > big(D)] — a witness against bag containment.  With
    [?budget] the two exact counts tick it; the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} when it trips. *)

(** {2 Unions of CQs}

    Set-semantics UCQ containment stays decidable (Sagiv–Yannakakis):
    [∪ᵢ sᵢ ⊆ ∪ⱼ bⱼ] iff every [sᵢ] is contained in {e some} [bⱼ].  Bag
    semantics flips: [QCP^bag_UCQ] is undecidable (Ioannidis–Ramakrishnan),
    so the bag helpers only evaluate candidate witnesses. *)

val ucq_set_contains_counted :
  ?budget:Bagcq_guard.Budget.t ->
  small:Ucq.t ->
  big:Ucq.t ->
  unit ->
  bool * int
(** The ∀∃ decision procedure, with the number of inner Chandra–Merlin
    checks it spent.  Each check counts over the canonical structure of
    one disjunct of [small] ({!Bagcq_hom.Eval.satisfies}), ticking [?budget];
    the count is deterministic for a given pair, because the ∃ scan
    short-circuits left to right.  The wire's [ucq_contain] reports it.
    Raises [Invalid_argument] on inequalities.  The empty union is
    contained in everything; nothing non-empty is contained in the empty
    union. *)

val ucq_bag_equivalent : ?budget:Bagcq_guard.Budget.t -> Ucq.t -> Ucq.t -> bool
(** Chaudhuri–Vardi lifted to unions: equal counts on every database iff
    the multisets of isomorphism classes of disjuncts coincide.  The
    pairing runs one {!bag_equivalent} test per candidate couple, all
    ticking the one [?budget]. *)

val ucq_bag_counts :
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  small:Ucq.t ->
  big:Ucq.t ->
  Structure.t ->
  Nat.t * Nat.t
(** Summed per-disjunct counts; with [?cache], components shared between
    disjuncts (of either union) compile and count once. *)

val ucq_bag_violation :
  ?budget:Bagcq_guard.Budget.t ->
  ?cache:Bagcq_hom.Eval.cache ->
  small:Ucq.t ->
  big:Ucq.t ->
  Structure.t ->
  bool
(** [small(D) > big(D)] under bag-union semantics. *)
