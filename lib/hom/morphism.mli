(** Homomorphisms between queries, onto-homomorphisms, and isomorphism.

    A homomorphism of queries [h : ρ_b → ρ_s] maps variables to terms so
    that atoms map to atoms and constants are fixed.  Lemma 12's proof
    technique is implemented here: if an {e onto} such [h] exists then
    [ρ_s(D) ≤ ρ_b(D)] for every [D], because [g ↦ g∘h] injects
    [Hom(ρ_s,D)] into [Hom(ρ_b,D)].

    Isomorphism of queries is the Chaudhuri–Vardi characterisation of
    bag-equivalence for CQs, used as a decidable baseline in
    {!Bagcq_reduction.Containment}. *)

open Bagcq_cq

type hom = Term.t Map.Make(String).t
(** A variable-to-term map; constants are implicitly fixed. *)

val is_hom : hom -> Query.t -> Query.t -> bool
(** [is_hom h source target]: every atom of [source] maps into the atom set
    of [target] (inequalities of [source] must map to inequalities
    syntactically present in [target] or to pairs of distinct constants). *)

val is_onto : hom -> Query.t -> Query.t -> bool
(** The image of [h] covers all terms of the target: every variable and
    constant of [target] is [h(t)] for some term [t] of [source]
    (constants cover themselves). *)

val find_hom : Query.t -> Query.t -> hom option
(** Some homomorphism [source → target]: the first the leapfrog
    ({!Wcoj.iter}) finds on the target's canonical structure.  Ignores
    inequalities of the source unless they map to distinct terms — for
    inequality-free queries this is exact. *)

val exists_onto_hom : Query.t -> Query.t -> bool
(** Whether some onto homomorphism [source → target] exists.  Exponential
    in the worst case; meant for the moderately sized reduction queries. *)

val count_dominates : Query.t -> Query.t -> bool
(** [count_dominates bigger smaller]: sound, incomplete sufficient
    condition for [smaller(D) ≤ bigger(D)] for all [D] — the onto-
    homomorphism criterion of Lemma 12 ([bigger] plays ρ_b, [smaller]
    plays ρ_s). *)

val isomorphic : ?budget:Bagcq_guard.Budget.t -> Query.t -> Query.t -> bool
(** Query isomorphism: a bijective variable renaming turning one atom set
    (and inequality set) into the other, variables that occur only in
    inequalities included.  Characterises bag-equivalence of CQs
    (Chaudhuri–Vardi).  Once the variable, atom and inequality counts and
    the symbol multisets agree, it searches only the maps that are
    injective and carry inequalities onto inequalities: each query's
    inequalities become atoms of a fresh binary relation, in both
    orientations, in the first query and in the second's canonical
    structure, and one more inequality between every two variables of
    the first query keeps them apart, as a leapfrog ≠ filter
    ({!Wcoj.compile}).  So queries whose inequalities sit differently
    are refuted without walking the other homomorphisms.
    The search can still take exponentially many steps: [?budget] ticks as
    {!Wcoj.iter} does, and the call unwinds with
    {!Bagcq_guard.Budget.Exhausted_} on a trip. *)

(** {2 Cores and set-semantics equivalence (Chandra–Merlin)} *)

val retract : Query.t -> Query.t option
(** One proper retraction: an endomorphism of the query whose image misses
    at least one variable, yielding the strictly smaller image subquery.
    [None] when the query is its own core.  Inequality-free queries only
    (raises [Invalid_argument] otherwise). *)

val core : Query.t -> Query.t
(** The core — the minimal retract, unique up to isomorphism.  Two
    inequality-free CQs are set-semantics equivalent iff their cores are
    isomorphic. *)

val set_equivalent : Query.t -> Query.t -> bool
(** Homomorphisms both ways between the canonical structures — boolean
    set-semantics equivalence: each query's canonical structure satisfies
    the other ({!Eval.satisfies}). *)
