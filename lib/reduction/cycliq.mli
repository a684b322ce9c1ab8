(** The [CYCLIQ] construction and the workhorse multiplier pair
    [β_s, β_b] of Section 3.1.

    For a p-ary relation [R] (p ≥ 3), [CYCLIQ(x₁,…,x_p)] asserts that every
    cyclic rotation of the tuple is an [R]-atom.  The queries

    - [β_s = CYCLIQ(x₁,x⃗) ∧ CYCLIQ(y₁,y⃗) ∧ CYCLIQ(♥,♥̄) ∧ CYCLIQ(♠,♥̄)]
      (no inequality; the two constant conjuncts pin the witness shape),
    - [β_b = CYCLIQ(x₁,x⃗) ∧ CYCLIQ(y₁,y⃗) ∧ x₁ ≠ y₁]  (one inequality)

    multiply by [(p+1)²/2p] in the sense of Definition 3 (Lemma 5): the
    witness database — one homogeneous all-♥ cyclique plus the normal
    cyclique [♠,♥,…,♥] — achieves [β_s = (p+1)²], [β_b = 2p], and no
    non-trivial database does better. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_bignum

val r_symbol : p:int -> Symbol.t
(** The p-ary relation [R]; raises [Invalid_argument] when [p < 3]. *)

val cycliq : Symbol.t -> Term.t list -> Query.t
(** [CYCLIQ] over any symbol and terms matching its arity. *)

val beta_s : p:int -> Query.t
val beta_b : p:int -> Query.t
val ratio : p:int -> Rat.t
(** [(p+1)²/2p]. *)

val witness : p:int -> Structure.t
(** The canonical structure of [CYCLIQ(♥,♥̄) ∧ CYCLIQ(♠,♥̄)] with ♥ and ♠
    declared — the database realising condition (=) of Definition 3. *)

(** {2 Cyclique analysis (Definitions 6 and 7)} *)

type kind =
  | Homogeneous  (** [|cyclass(C)| = 1] *)
  | Degenerate  (** [1 < |cyclass(C)| < p] *)
  | Normal  (** [|cyclass(C)| = p] *)

val cycliques : Structure.t -> Symbol.t -> Tuple.t list
(** All tuples all of whose rotations are atoms — exactly the images of the
    homomorphisms of [CYCLIQ]. *)

val cyclass : Tuple.t -> Tuple.t list
(** The distinct cyclic shifts of a tuple. *)

val classify : Tuple.t -> kind

(** {2 The Lemma 9 case analysis}

    The proof of Lemma 5 rests on Lemma 9: conditioned on the two drawn
    cycliques coming from specific (unions of) cyclasses, the probability
    that their heads differ is at least [2p/(p+1)²].  The four cases
    partition all pairs:
    {ul
    {- (a) one side is a degenerate cyclass;}
    {- (b) both from [G ∪ H], where [H] is the set of homogeneous
       cycliques and [G = cyclass(\[♠,♥̄\])];}
    {- (c) two distinct normal cyclasses;}
    {- (d) within [X ∪ H] for a normal cyclass [X ≠ G].}}
    These checkers verify each conditional bound by exact counting. *)

val cyclasses : Structure.t -> Symbol.t -> Tuple.t list list
(** The ≈-classes of the cycliques of [D], each sorted. *)

val diff_fraction : Tuple.t list -> Tuple.t list -> int * int
(** [(diff, total)]: ordered pairs drawn from the two sets whose heads
    differ, out of all ordered pairs. *)

type lemma9_case = {
  label : string;
  diff : int;
  total : int;
  bound_holds : bool;  (** [diff·(p+1)² ≥ 2p·total] *)
}

val lemma9_cases : p:int -> Structure.t -> lemma9_case list option
(** All case instances for a database, or [None] when the preconditions of
    Lemma 5's proof fail (♥/♠ uninterpreted, or the pinned cycliques
    [\[♥,♥̄\]] and [\[♠,♥̄\]] absent — then [β_s(D) = 0] and there is
    nothing to prove). *)

val lemma9_partition_is_exact : p:int -> Structure.t -> bool
(** Every unordered pair of cycliques is covered by exactly one case —
    the "trivial application of the Law of Total Probability" step. *)
