(** Randomised counterexample hunting for bag containment.

    [QCP^bag_CQ] is not known to be decidable; what a tool {e can} do is
    hunt for witnesses [small(D) > big(D)] over random databases, which is
    exactly what the undecidability constructions predict must exist when
    the encoded inequality is violable. *)

open Bagcq_relational
open Bagcq_cq

type config = {
  sizes : int list;  (** domain sizes to try, in order *)
  densities : float list;  (** atom densities to cycle through *)
  samples : int;  (** total number of random databases *)
  seed : int;
  require_nontrivial : bool;
      (** bind ♥/♠ to two distinct fresh elements, as the non-triviality
          side conditions of Theorems 1 and 3 require *)
}

val default : config

type outcome = {
  witness : Structure.t option;
  tested : int;  (** databases actually evaluated *)
}

val sample_batches_guarded :
  budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  config ->
  Schema.t ->
  (budget:Bagcq_guard.Budget.t -> Structure.t -> bool) ->
  (outcome, outcome) Bagcq_guard.Outcome.t
(** The one sample stream: generate [config.samples] random databases and
    return the first on which the predicate holds.  Sample [i] cycles
    through [config.sizes] by [i] and through [config.densities] by
    [i / |sizes|], and is drawn from an RNG seeded with [config.seed] and
    the start of [i]'s chunk of 16 samples — so sample [i] depends only on
    the seed and [i], and every caller (library, CLI, [serve]) draws the
    same sequence.

    Chunks are fanned over [jobs] worker domains (default 1).  At one job
    [budget] is ticked directly, once per sample; otherwise each worker
    draws on a shard of it, absorbed back on return.  The witness is the
    lowest-index one, so it does not depend on [jobs].  [Exhausted]
    carries the samples completed before [budget] tripped.  A trip of a
    budget other than the one passed to the predicate propagates as
    {!Bagcq_guard.Budget.Exhausted_}. *)

val check_all :
  ?config:config -> schema:Schema.t -> (Structure.t -> bool) -> outcome
(** Dual use: run the same stream at one job and return the first database
    {e failing} the predicate (as [witness]) — for probabilistically
    validating universal statements such as Definition 3 (≤). *)

val schema_of_pair : Query.t -> Query.t -> Schema.t
