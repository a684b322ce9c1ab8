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

val sample_stream :
  ?budget:Bagcq_guard.Budget.t ->
  config ->
  Schema.t ->
  (Structure.t -> bool) ->
  outcome
(** The underlying loop: generate [config.samples] random databases and
    return the first for which the predicate holds.  A [?budget] is ticked
    once per sample; when it trips the stream unwinds with
    {!Bagcq_guard.Budget.Exhausted_} — use {!sample_stream_guarded} to keep
    the partial progress instead. *)

val sample_stream_guarded :
  budget:Bagcq_guard.Budget.t ->
  config ->
  Schema.t ->
  (Structure.t -> bool) ->
  (outcome, outcome) Bagcq_guard.Outcome.t
(** Budgeted sampling with graceful degradation: [Exhausted] carries the
    number of samples completed before the budget tripped. *)

val hunt_queries :
  ?config:config ->
  ?budget:Bagcq_guard.Budget.t ->
  small:Query.t ->
  big:Query.t ->
  unit ->
  outcome
(** Search for [small(D) > big(D)]. *)

val check_all :
  ?config:config ->
  ?budget:Bagcq_guard.Budget.t ->
  schema:Schema.t ->
  (Structure.t -> bool) ->
  outcome
(** Dual use: sample databases and return the first {e failing} the
    predicate (as [witness]) — for probabilistically validating universal
    statements such as Definition 3 (≤). *)

val schema_of_pair : Query.t -> Query.t -> Schema.t

(** {2 Parallel batches} *)

val default_batch : int
(** Samples per worker chunk (16). *)

val sample_batches_guarded :
  budget:Bagcq_guard.Budget.t ->
  ?jobs:int ->
  ?chunk:int ->
  config ->
  Schema.t ->
  (budget:Bagcq_guard.Budget.t -> Structure.t -> bool) ->
  (outcome, outcome) Bagcq_guard.Outcome.t
(** Batched, parallel variant of {!sample_stream_guarded}: sample chunks
    are fanned over [jobs] worker domains, each with its own budget shard
    absorbed back into [budget] on return.  The i-th candidate database
    depends only on [(config.seed, i)] — not on [jobs] — and the witness
    returned is the lowest-index one, so results are reproducible across
    job counts.  The sample sequence intentionally differs from
    {!sample_stream} (per-chunk RNGs instead of one stream). *)
