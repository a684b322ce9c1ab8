(** Deterministic execution budgets for the semi-decision search loops.

    [QCP^bag] containment is undecidable (Theorem 1), so every search the
    engine runs — homomorphism search, exhaustive database enumeration,
    random sampling — is potentially unbounded.  A budget is a
    mutable tick counter with an optional {e fuel} limit (a deterministic
    cap on the number of ticks) and an optional wall-clock {e deadline}.
    Hot loops call {!tick} once per unit of work (one kernel seek or
    table row, one candidate database, one random sample); when the budget trips, the
    internal {!Exhausted_} exception unwinds to the nearest
    {!Outcome.guard}, which converts it into a structured
    [Exhausted] outcome instead of an infinite hang.

    Fuel is fully deterministic — the same inputs with the same fuel trip
    at the same tick on any machine — which is what the replay-style tests
    rely on.  Deadlines poll the clock only every {!clock_check_period}
    ticks so that guarded hot paths stay cheap. *)

type reason =
  | Fuel  (** the deterministic tick limit was spent *)
  | Deadline  (** the wall-clock deadline passed *)

val reason_to_string : reason -> string

type t

exception Exhausted_ of reason
(** Control-flow exception raised by {!tick} when the budget trips.  It is
    meant to be caught by {!Outcome.guard} (or {!protect}); letting it
    escape to the user is a bug in the caller. *)

val unlimited : unit -> t
(** A budget that never trips; ticks are still counted, so unlimited
    budgets double as work meters. *)

val create : ?fuel:int -> ?timeout_ms:int -> ?deadline:float -> unit -> t
(** [create ?fuel ?timeout_ms ?deadline ()] — [fuel] is the number of ticks
    allowed (the [fuel+1]-th tick trips; 0 means the very first tick
    trips); [timeout_ms] is a wall-clock deadline measured from now;
    [deadline] is an {e absolute} wall-clock deadline ([Unix.gettimeofday]
    seconds) that composes with [timeout_ms] by taking whichever is
    earlier — how an admission queue propagates the time a request already
    spent waiting into its execution budget.  A [deadline] that has
    already passed yields a budget whose very first tick trips with
    {!Deadline}.  Omitting everything yields an unlimited budget.  Raises
    [Invalid_argument] on negative values. *)

val fault_at : ?reason:reason -> tick:int -> unit -> t
(** Fault injection for tests: a budget that trips exactly when the
    [tick]-th tick is consumed, reporting [reason] (default {!Fuel}).
    [~reason:Deadline] exercises deadline unwinding deterministically,
    without any clock. *)

val tick : t -> unit
(** Consume one tick.  Raises {!Exhausted_} if the budget is already spent
    (a tripping call does not inflate {!ticks} past the fuel limit); once
    tripped, every subsequent [tick] raises again, so a budget cannot be
    accidentally reused to continue a spent search. *)

val ticks : t -> int
(** Ticks consumed so far — the work meter reported in CLI output. *)

val tripped : t -> reason option
(** [Some r] once the budget has tripped. *)

type snapshot = {
  ticks : int;  (** ticks consumed so far *)
  fuel_left : int option;
      (** remaining fuel, [None] for a fuel-unlimited budget.  For a
          shard this is the {e local} unspent allowance, not the pool's. *)
  elapsed_ms : float;  (** wall-clock ms since the budget was created *)
  tripped : reason option;
}
(** The one budget report every surface shares — Router responses, CLI
    exit messages and the metrics dump all render this record, so fuel
    and time accounting cannot drift between them. *)

val snapshot : t -> snapshot

val snapshot_to_string : snapshot -> string
(** ["142 ticks in 3ms (fuel left 58)"] — the human rendering the CLI
    embeds in its exhaustion messages. *)

val is_unlimited : t -> bool

val clock_check_period : int
(** Deadline budgets poll the clock once per this many ticks (a power of
    two), bounding the guard overhead on hot paths. *)

val protect : t -> (unit -> 'a) -> ('a, reason) result
(** [protect b f] runs [f], converting an escaped {!Exhausted_} into
    [Error reason].  Lower-level than {!Outcome.guard}; useful when there
    is no meaningful partial result. *)

(** {2 Budget sharding for parallel sweeps}

    A parallel sweep gives each worker domain its own shard so the hot
    {!tick} path stays un-synchronised.  Shards draw fuel from the parent's
    remaining allowance in blocks through one shared atomic counter:
    exhaustion of the pool trips every shard (at its next block boundary),
    and after the sweep each shard is {!absorb}ed back into the parent, so
    the parent's {!ticks} is the total work done and its {!tripped} reflects
    any shard's exhaustion.  The total ticks a sharded sweep can spend
    before tripping differs from the serial figure by at most one
    (partially-unused) block per worker.

    Deadlines and fault injection are inherited by every shard; a shard's
    fault trips at the shard's {e local} tick count. *)

type pool

val default_shard_block : int
(** 512 ticks per draw. *)

val shard_pool : ?block:int -> t -> pool
(** Snapshot the parent's remaining fuel into a shared pool.  Raises
    [Invalid_argument] on [block < 1] or when the parent is itself a shard.
    The parent should not be ticked while the pool is live — resharding
    later is fine, because the pool snapshots [fuel - ticks] at creation. *)

val shard : pool -> t
(** A fresh worker budget drawing on the pool. *)

val absorb : t -> into:t -> unit
(** [absorb child ~into:parent] adds the child's ticks to the parent and
    propagates the child's tripped state (first one wins). *)
