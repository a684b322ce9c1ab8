(** A dependency-free Domain pool for chunked sweeps over integer ranges.

    The container ships no [domainslib]; this is the minimal substitute the
    search layer needs.  [sweep] splits [0 .. n-1] into fixed-size chunks
    and lets the worker domains claim chunks through one atomic counter —
    cheap dynamic load balancing without per-item synchronisation.  Three
    properties the callers rely on:

    - chunk numbers are claimed in increasing order, and a claimed chunk is
      always scanned to completion, so "first hit in the lowest chunk each
      worker saw" is well-defined regardless of scheduling;
    - with one worker nothing is spawned: the sweep runs inline on the
      calling domain and visits the range in exactly serial order;
    - a [`Stop] from any worker (or an exception) halts the sweep at the
      next chunk boundary of every other worker.

    Helper domains are expensive on small machines — each one joins every
    stop-the-world collection for as long as it lives, which on a one-core
    box made jobs=4 sweeps several times {e slower} than jobs=1.  So the
    pool (a) never runs more domains than
    [Domain.recommended_domain_count ()], and (b) spawns lazily: the
    calling domain claims chunks inline and helpers appear only once
    [spawn_threshold_ms] of wall clock has passed with chunks still
    unclaimed.  Short sweeps therefore execute as plain sequential loops;
    both claim-order properties above are unaffected because helpers pull
    from the same atomic counter.

    Worker state (budget shards, per-worker caches, result slots) is
    allocated by the caller and passed in [workers]; the pool never touches
    it beyond handing element [i] to worker [i]. *)

val jobs_env_var : string
(** ["BAGCQ_JOBS"]. *)

val default_jobs : unit -> int
(** The value of [BAGCQ_JOBS] when set (raising [Invalid_argument] if it is
    not a positive integer), else [Domain.recommended_domain_count ()]. *)

val sweep :
  ?chunk:int ->
  ?spawn_threshold_ms:float ->
  n:int ->
  workers:'w array ->
  body:('w -> int -> int -> [ `Continue | `Stop ]) ->
  unit ->
  unit
(** [sweep ~n ~workers ~body ()] calls [body w lo hi] for consecutive
    chunks [\[lo, hi)] of [0 .. n-1], [?chunk] (default 64) items each.
    [Array.length workers] is the upper bound on concurrency (the calling
    domain counts as one; at most one domain per chunk and per hardware
    core is ever spawned, and none before [?spawn_threshold_ms] (default
    0.5) of inline work has elapsed — pass [0.] to spawn eagerly).  The
    first exception raised by any worker is re-raised after all domains
    joined. *)
