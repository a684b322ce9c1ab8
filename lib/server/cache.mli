(** The process-wide cache a long-lived query service amortises across
    requests — the whole point of not being a one-shot CLI process.

    Two layers, both behind one mutex (OCaml 5 [Mutex] is domain-safe, so
    the cache can be shared by the concurrent request executor):

    - a {e result} memo: canonical request key ({!Bagcq_wire.Proto.cache_key})
      to the core response fields.  Only [Complete] results are stored —
      an [Exhausted] response depends on how far a budget got, so caching
      it would break the per-request budget contract;
    - a shared {!Bagcq_hom.Eval.cache}: compiled plans live for the process
      lifetime, so a repeated query shape — even against a fresh database —
      skips compilation.  [Eval]'s caches are share-nothing by design, so
      evaluation against this shared one runs under the mutex; hunts keep
      allocating their own per-worker caches and are not serialised.

    Every counter the cache keeps is an {!Bagcq_obs.Metrics} counter:
    the [stats] endpoint and a metrics dump read the same cells.  Note
    the process-wide {!Bagcq_obs.Metrics.set_enabled} switch therefore
    freezes these counters too. *)

type t

val max_results : int
(** 1024: the cap on the result memo's entries, and on the intern
    table's ({!intern_db}). *)

val create : ?metrics:Bagcq_obs.Metrics.t -> unit -> t
(** [metrics] names the hit/miss counters ([cache_result_hits],
    [cache_result_misses], [cache_plan_hits], [cache_plan_misses],
    [cache_count_hits], [cache_count_misses]) and the eviction counter
    ([server_cache_evicted]) in the given registry so they appear in its
    dumps.  Inserting past {!max_results} evicts that table's
    least-recently-{e used} entry first — a hit refreshes recency, so a
    hot key survives a scan of cold ones. *)

val with_eval : t -> (Bagcq_hom.Eval.cache -> 'a) -> 'a
(** Run an evaluation against the shared plan/count cache, holding the
    cache mutex for the duration.  The callback must not re-enter the
    cache. *)

val intern_db : t -> Bagcq_relational.Structure.t -> Bagcq_relational.Structure.t
(** Canonicalise a decoded database to one physical structure per
    canonical encoding ({!Bagcq_relational.Encode.to_string}).  The wire
    layer builds a fresh [Structure.t] per request; interning lets
    structure-keyed memos — the columnar join index living in the
    structure's memo slot, {!Bagcq_hom.Eval}'s per-structure count memo —
    survive across requests instead of being rebuilt for every eval of
    the same database ([hom_index_builds] stays flat).  The table is
    bounded by [max_results] with the result memo's LRU discipline; a
    database evicted from it is interned afresh on its next request and
    rebuilds its index once. *)

val find_result : t -> string -> (string * Bagcq_wire.Json.t) list option
(** Look up a canonical request key, bumping the hit/miss counters. *)

val store_result :
  ?db_name:string -> t -> string -> (string * Bagcq_wire.Json.t) list -> unit
(** No-op if the key is already present; evicts the LRU entry first when
    the memo is at capacity (bumping [server_cache_evicted]).  [db_name]
    tags the entry with the named data-plane database its request read;
    only tagged entries are ever dropped by {!evict_db}. *)

val evict_db : t -> name:string -> int
(** Drop every result entry tagged with [name] (see {!store_result}),
    returning how many were dropped (each bumps [server_cache_evicted]).
    One pass over the entries comparing tags: O(entries), and no key text
    is read.  The store's [on_mutate] hook calls this after every
    committed insert/delete.  Correctness does not hinge on it —
    eval-by-name memo keys are stamped with the database version, so an
    entry for a superseded version is already unreachable; eviction
    reclaims those dead entries instead of letting mutations fill the
    cap with garbage and evict live inline-db entries.  Named-database
    structures are never interned here (the store owns them), so there is
    nothing to invalidate in the intern table; the store clears the
    retired snapshot's memoised index views itself
    ({!Bagcq_relational.Structure.clear_memo}). *)

type stats = {
  result_hits : int;
  result_misses : int;
  result_entries : int;
  result_evicted : int;
  plan_hits : int;
  plan_misses : int;
  count_hits : int;
  count_misses : int;
}

val stats : t -> stats
