(** Request dispatch: one NDJSON line in, one NDJSON line out.

    The router owns everything a request needs — the server-wide budget
    caps, the shared {!Cache}, the hunt parallelism setting and the
    service counters — and guarantees two properties the protocol
    promises:

    - {b total}: {!handle_line} never raises, whatever the bytes.  A line
      that fails to parse or decode yields a structured ["error"]
      response; an internal exception is caught and reported the same
      way.  This is property-tested against arbitrary byte sequences.
    - {b bounded}: every dispatched request runs under a
      {!Bagcq_guard.Budget.t} built from the request's [fuel] /
      [timeout_ms] clamped by the server caps (a request that asks for
      nothing still gets the caps), and budget exhaustion is a structured
      ["exhausted"] response carrying the progress statistics — PR 1's
      [Outcome] mapped onto the wire, never a hang or a crash. *)

type caps = {
  max_fuel : int option;
      (** upper bound on any request's fuel; also the default when a
          request specifies none.  [None] leaves requests uncapped. *)
  max_timeout_ms : int option;  (** same for the wall-clock deadline *)
}

val default_caps : caps
(** 50M ticks, 10s — generous for real queries, final for hostile ones. *)

type t

val create : ?caps:caps -> ?hunt_jobs:int -> unit -> t
(** [hunt_jobs] (default 1) is the worker-domain count each hunt request
    fans out over — independent of the cross-request concurrency, which
    belongs to the TCP admission pool ({!Serve.tcp}'s [workers]).  The
    CLI answers its query verbs through a router too, created with no
    caps, so only the verb's own [--fuel] / [--timeout-ms] bound it. *)

val caps : t -> caps
val cache : t -> Cache.t

val store : t -> Bagcq_store.Store.t
(** The router's data plane: named databases and their registered counts
    (the [db_create] / [db_insert] / [db_delete] / [register] /
    [unregister] / [counts] ops, plus [eval] with a [db_name] reference).
    Created with the router's registry (the [store_*] metric family) and
    wired so every committed mutation evicts the result memo's entries
    for that database; eval-by-name memo keys are additionally stamped
    with the database version, so an entry computed against a superseded
    version is unreachable even if it lands after the eviction pass. *)

val metrics : t -> Bagcq_obs.Metrics.t
(** The router's own registry: per-op request counters and latency
    histograms ([server_requests], [server_request_ms]), response
    counters by status ([server_responses]), the in-flight gauge,
    budget-tick and connection counters, the admission cells
    ([server_shed], [server_queue_depth], [server_lines_oversized] —
    precreated here so a dump always shows the full family even when
    nothing was ever shed), and the shared cache's counters.  The [metrics] op dumps these rows merged with
    {!Bagcq_obs.Metrics.global} (the library layers' registry). *)

val clamp_budget :
  caps -> Bagcq_wire.Proto.budget_spec -> Bagcq_wire.Proto.budget_spec
(** The effective per-request budget: each requested bound capped by the
    server-wide cap, with the cap itself as the default.  Exposed for
    tests. *)

val handle_json : ?deadline:float -> t -> Bagcq_wire.Json.t -> Bagcq_wire.Json.t
(** Dispatch one parsed request.  [deadline] (absolute
    [Unix.gettimeofday] seconds) is the request's admission deadline:
    composed into the per-request budget, so time already spent queued
    counts against the request — see {!Bagcq_guard.Budget.create}. *)

val handle_line : ?deadline:float -> t -> string -> string
(** Parse, dispatch, print.  Total: any input line yields a response
    line. *)

val stats_fields : t -> (string * Bagcq_wire.Json.t) list
(** The counter block the [stats] op reports: requests served by status,
    result-cache and plan/count-cache hit/miss counters, cache entries and
    [hunt_jobs] — all read from the same {!Bagcq_obs.Metrics} cells the
    [metrics] op dumps — plus a trailing [latency] object of per-op
    histogram summaries (only ops that have served at least one
    request). *)

val metrics_rows : t -> Bagcq_obs.Metrics.row list
(** The rows the [metrics] op returns: the router's registry merged with
    {!Bagcq_obs.Metrics.global}, sorted by name then labels. *)
