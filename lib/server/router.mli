(** Request dispatch: one NDJSON line in, one NDJSON line out.

    The router owns everything a request needs — the server-wide budget
    caps, the shared {!Cache}, the data plane's {!Bagcq_store.Store}
    (whose every committed mutation evicts that database's memo entries),
    the hunt parallelism setting and the service counters — and
    guarantees two properties the protocol promises:

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

type t

val create : ?caps:caps -> ?hunt_jobs:int -> unit -> t
(** [?caps] defaults to 50M ticks and 10 s: generous for real queries,
    final for hostile ones.  [hunt_jobs] (default 1) is the worker-domain
    count each hunt request fans out over — independent of the
    cross-request concurrency, which belongs to the TCP admission pool
    ({!Serve.tcp}'s [workers]).  The CLI answers its query verbs through
    a router too, created with no caps, so only the verb's own [--fuel] /
    [--timeout-ms] bound it. *)

val caps : t -> caps
val cache : t -> Cache.t

val metrics : t -> Bagcq_obs.Metrics.t
(** The router's own registry: per-op request counters and latency
    histograms ([server_requests], [server_request_ms]), response
    counters by status ([server_responses]), the in-flight gauge,
    budget-tick and connection counters, the admission cells
    ([server_shed], [server_queue_depth], [server_lines_oversized] —
    precreated here so a dump always shows the full family even when
    nothing was ever shed), and the shared cache's counters.  The [metrics] op dumps these rows merged with
    {!Bagcq_obs.Metrics.global} (the library layers' registry). *)

val handle_line : ?deadline:float -> t -> string -> string
(** Parse, dispatch, print.  Total: any input line yields a response
    line.  [deadline] (absolute [Unix.gettimeofday] seconds) is the
    request's admission deadline: composed into the per-request budget,
    so time already spent queued counts against the request — see
    {!Bagcq_guard.Budget.create}. *)
