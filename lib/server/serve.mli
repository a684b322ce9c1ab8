(** The serving loops: NDJSON on stdio, and a concurrent TCP front end.

    Responses always come back in request order {e per connection} —
    concurrency is an implementation detail of throughput, never of
    observable behaviour, which is what keeps the stdio server
    cram-testable and clients simple. *)

val stdio : ?max_line_bytes:int -> Router.t -> in_channel -> out_channel -> unit
(** Serve until end of input, answering each request before the next is
    read.  Stdio runs one request at a time; concurrent requests are the
    TCP front end's ({!tcp}).

    [max_line_bytes] caps a single request line (uncapped by default);
    an over-cap line is refused with a structured [bad_request] response
    — counted under [server_lines_oversized] — and ends the stream, the
    stdio analogue of the TCP loop closing the connection. *)

val default_drain_ms : int
(** 1000. *)

val tcp :
  ?max_connections:int ->
  ?on_listen:(int -> unit) ->
  ?workers:int ->
  ?queue_depth:int ->
  ?max_inflight:int ->
  ?max_line_bytes:int ->
  ?idle_timeout_ms:int ->
  ?drain_ms:int ->
  ?stop:bool Atomic.t ->
  Router.t ->
  port:int ->
  unit ->
  unit
(** The concurrent TCP front end: a single-threaded [Unix.select] event
    loop on the loopback interface (the vendored [unix] library; no
    async runtime in the container) owns every socket — nonblocking
    accepts, per-connection read buffering and line framing, ordered
    response write-back — and hands complete request lines to an
    {!Admission} pool of [workers] domains (default 1).  Many
    connections progress at once; responses to one connection still come
    back in that connection's request order (out-of-order completions
    park in a per-connection reorder table).

    {b Admission and shedding.}  [queue_depth] and [max_inflight]
    (defaults {!Admission.default_queue_depth} /
    {!Admission.default_max_inflight}) bound the admitted work; a
    request arriving past either bound is answered immediately with a
    structured [overloaded] response and counted under [server_shed] —
    overload degrades throughput, never liveness.  Admitted requests
    carry an absolute deadline ([arrival + max_timeout_ms] from the
    router caps), so queue wait counts against the request's budget.

    {b Fault containment.}  [max_line_bytes] refuses over-cap lines
    with a [bad_request] response and closes that connection
    ([server_lines_oversized]); [idle_timeout_ms] reaps connections
    that have not completed a line for that long with nothing running
    or owed — which is where slow-loris writers land, since partial
    lines do not count as activity.  A peer that vanishes mid-request
    costs one [server_connections_failed] bump and nothing else.

    {b Shutdown.}  Setting [stop] (or delivering a signal whose handler
    sets it — see the CLI) stops accepting, stops reading, and drains:
    in-flight requests are answered and flushed for up to [drain_ms]
    (default {!default_drain_ms}), then whatever remains is abandoned.
    [max_connections] stops accepting after that many connections and
    returns once they all closed — the tests' shutdown handle; omitted,
    the loop runs until stopped.

    [port = 0] picks a free port; [on_listen] receives the actual port
    once the socket is listening (how tests and the CLI learn it). *)
