(** Deterministic load generation: a scripted request mix and a lockstep
    driver, shared by the [bagcq_cli client] command and the EXP-SERVE
    benchmark.

    The script cycles a small corpus of queries and databases, so a long
    enough run necessarily repeats requests — that repetition is the
    point: it is what exercises the server's shared result cache, and the
    driver counts the [cached] responses so a run's hit rate is
    observable from the client side alone. *)

val script : ?malformed_every:int -> n:int -> unit -> string list
(** [n] request lines mixing [eval], [contain], [hunt] and [ping] over a
    fixed corpus, each carrying a numeric [id] and a modest fuel budget.
    With [malformed_every = k > 0] every [k]-th line is deliberately not
    a request (invalid JSON), checking that the server answers it with a
    structured error and keeps going.  Fully deterministic: same
    arguments, same lines. *)

type summary = {
  requests : int;
  ok : int;
  errors : int;
  exhausted : int;
  shed : int;  (** responses with status [overloaded] — requests the
                   server refused at admission *)
  cached : int;  (** responses that carried [cached:true] *)
  unparsed : int;  (** response lines that were not valid JSON, plus (in
                       open-loop runs) requests never answered — always 0
                       against a correct, unsaturated server *)
  wall_s : float;
  latency : Bagcq_obs.Metrics.summary;
      (** per-request round-trip latency (send to response line read),
          bucketed by the same histogram machinery the server uses *)
}

val drive : out_channel -> in_channel -> string list -> summary
(** Send each line and read its response before sending the next
    (lockstep — no pipelining, so the driver can never deadlock on pipe
    buffers), classifying responses by their [status] field.  The
    channels face the server: [out_channel] is the server's stdin. *)

val drive_open : out_channel -> in_channel -> string list -> summary
(** The open-loop driver: a writer domain sends every line as fast as
    the pipe accepts while this domain reads responses, so the arrival
    rate is set by the generator rather than by the server — the load
    shape that exercises admission control (lockstep {!drive} can never
    overload anything, since it waits for each answer).  Responses are
    matched to their requests by [id], so the latency summary includes
    queue wait; returns when every sent line was answered or the server
    closed the stream (unanswered requests count as [unparsed]). *)

val summary_to_string : summary -> string
(** One human-readable line, e.g.
    ["40 requests in 0.123s (325.2 req/s): 38 ok, 2 errors, 0 exhausted, 0 shed, 12 cached"]. *)

(** {2 Connecting, with retries} *)

type capabilities = { api_version : int; ops : string list }
(** What a ping advertises: the protocol revision and every supported op
    name ({!Bagcq_wire.Proto.supported_ops} on the server side). *)

val handshake : Unix.file_descr -> (capabilities, string) result
(** Send one [ping] over a connected socket and read the capability
    surface out of its response.  Consumes exactly one response line. *)

val connect :
  ?retries:int -> ?backoff_ms:int -> ?require_ops:string list -> port:int ->
  unit -> (Unix.file_descr, string) result
(** Connect to [127.0.0.1:port].  On failure (connection refused — the
    server is still binding, or was restarted), retry up to [retries]
    times (default 0) with exponential backoff from [backoff_ms]
    (default 50): the [k]-th wait is [backoff_ms * 2^k] plus a
    deterministic jitter, so colliding clients spread out without a
    global RNG.  [Error] carries the last failure's message.

    With [?require_ops], feature-detect before use: a {!handshake} runs on
    the fresh connection and the call fails (closing the socket) unless the
    server's advertised [ops] include every required name — how a client
    refuses to talk [ucq_*] to a pre-UCQ server instead of collecting
    [unknown op] errors mid-run. *)

(** {2 Fault injectors}

    Hostile clients for the resilience tests and the overload benchmark:
    each one opens a real TCP connection and misbehaves in a specific
    way.  They return [Error] only when the initial connect fails —
    the misbehaviour itself is always "successful". *)

val mid_frame_disconnect :
  port:int -> ?complete:string list -> ?partial:string -> unit ->
  (unit, string) result
(** Send [complete] request lines (answers unclaimed), then [partial] —
    a frame with no newline — and hard-close.  The server must absorb
    the dangling frame and the writes to a dead peer. *)

val oversized_line :
  port:int -> bytes:int -> unit -> (string option, string) result
(** Send one [bytes]-long junk line and read back the server's refusal
    line, if any ([None] when the server closed without answering —
    only the case when the cap is not configured). *)
