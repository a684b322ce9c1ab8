(** Typed request/response codecs for the bagcq query service.

    One request is one NDJSON object.  The [op] field selects the shape;
    query and database payloads reuse the CLI's surface syntax
    ({!Bagcq_cq.Parse} for queries, {!Bagcq_relational.Encode} for
    databases), so anything that can be typed at the CLI can be sent over
    the wire verbatim:

    {v
      {"op":"ping","id":1}
      {"op":"eval","query":"E(x,y) & E(y,z)","db":"E(1,2). E(2,1).","fuel":10000}
      {"op":"contain","small":"E(x,y) & E(y,z)","big":"E(x,y)"}
      {"op":"hunt","small":"E(x,y) & E(y,z)","big":"E(x,y)","samples":100,
       "exhaustive_size":2,"seed":24301,"timeout_ms":500}
      {"op":"stats"}
    v}

    Every request may carry [id] (any JSON value, echoed back unchanged in
    the response — how a pipelining client matches responses to requests),
    and [fuel] / [timeout_ms] (non-negative integers, the per-request
    budget; the server clamps both by its own caps).

    Responses always carry ["status"]: ["ok"], ["exhausted"] (the budget
    tripped — PR 1's [Outcome.Exhausted] on the wire, never a crash) or
    ["error"] (the line was not a well-formed request).  Builders here emit
    fields in a fixed order so responses are byte-stable for cram tests. *)

open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat

type budget_spec = { fuel : int option; timeout_ms : int option }

type db_ref = Db_inline of Structure.t | Db_named of string
(** An eval target: database text carried inline in the request ("db"),
    or the name of a data-plane database held by the server ("db_name").
    Exactly one of the two fields must be present. *)

type op =
  | Ping
  | Stats
  | Metrics
  | Eval of { query : Query.t; db : db_ref }
  | Contain of { small : Query.t; big : Query.t }
  | Hunt of {
      small : Query.t;
      big : Query.t;
      samples : int;
      exhaustive_size : int;
      seed : int;
    }
  | Ucq_eval of { query : Ucq.t; db : db_ref }
      (** Same [db]-inline-xor-[db_name] shape as [Eval], so data-plane
          databases serve union queries too. *)
  | Ucq_contain of { small : Ucq.t; big : Ucq.t }
  | Ucq_hunt of {
      small : Ucq.t;
      big : Ucq.t;
      samples : int;
      exhaustive_size : int;
      seed : int;
    }
  | Db_create of { name : string; db : Structure.t }
      (** ["db"] is optional initial contents ({!Bagcq_relational.Encode}
          syntax); omitted means empty. *)
  | Db_insert of { name : string; fact : Symbol.t * Tuple.t }
      (** ["fact"] is one atom in {!Bagcq_relational.Encode} syntax, e.g.
          ["E(1,2)"] — text with any other number of atoms is a decode
          error. *)
  | Db_delete of { name : string; fact : Symbol.t * Tuple.t }
  | Register of { name : string; query : Query.t }
  | Unregister of { name : string; query : Query.t }
  | Counts of { name : string }

type request = { id : Json.t option; budget : budget_spec; op : op }

val op_name : op -> string
(** ["ping"], ["stats"], ["metrics"], ["eval"], ["contain"], ["hunt"],
    ["ucq_eval"], ["ucq_contain"], ["ucq_hunt"], ["db_create"],
    ["db_insert"], ["db_delete"], ["register"], ["unregister"],
    ["counts"]. *)

val api_version : int
(** Protocol revision advertised by {!ping_response}; bumped whenever an op
    is added or a shape changes. *)

val supported_ops : string list
(** Every op name the service understands, in canonical order — the
    ["ops"] capability array of {!ping_response}.  Clients feature-detect
    against this instead of probing with trial requests. *)

val decode : Json.t -> (request, string) result
(** Decode a parsed line.  Errors are human-readable and name the
    offending field uniformly across every op — ["missing field: small"]
    when absent, ["field small: <detail>"] for a present-but-bad value —
    and payload syntax errors (query/database) are decode errors too, so a
    request can never half-execute. *)

val decode_line : string -> (request, string) result
(** {!Json.parse} composed with {!decode}. *)

val cache_key : request -> string
(** A canonical spelling of the request {e without} its [id]: two requests
    with the same key are semantically identical (same op, same payloads,
    same budget), which is what the server's shared result cache is keyed
    on.  Parsed payloads are re-printed — a query by the flat
    {!Bagcq_cq.Query.to_string}, a union by {!Bagcq_cq.Ucq.to_string} over
    it — so formatting differences in the incoming text do not split
    cache entries.  The key is injective on the normalised query, not on
    its shape: [E('v5',q0)] and [E('v5',q1)] are two keys, and the plan
    map, not this memo, is where queries of one shape meet. *)

(** {2 Response builders}

    A completed response is built in two steps: an op-specific {e core}
    field list (what the server's result memo stores), then {!attach},
    which prepends the echoed [id] and inserts the [cached] marker.  The
    split is what lets a cache hit replay a stored core byte-identically
    except for [cached]. *)

val eval_core : count:Nat.t -> satisfied:bool -> ticks:int -> (string * Json.t) list
(** [count] is decimal-in-a-string: bag counts overflow both OCaml's [int]
    and JSON's interoperable float range almost immediately. *)

val contain_core :
  set_contains:bool option -> bag_equivalent:bool -> ticks:int ->
  (string * Json.t) list
(** [set_contains = None] (printed [null]) when inequalities make the
    Chandra–Merlin check inapplicable. *)

val witness_fields : (Structure.t * Nat.t * Nat.t) option -> (string * Json.t) list
(** [violated:true] with the database in {!Encode} syntax and the two
    counts, or [violated:false]. *)

val hunt_core :
  ?op:string -> witness:(Structure.t * Nat.t * Nat.t) option ->
  exhaustive_complete:bool -> tested_random:int -> ticks:int -> unit ->
  (string * Json.t) list
(** [?op] defaults to ["hunt"]; the UCQ hunt reuses the same shape under
    ["ucq_hunt"]. *)

val ucq_eval_core :
  count:Nat.t -> satisfied:bool -> disjuncts:int -> ticks:int ->
  (string * Json.t) list
(** [count] is the bag-union count (sum over disjuncts); [disjuncts] echoes
    how many the union had. *)

val ucq_contain_core :
  set_contains:bool option -> bag_equivalent:bool -> hom_checks:int ->
  ticks:int -> (string * Json.t) list
(** [set_contains] is the ∀∃ Sagiv–Yannakakis verdict ([null] when
    inequalities make it inapplicable); [hom_checks] counts the inner
    Chandra–Merlin checks the decision spent. *)

(** {2 Data-plane cores}

    The store ops' responses reuse the same core/attach split even though
    they are never memoised — the [cached] marker is always [false]. *)

val db_create_core : atoms:int -> (string * Json.t) list

val mutation_core :
  op:string -> atoms:int -> registrations:int -> maintained:int ->
  recomputed:int -> stale:int -> ticks:int -> (string * Json.t) list
(** [op] is ["db_insert"] or ["db_delete"]; the counts say how each
    registration absorbed the delta (see {!Bagcq_store.Store.mutation}). *)

val register_core :
  count:Nat.t -> components:int -> maintained:int -> ticks:int ->
  (string * Json.t) list

val unregister_core : unit -> (string * Json.t) list

val count_row_json : query:string -> count:Nat.t -> maintained:bool -> Json.t

val counts_core : rows:Json.t list -> ticks:int -> (string * Json.t) list

val attach : ?id:Json.t -> cached:bool -> (string * Json.t) list -> Json.t
(** Finish a core into a response object. *)

(** {2 Errors and exhaustion}

    Every non-ok response goes through {!error_body}, so decode failures,
    internal errors, and budget exhaustion all share one shape: [id], [op]
    (when known), [status], [code], a kind-specific detail, then the budget
    snapshot fields and any op-specific progress fields. *)

type error_kind =
  | Bad_request  (** the line was not a well-formed request *)
  | Internal  (** the engine raised — a bug surfaced, not hidden *)
  | Exhausted of Bagcq_guard.Budget.reason
      (** the budget tripped — PR 1's [Outcome.Exhausted] on the wire.
          Never memoised: how far a budget got is a property of the
          request's budget, not of the answer. *)
  | Overloaded
      (** the request was shed by admission control before it ran — the
          work queue was full or the in-flight high-water mark was
          crossed.  Status ["overloaded"], so clients can retry-with-
          backoff without parsing the message. *)

val error_code : error_kind -> string
(** ["bad_request"], ["internal"], ["exhausted"], ["overloaded"]. *)

val snapshot_fields : Bagcq_guard.Budget.snapshot -> (string * Json.t) list
(** [ticks], [fuel_left] ([null] for unlimited), [elapsed_ms]. *)

val error_body :
  ?id:Json.t -> ?op:string -> ?budget:Bagcq_guard.Budget.snapshot ->
  ?extra:(string * Json.t) list -> kind:error_kind -> string -> Json.t
(** The one constructor for every non-ok response.  [Bad_request] and
    [Internal] carry the message under ["error"]; [Exhausted] carries
    ["reason"] and, when the message is non-empty, ["message"]. *)

val error_response : ?id:Json.t -> string -> Json.t
(** [error_body ~kind:Bad_request] — shorthand for the common case. *)

val ping_response : ?id:Json.t -> unit -> Json.t
(** [op], [status], then the capability surface: [api_version]
    ({!api_version}) and [ops] ({!supported_ops}). *)

val stats_response : ?id:Json.t -> (string * Json.t) list -> Json.t

(** {2 Metrics on the wire} *)

val summary_fields : Bagcq_obs.Metrics.summary -> (string * Json.t) list
(** [count], [sum_ms], [p50_ms], [p95_ms], [p99_ms], [max_ms]. *)

val metrics_row_json : Bagcq_obs.Metrics.row -> Json.t
(** One registry row: [name], [labels] (object), [kind], then [value]
    (counter/gauge) or the histogram summary fields. *)

val metrics_response : ?id:Json.t -> Bagcq_obs.Metrics.row list -> Json.t

val trace_record_json : Bagcq_obs.Trace.record -> Json.t
(** One finished span as an NDJSON object — what [bagcq serve --trace]
    writes per line: [span_id], [parent_id] ([null] at the root),
    [name], [start_ms], [dur_ms]. *)

val status : Json.t -> string option
(** The ["status"] field of a response — what a load-generating client
    switches on. *)
