open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget

type budget_spec = { fuel : int option; timeout_ms : int option }
type db_ref = Db_inline of Structure.t | Db_named of string

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
  | Ucq_contain of { small : Ucq.t; big : Ucq.t }
  | Ucq_hunt of {
      small : Ucq.t;
      big : Ucq.t;
      samples : int;
      exhaustive_size : int;
      seed : int;
    }
  | Db_create of { name : string; db : Structure.t }
  | Db_insert of { name : string; fact : Symbol.t * Tuple.t }
  | Db_delete of { name : string; fact : Symbol.t * Tuple.t }
  | Register of { name : string; query : Query.t }
  | Unregister of { name : string; query : Query.t }
  | Counts of { name : string }

type request = { id : Json.t option; budget : budget_spec; op : op }

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Eval _ -> "eval"
  | Contain _ -> "contain"
  | Hunt _ -> "hunt"
  | Ucq_eval _ -> "ucq_eval"
  | Ucq_contain _ -> "ucq_contain"
  | Ucq_hunt _ -> "ucq_hunt"
  | Db_create _ -> "db_create"
  | Db_insert _ -> "db_insert"
  | Db_delete _ -> "db_delete"
  | Register _ -> "register"
  | Unregister _ -> "unregister"
  | Counts _ -> "counts"

(* The capability surface a ping advertises: bump [api_version] whenever an
   op is added or a request/response shape changes, and keep [supported_ops]
   exhaustive — clients ([Load.connect]) feature-detect against it instead
   of probing with trial requests. *)
let api_version = 9

let supported_ops =
  [
    "ping";
    "stats";
    "metrics";
    "eval";
    "contain";
    "hunt";
    "ucq_eval";
    "ucq_contain";
    "ucq_hunt";
    "db_create";
    "db_insert";
    "db_delete";
    "register";
    "unregister";
    "counts";
  ]

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

(* Every field-level decode error names the offending field the same way:
   ["missing field: f"] when absent, ["field f: <detail>"] otherwise —
   one spelling across all ops, pinned by the decode-error table test. *)
let missing_field name = Error (Printf.sprintf "missing field: %s" name)

let field_error name detail =
  Error (Printf.sprintf "field %s: %s" name detail)

let field_string j name =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> field_error name "must be a string"
  | None -> missing_field name

let field_nonneg_int j name ~default =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Int i) when i >= 0 -> Ok i
  | Some _ -> field_error name "must be a non-negative integer"

let field_opt_nonneg_int j name =
  match Json.member name j with
  | None -> Ok None
  | Some (Json.Int i) when i >= 0 -> Ok (Some i)
  | Some _ -> field_error name "must be a non-negative integer"

let parse_query j name =
  let* text = field_string j name in
  match Parse.parse text with
  | Ok q -> Ok q
  | Error e -> field_error name e

let parse_ucq j name =
  let* text = field_string j name in
  match Parse.parse_ucq text with
  | Ok u -> Ok u
  | Error e -> field_error name e

let parse_db j name =
  let* text = field_string j name in
  match Encode.parse text with
  | Ok d -> Ok d
  | Error e -> field_error name e

(* A fact reuses the database surface syntax ([Encode]) so anything a
   [db] payload can say — symbolic and integer values, a trailing '.' —
   a [fact] can say too; it just must say exactly one atom. *)
let parse_fact j name =
  let* text = field_string j name in
  match Encode.parse text with
  | Error e -> field_error name e
  | Ok d -> (
      match Structure.fold_atoms (fun s tup acc -> (s, tup) :: acc) d [] with
      | [ fact ] -> Ok fact
      | _ -> field_error name "must contain exactly one fact")

(* Eval's database is inline text ("db") or a data-plane reference
   ("db_name") — exactly one of the two. *)
let parse_db_ref j =
  match (Json.member "db" j, Json.member "db_name" j) with
  | Some _, Some _ -> Error "fields db and db_name are mutually exclusive"
  | Some _, None ->
      let* d = parse_db j "db" in
      Ok (Db_inline d)
  | None, Some _ ->
      let* name = field_string j "db_name" in
      Ok (Db_named name)
  | None, None -> missing_field "db (or db_name)"

let default_samples = 200
let default_exhaustive_size = 2
let default_seed = 0x5eed

let decode j =
  match j with
  | Json.Obj _ ->
      let id = Json.member "id" j in
      let* fuel = field_opt_nonneg_int j "fuel" in
      let* timeout_ms = field_opt_nonneg_int j "timeout_ms" in
      let budget = { fuel; timeout_ms } in
      let* name = field_string j "op" in
      let* op =
        match name with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "metrics" -> Ok Metrics
        | "eval" ->
            let* query = parse_query j "query" in
            let* db = parse_db_ref j in
            Ok (Eval { query; db })
        | "contain" ->
            let* small = parse_query j "small" in
            let* big = parse_query j "big" in
            Ok (Contain { small; big })
        | "hunt" ->
            let* small = parse_query j "small" in
            let* big = parse_query j "big" in
            let* samples = field_nonneg_int j "samples" ~default:default_samples in
            let* exhaustive_size =
              field_nonneg_int j "exhaustive_size" ~default:default_exhaustive_size
            in
            let* seed = field_nonneg_int j "seed" ~default:default_seed in
            Ok (Hunt { small; big; samples; exhaustive_size; seed })
        | "ucq_eval" ->
            let* query = parse_ucq j "query" in
            let* db = parse_db_ref j in
            Ok (Ucq_eval { query; db })
        | "ucq_contain" ->
            let* small = parse_ucq j "small" in
            let* big = parse_ucq j "big" in
            Ok (Ucq_contain { small; big })
        | "ucq_hunt" ->
            let* small = parse_ucq j "small" in
            let* big = parse_ucq j "big" in
            let* samples = field_nonneg_int j "samples" ~default:default_samples in
            let* exhaustive_size =
              field_nonneg_int j "exhaustive_size" ~default:default_exhaustive_size
            in
            let* seed = field_nonneg_int j "seed" ~default:default_seed in
            Ok (Ucq_hunt { small; big; samples; exhaustive_size; seed })
        | "db_create" ->
            let* name = field_string j "name" in
            let* db =
              match Json.member "db" j with
              | None -> Ok (Structure.empty Schema.empty)
              | Some _ -> parse_db j "db"
            in
            Ok (Db_create { name; db })
        | "db_insert" ->
            let* name = field_string j "name" in
            let* fact = parse_fact j "fact" in
            Ok (Db_insert { name; fact })
        | "db_delete" ->
            let* name = field_string j "name" in
            let* fact = parse_fact j "fact" in
            Ok (Db_delete { name; fact })
        | "register" ->
            let* name = field_string j "name" in
            let* query = parse_query j "query" in
            Ok (Register { name; query })
        | "unregister" ->
            let* name = field_string j "name" in
            let* query = parse_query j "query" in
            Ok (Unregister { name; query })
        | "counts" ->
            let* name = field_string j "name" in
            Ok (Counts { name })
        | other -> Error (Printf.sprintf "unknown op %S" other)
      in
      Ok { id; budget; op }
  | _ -> Error "request must be a JSON object"

let decode_line line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | Ok j -> decode j

(* ---------------- cache keys ---------------- *)

let budget_fields { fuel; timeout_ms } =
  let f name = function None -> [] | Some v -> [ (name, Json.Int v) ] in
  f "fuel" fuel @ f "timeout_ms" timeout_ms

let fact_to_string (sym, tup) = Encode.fact_to_string sym tup

let cache_key { id = _; budget; op } =
  let payload =
    match op with
    | Ping -> []
    | Stats -> []
    | Metrics -> []
    | Eval { query; db } ->
        ("query", Json.Str (Query.to_string query))
        ::
        (match db with
        | Db_inline d -> [ ("db", Json.Str (Encode.to_string d)) ]
        | Db_named name -> [ ("db_name", Json.Str name) ])
    | Contain { small; big } ->
        [
          ("small", Json.Str (Query.to_string small));
          ("big", Json.Str (Query.to_string big));
        ]
    | Hunt { small; big; samples; exhaustive_size; seed } ->
        [
          ("small", Json.Str (Query.to_string small));
          ("big", Json.Str (Query.to_string big));
          ("samples", Json.Int samples);
          ("exhaustive_size", Json.Int exhaustive_size);
          ("seed", Json.Int seed);
        ]
    | Ucq_eval { query; db } ->
        ("query", Json.Str (Ucq.to_string query))
        ::
        (match db with
        | Db_inline d -> [ ("db", Json.Str (Encode.to_string d)) ]
        | Db_named name -> [ ("db_name", Json.Str name) ])
    | Ucq_contain { small; big } ->
        [
          ("small", Json.Str (Ucq.to_string small));
          ("big", Json.Str (Ucq.to_string big));
        ]
    | Ucq_hunt { small; big; samples; exhaustive_size; seed } ->
        [
          ("small", Json.Str (Ucq.to_string small));
          ("big", Json.Str (Ucq.to_string big));
          ("samples", Json.Int samples);
          ("exhaustive_size", Json.Int exhaustive_size);
          ("seed", Json.Int seed);
        ]
    (* Store ops are never memoised (they read or mutate live state), and
       only [Router.memoised] reads keys; they key anyway so the function
       stays total over requests. *)
    | Db_create { name; db } ->
        [ ("name", Json.Str name); ("db", Json.Str (Encode.to_string db)) ]
    | Db_insert { name; fact } | Db_delete { name; fact } ->
        [ ("name", Json.Str name); ("fact", Json.Str (fact_to_string fact)) ]
    | Register { name; query } | Unregister { name; query } ->
        [
          ("name", Json.Str name);
          ("query", Json.Str (Query.to_string query));
        ]
    | Counts { name } -> [ ("name", Json.Str name) ]
  in
  Json.to_string
    (Json.Obj ((("op", Json.Str (op_name op)) :: payload) @ budget_fields budget))

(* ---------------- response builders ---------------- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", id) :: fields

(* Every non-ok response — decode failure, internal error, budget
   exhaustion — goes through one constructor, so the shapes cannot drift
   per op.  Field order is fixed: id, op, status, code, then the
   kind-specific detail, then the budget snapshot, then op-specific
   progress fields. *)
type error_kind =
  | Bad_request
  | Internal
  | Exhausted of Budget.reason
  | Overloaded

let error_code = function
  | Bad_request -> "bad_request"
  | Internal -> "internal"
  | Exhausted _ -> "exhausted"
  | Overloaded -> "overloaded"

let snapshot_fields (s : Budget.snapshot) =
  [
    ("ticks", Json.Int s.Budget.ticks);
    ( "fuel_left",
      match s.Budget.fuel_left with Some f -> Json.Int f | None -> Json.Null );
    ("elapsed_ms", Json.Float s.Budget.elapsed_ms);
  ]

let error_body ?id ?op ?budget ?(extra = []) ~kind msg =
  let status, detail =
    match kind with
    | Bad_request | Internal -> ("error", [ ("error", Json.Str msg) ])
    | Exhausted reason ->
        ( "exhausted",
          ("reason", Json.Str (Budget.reason_to_string reason))
          :: (if msg = "" then [] else [ ("message", Json.Str msg) ]) )
    | Overloaded -> ("overloaded", [ ("error", Json.Str msg) ])
  in
  let op_field = match op with None -> [] | Some o -> [ ("op", Json.Str o) ] in
  let budget_fields =
    match budget with None -> [] | Some s -> snapshot_fields s
  in
  Json.Obj
    (with_id id
       (op_field
       @ ("status", Json.Str status)
         :: ("code", Json.Str (error_code kind))
         :: detail
       @ budget_fields @ extra))

let error_response ?id msg = error_body ?id ~kind:Bad_request msg

let ping_response ?id () =
  Json.Obj
    (with_id id
       [
         ("op", Json.Str "ping");
         ("status", Json.Str "ok");
         ("api_version", Json.Int api_version);
         ("ops", Json.List (List.map (fun o -> Json.Str o) supported_ops));
       ])

let core ~op rest = ("op", Json.Str op) :: ("status", Json.Str "ok") :: rest

let eval_core ~count ~satisfied ~ticks =
  core ~op:"eval"
    [
      ("count", Json.Str (Nat.to_string count));
      ("satisfied", Json.Bool satisfied);
      ("ticks", Json.Int ticks);
    ]

let contain_core ~set_contains ~bag_equivalent ~ticks =
  core ~op:"contain"
    [
      ( "set_contains",
        match set_contains with Some b -> Json.Bool b | None -> Json.Null );
      ("bag_equivalent", Json.Bool bag_equivalent);
      ("ticks", Json.Int ticks);
    ]

let ucq_eval_core ~count ~satisfied ~disjuncts ~ticks =
  core ~op:"ucq_eval"
    [
      ("count", Json.Str (Nat.to_string count));
      ("satisfied", Json.Bool satisfied);
      ("disjuncts", Json.Int disjuncts);
      ("ticks", Json.Int ticks);
    ]

let ucq_contain_core ~set_contains ~bag_equivalent ~hom_checks ~ticks =
  core ~op:"ucq_contain"
    [
      ( "set_contains",
        match set_contains with Some b -> Json.Bool b | None -> Json.Null );
      ("bag_equivalent", Json.Bool bag_equivalent);
      ("hom_checks", Json.Int hom_checks);
      ("ticks", Json.Int ticks);
    ]

let witness_fields = function
  | Some (d, cs, cb) ->
      [
        ("violated", Json.Bool true);
        ("witness", Json.Str (Encode.to_string d));
        ("small_count", Json.Str (Nat.to_string cs));
        ("big_count", Json.Str (Nat.to_string cb));
      ]
  | None -> [ ("violated", Json.Bool false) ]

let hunt_core ?(op = "hunt") ~witness ~exhaustive_complete ~tested_random ~ticks () =
  core ~op
    (witness_fields witness
    @ [
        ("exhaustive_complete", Json.Bool exhaustive_complete);
        ("tested_random", Json.Int tested_random);
        ("ticks", Json.Int ticks);
      ])

(* ---------------- data-plane cores ---------------- *)

let db_create_core ~atoms =
  core ~op:"db_create" [ ("atoms", Json.Int atoms) ]

let mutation_core ~op ~atoms ~registrations ~maintained ~recomputed ~stale
    ~ticks =
  core ~op
    [
      ("atoms", Json.Int atoms);
      ("registrations", Json.Int registrations);
      ("maintained", Json.Int maintained);
      ("recomputed", Json.Int recomputed);
      ("stale", Json.Int stale);
      ("ticks", Json.Int ticks);
    ]

let register_core ~count ~components ~maintained ~ticks =
  core ~op:"register"
    [
      ("count", Json.Str (Nat.to_string count));
      ("components", Json.Int components);
      ("maintained", Json.Int maintained);
      ("ticks", Json.Int ticks);
    ]

let unregister_core () = core ~op:"unregister" []

let count_row_json ~query ~count ~maintained =
  Json.Obj
    [
      ("query", Json.Str query);
      ("count", Json.Str (Nat.to_string count));
      ("maintained", Json.Bool maintained);
    ]

let counts_core ~rows ~ticks =
  core ~op:"counts" [ ("counts", Json.List rows); ("ticks", Json.Int ticks) ]

(* The [cached] marker goes right after op/status so hit and miss
   responses differ only in that one field. *)
let attach ?id ~cached fields =
  let fields =
    match fields with
    | op :: status :: rest ->
        op :: status :: ("cached", Json.Bool cached) :: rest
    | short -> short
  in
  Json.Obj (with_id id fields)

let stats_response ?id fields =
  Json.Obj
    (with_id id
       (("op", Json.Str "stats") :: ("status", Json.Str "ok") :: fields))

(* ---------------- metrics on the wire ---------------- *)

module Obs = Bagcq_obs.Metrics

let summary_fields (s : Obs.summary) =
  [
    ("count", Json.Int s.Obs.count);
    ("sum_ms", Json.Float s.Obs.sum_ms);
    ("p50_ms", Json.Float s.Obs.p50_ms);
    ("p95_ms", Json.Float s.Obs.p95_ms);
    ("p99_ms", Json.Float s.Obs.p99_ms);
    ("max_ms", Json.Float s.Obs.max_ms);
  ]

let metrics_row_json (r : Obs.row) =
  Json.Obj
    (("name", Json.Str r.Obs.name)
    :: ( "labels",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.Obs.labels) )
    ::
    (match r.Obs.value with
    | Obs.Counter_v n -> [ ("kind", Json.Str "counter"); ("value", Json.Int n) ]
    | Obs.Gauge_v n -> [ ("kind", Json.Str "gauge"); ("value", Json.Int n) ]
    | Obs.Histogram_v s -> ("kind", Json.Str "histogram") :: summary_fields s))

let metrics_response ?id rows =
  Json.Obj
    (with_id id
       [
         ("op", Json.Str "metrics");
         ("status", Json.Str "ok");
         ("metrics", Json.List (List.map metrics_row_json rows));
       ])

module Tr = Bagcq_obs.Trace

let trace_record_json (r : Tr.record) =
  Json.Obj
    [
      ("span_id", Json.Int r.Tr.span_id);
      ( "parent_id",
        match r.Tr.parent_id with Some p -> Json.Int p | None -> Json.Null );
      ("name", Json.Str r.Tr.name);
      ("start_ms", Json.Float r.Tr.start_ms);
      ("dur_ms", Json.Float r.Tr.dur_ms);
    ]

let status j =
  match Json.member "status" j with Some (Json.Str s) -> Some s | _ -> None
