(* lib/store: the mutable data plane.  The headline property is
   differential: whatever interleaving of inserts, deletes and budget
   faults a database sees, every registered count read back equals a
   from-scratch [Solver_ref] recount of the current relation — the
   incremental join-tree maintenance, the per-component recomputes and
   the stale/repair lifecycle can never drift from the reference
   semantics. *)

module Store = Bagcq_store.Store
module Structure = Bagcq_relational.Structure
module Schema = Bagcq_relational.Schema
module Symbol = Bagcq_relational.Symbol
module Tuple = Bagcq_relational.Tuple
module Value = Bagcq_relational.Value
module Parse = Bagcq_cq.Parse
module Query = Bagcq_cq.Query
module Solver_ref = Bagcq_hom.Solver_ref
module Decomp = Bagcq_hom.Decomp
module Jtree = Bagcq_hom.Jtree
module Eval = Bagcq_hom.Eval
module Ghd = Bagcq_hom.Ghd
module Atom = Bagcq_cq.Atom
module Build = Bagcq_cq.Build
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Router = Bagcq_server.Router
module Cache = Bagcq_server.Cache
module Json = Bagcq_wire.Json
module Proto = Bagcq_wire.Proto
module Encode = Bagcq_relational.Encode

let sym_e = Symbol.make "E" 2
let sym_f = Symbol.make "F" 2
let sym_g = Symbol.make "G" 1
let tup2 a b = Tuple.make [ Value.int a; Value.int b ]
let tup1 a = Tuple.make [ Value.int a ]

let done_exn = function
  | Store.Done v -> v
  | Store.Rejected m -> Alcotest.failf "unexpected rejection: %s" m
  | Store.Exhausted _ -> Alcotest.fail "unexpected exhaustion"

let rejected = function
  | Store.Rejected m -> m
  | Store.Done _ -> Alcotest.fail "expected a rejection, got Done"
  | Store.Exhausted _ -> Alcotest.fail "expected a rejection, got Exhausted"

let fresh_store ?metrics () = Store.create ?metrics ()

let create_db st name facts =
  let d =
    List.fold_left
      (fun d (s, t) -> Structure.add_atom d s t)
      (Structure.empty Schema.empty)
      facts
  in
  ignore (done_exn (Store.db_create st ~name d))

let count_of rows key =
  match List.find_opt (fun r -> r.Store.cr_query = key) rows with
  | Some r -> Nat.to_string r.Store.cr_count
  | None -> Alcotest.failf "no registered count for %s" key

(* ------------------------------------------------------------------ *)
(* basic flow                                                          *)
(* ------------------------------------------------------------------ *)

let test_flow () =
  let m = Metrics.create () in
  let st = fresh_store ~metrics:m () in
  create_db st "g" [ (sym_e, tup2 1 2); (sym_e, tup2 2 3); (sym_f, tup2 3 4) ];
  let q = Parse.parse_exn "E(x,y) & F(y,z)" in
  let info = done_exn (Store.register st ~name:"g" q) in
  Alcotest.(check string) "initial count" "1" (Nat.to_string info.Store.reg_count);
  Alcotest.(check int) "acyclic component is maintained" 1
    info.Store.reg_maintained;
  (* one more E edge into F's source: count doubles *)
  let mu = done_exn (Store.db_insert st ~name:"g" sym_e (tup2 5 3)) in
  Alcotest.(check int) "delta maintained" 1 mu.Store.maintained;
  Alcotest.(check int) "nothing recomputed" 0 mu.Store.recomputed;
  Alcotest.(check int) "nothing stale" 0 mu.Store.stale;
  let rows = done_exn (Store.counts st ~name:"g") in
  Alcotest.(check string) "count follows insert" "2"
    (count_of rows (Query.to_string q));
  let _ = done_exn (Store.db_delete st ~name:"g" sym_e (tup2 5 3)) in
  let rows = done_exn (Store.counts st ~name:"g") in
  Alcotest.(check string) "count follows delete" "1"
    (count_of rows (Query.to_string q));
  (* the metric family counted the traffic *)
  Alcotest.(check int) "store_creates" 1
    (Metrics.counter_value (Metrics.counter m "store_creates"));
  Alcotest.(check int) "store_inserts" 1
    (Metrics.counter_value (Metrics.counter m "store_inserts"));
  Alcotest.(check int) "store_deletes" 1
    (Metrics.counter_value (Metrics.counter m "store_deletes"));
  Alcotest.(check int) "store_registered gauge" 1
    (Metrics.gauge_value (Metrics.gauge m "store_registered"));
  ignore (done_exn (Store.unregister st ~name:"g" q));
  Alcotest.(check int) "gauge back to zero" 0
    (Metrics.gauge_value (Metrics.gauge m "store_registered"))

let test_rejections () =
  let st = fresh_store () in
  create_db st "g" [ (sym_e, tup2 1 2) ];
  (* names are create-once *)
  ignore (rejected (Store.db_create st ~name:"g" (Structure.empty Schema.empty)));
  ignore (rejected (Store.db_create st ~name:"" (Structure.empty Schema.empty)));
  (* unknown database *)
  ignore (rejected (Store.db_insert st ~name:"nope" sym_e (tup2 1 2)));
  ignore (rejected (Store.counts st ~name:"nope"));
  (* duplicate insert and absent delete are rejections, not no-ops:
     a silent duplicate would let maintained counts drift from the set
     semantics of the stored relation *)
  ignore (rejected (Store.db_insert st ~name:"g" sym_e (tup2 1 2)));
  ignore (rejected (Store.db_delete st ~name:"g" sym_e (tup2 7 7)));
  (* arity clash with the database's schema *)
  ignore (rejected (Store.db_insert st ~name:"g" (Symbol.make "E" 1) (tup1 1)));
  (* unregistering what was never registered *)
  ignore
    (rejected (Store.unregister st ~name:"g" (Parse.parse_exn "E(x,y)")));
  (* and after all those rejections the relation is untouched *)
  let d, _ = done_exn (Store.snapshot st ~name:"g") in
  Alcotest.(check int) "still one atom" 1 (Structure.total_atoms d)

(* Component strategies: the acyclic path is delta-maintained, the
   triangle recomputes (only itself), and in a disconnected query the
   untouched component's cached count is reused through the factor
   product. *)
let test_strategies () =
  let st = fresh_store () in
  create_db st "g"
    [ (sym_e, tup2 1 2); (sym_e, tup2 2 3); (sym_e, tup2 3 1); (sym_g, tup1 9) ];
  let tri = Parse.parse_exn "E(x,y) & E(y,z) & E(z,x)" in
  let info = done_exn (Store.register st ~name:"g" tri) in
  Alcotest.(check int) "cyclic component not maintained" 0
    info.Store.reg_maintained;
  Alcotest.(check string) "one directed triangle each way round" "3"
    (Nat.to_string info.Store.reg_count);
  let prod = Parse.parse_exn "E(x,y) & G(u)" in
  let info = done_exn (Store.register st ~name:"g" prod) in
  Alcotest.(check int) "two components, both maintained" 2
    info.Store.reg_maintained;
  Alcotest.(check string) "3 edges x 1 unary" "3"
    (Nat.to_string info.Store.reg_count);
  (* an E delta: the triangle recomputes, the product maintains *)
  let mu = done_exn (Store.db_insert st ~name:"g" sym_e (tup2 1 3)) in
  Alcotest.(check int) "product registration maintained" 1 mu.Store.maintained;
  Alcotest.(check int) "triangle registration recomputed" 1 mu.Store.recomputed;
  let rows = done_exn (Store.counts st ~name:"g") in
  Alcotest.(check string) "product follows" "4"
    (count_of rows (Query.to_string prod));
  (* a G delta misses the triangle's symbols entirely *)
  let mu = done_exn (Store.db_insert st ~name:"g" sym_g (tup1 8)) in
  Alcotest.(check int) "no recompute on untouched symbols" 0
    mu.Store.recomputed;
  let rows = done_exn (Store.counts st ~name:"g") in
  Alcotest.(check string) "product doubles with G" "8"
    (count_of rows (Query.to_string prod))

(* ------------------------------------------------------------------ *)
(* budget trips: stale, never half-updated                             *)
(* ------------------------------------------------------------------ *)

let test_fuel_trip_marks_stale () =
  let st = fresh_store () in
  create_db st "g"
    [ (sym_e, tup2 1 2); (sym_e, tup2 2 3); (sym_f, tup2 3 4); (sym_f, tup2 2 9) ];
  let q = Parse.parse_exn "E(x,y) & F(y,z)" in
  ignore (done_exn (Store.register st ~name:"g" q));
  Alcotest.(check bool) "fresh after register" false
    (done_exn (Store.is_stale st ~name:"g" q));
  (* the mutation itself commits; maintenance trips mid-propagation and
     the registration is marked stale instead of surfacing a
     half-updated table *)
  let budget = Budget.fault_at ~tick:1 () in
  let mu = done_exn (Store.db_insert ~budget st ~name:"g" sym_e (tup2 5 3)) in
  Alcotest.(check int) "registration went stale" 1 mu.Store.stale;
  Alcotest.(check int) "atoms committed regardless" 5 mu.Store.atoms;
  Alcotest.(check bool) "stale visible" true
    (done_exn (Store.is_stale st ~name:"g" q));
  (* a further mutation skips the stale registration (still stale, still
     not half-updated) *)
  let mu = done_exn (Store.db_delete st ~name:"g" sym_f (tup2 2 9)) in
  Alcotest.(check int) "still stale" 1 mu.Store.stale;
  (* a budgeted read that trips mid-repair leaves it stale... *)
  (match Store.counts ~budget:(Budget.fault_at ~tick:1 ()) st ~name:"g" with
  | Store.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected exhaustion");
  Alcotest.(check bool) "repair can itself trip" true
    (done_exn (Store.is_stale st ~name:"g" q));
  (* ...and an unbudgeted read repairs to the exact from-scratch count *)
  let d, _ = done_exn (Store.snapshot st ~name:"g") in
  let rows = done_exn (Store.counts st ~name:"g") in
  Alcotest.(check string) "repaired count equals reference"
    (string_of_int (Solver_ref.count q d))
    (count_of rows (Query.to_string q));
  Alcotest.(check bool) "fresh after repair" false
    (done_exn (Store.is_stale st ~name:"g" q))

let test_register_exhaustion_is_structured () =
  let st = fresh_store () in
  create_db st "g" [ (sym_e, tup2 1 2); (sym_e, tup2 2 3) ];
  let q = Parse.parse_exn "E(x,y) & E(y,z)" in
  (match Store.register ~budget:(Budget.fault_at ~tick:1 ()) st ~name:"g" q with
  | Store.Exhausted Budget.Fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion");
  (* nothing was half-registered *)
  Alcotest.(check int) "no registrations" 0
    (List.length (done_exn (Store.counts st ~name:"g")));
  let info = done_exn (Store.register st ~name:"g" q) in
  Alcotest.(check string) "clean retry registers" "1"
    (Nat.to_string info.Store.reg_count)

(* ------------------------------------------------------------------ *)
(* server cache: LRU cap, eviction on mutation                         *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let m = Metrics.create () in
  let c = Cache.create ~metrics:m () in
  let probe i = Option.is_some (Cache.find_result c (string_of_int i)) in
  let store i = Cache.store_result c (string_of_int i) [ ("k", Json.Int i) ] in
  for i = 0 to Cache.max_results - 1 do
    store i
  done;
  (* touch 0 so 1 is the LRU victim *)
  Alcotest.(check bool) "0 present" true (probe 0);
  store Cache.max_results;
  Alcotest.(check bool) "1 evicted as LRU" false (probe 1);
  Alcotest.(check bool) "0 survived (recently used)" true (probe 0);
  Alcotest.(check bool) "the entry past the cap stored" true (probe Cache.max_results);
  let s = Cache.stats c in
  Alcotest.(check int) "entries capped" Cache.max_results s.Cache.result_entries;
  Alcotest.(check int) "one eviction counted" 1 s.Cache.result_evicted;
  Alcotest.(check int) "eviction counter registered" 1
    (Metrics.counter_value (Metrics.counter m "server_cache_evicted"))

let test_cache_evict_db () =
  let c = Cache.create () in
  let key_for db =
    Proto.cache_key
      {
        Proto.id = None;
        budget = { Proto.fuel = None; timeout_ms = None };
        op = Proto.Eval { query = Parse.parse_exn "E(x,y)"; db };
      }
  in
  let named name = key_for (Proto.Db_named name) in
  Cache.store_result ~db_name:"g" c (named "g" ^ "#v0") [ ("k", Json.Int 1) ];
  Cache.store_result ~db_name:"g" c (named "g" ^ "#v1") [ ("k", Json.Int 2) ];
  Cache.store_result ~db_name:"other" c (named "other" ^ "#v0") [ ("k", Json.Int 3) ];
  (* an inline database is request payload, so its entry carries no tag *)
  let inline = key_for (Proto.Db_inline (Encode.parse_exn "E(g,1).")) in
  Cache.store_result c inline [ ("k", Json.Int 4) ];
  Alcotest.(check int) "both generations of g dropped" 2
    (Cache.evict_db c ~name:"g");
  Alcotest.(check bool) "other database untouched" true
    (Option.is_some (Cache.find_result c (named "other" ^ "#v0")));
  (* a name that is a substring of another must not match its entries *)
  Alcotest.(check int) "prefix name does not cross-evict" 0
    (Cache.evict_db c ~name:"oth");
  Alcotest.(check bool) "untagged inline entry survives" true
    (Option.is_some (Cache.find_result c inline))

(* The intern table keeps the result memo's bound and LRU order.  It
   exports no size, so membership shows through physical equality: an
   interned database hands back its first structure, a new or evicted one
   hands back the fresh decode it was given. *)
let test_intern_lru () =
  let db i = Encode.parse_exn (Printf.sprintf "E(%d,%d)." i (i + 1)) in
  let cap = Cache.max_results in
  let c = Cache.create () in
  let first = Array.init (cap + 1) (fun i -> Cache.intern_db c (db i)) in
  let again = db 0 in
  Alcotest.(check bool) "first database evicted by the one past the cap" true
    (Cache.intern_db c again == again);
  Alcotest.(check bool) "the one past the cap still interned" true
    (Cache.intern_db c (db cap) == first.(cap));
  let c = Cache.create () in
  let interned = Array.init cap (fun i -> Cache.intern_db c (db i)) in
  ignore (Cache.intern_db c (db 0));
  ignore (Cache.intern_db c (db cap));
  Alcotest.(check bool) "a hit keeps the first" true (Cache.intern_db c (db 0) == interned.(0));
  Alcotest.(check bool) "the second was the LRU victim" false
    (Cache.intern_db c (db 1) == interned.(1))

(* ------------------------------------------------------------------ *)
(* router integration: eval by name, invalidation, index rebuilds      *)
(* ------------------------------------------------------------------ *)

let handle router line =
  match Json.parse (Router.handle_line router line) with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not JSON (%s)" e

let test_eval_by_name_invalidation () =
  let r = Router.create () in
  ignore
    (handle r {|{"op":"db_create","name":"g","db":"E(1,2). E(2,3). E(3,1)."}|});
  let eval = {|{"op":"eval","query":"E(x,y) & E(y,z)","db_name":"g"}|} in
  let v1 = handle r eval in
  Alcotest.(check (option string)) "count" (Some "3") (Json.get_string "count" v1);
  Alcotest.(check (option bool)) "first uncached" (Some false)
    (Json.get_bool "cached" v1);
  let v2 = handle r eval in
  Alcotest.(check (option bool)) "repeat cached" (Some true)
    (Json.get_bool "cached" v2);
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(1,3)"}|});
  let v3 = handle r eval in
  Alcotest.(check (option bool)) "mutation invalidates" (Some false)
    (Json.get_bool "cached" v3);
  Alcotest.(check (option string)) "post-mutation count" (Some "5")
    (Json.get_string "count" v3);
  (* unknown names are bad requests, not crashes *)
  let v4 = handle r {|{"op":"eval","query":"E(x,y)","db_name":"nope"}|} in
  Alcotest.(check (option string)) "unknown db" (Some "error") (Proto.status v4)

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

(* A mutation of [g] evicts exactly the memo entries of requests that read
   [g] by name — an eval and a ucq_eval — and leaves an inline database's
   entry alone, even one holding the same facts. *)
let test_mutation_evicts_by_name () =
  let r = Router.create () in
  let facts = "E(1,2). E(2,3). E(3,1)." in
  ignore (handle r (Printf.sprintf {|{"op":"db_create","name":"g","db":"%s"}|} facts));
  let inline =
    Printf.sprintf {|{"op":"eval","query":"E(x,y) & E(y,z)","db":"%s"}|} facts
  in
  let eval = {|{"op":"eval","query":"E(x,y) & E(y,z)","db_name":"g"}|} in
  let ucq =
    {|{"op":"ucq_eval","query":"(E(x,y)) | (E(x,y) & E(y,z))","db_name":"g"}|}
  in
  List.iter (fun line -> ignore (handle r line)) [ inline; eval; ucq ];
  let evicted () =
    Metrics.counter_value (Metrics.counter (Router.metrics r) "server_cache_evicted")
  in
  let before = evicted () in
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(1,3)"}|});
  Alcotest.(check int) "both by-name entries evicted" 2 (evicted () - before);
  let answer name line ~cached ~count =
    let v = handle r line in
    Alcotest.(check (option bool)) (name ^ ": cached") (Some cached)
      (Json.get_bool "cached" v);
    Alcotest.(check (option string)) (name ^ ": count") (Some count)
      (Json.get_string "count" v)
  in
  answer "inline repeat" inline ~cached:true ~count:"3";
  answer "eval by name" eval ~cached:false ~count:"5";
  answer "ucq_eval by name" ucq ~cached:false ~count:"9"

(* Satellite of the memo-slot work: a mutation retires the old snapshot
   (its derived views are cleared) and the next eval against the new
   snapshot builds the columnar index exactly once more. *)
let test_index_rebuilt_after_mutation () =
  let r = Router.create () in
  ignore
    (handle r {|{"op":"db_create","name":"g","db":"E(1,2). E(2,3). E(3,1)."}|});
  let before = global_counter "hom_index_builds" in
  (* same trio as the inline-db regression test: acyclic, cyclic,
     single-atom — all against one physical structure, one build *)
  ignore (handle r {|{"op":"eval","query":"E(x,y) & E(y,z)","db_name":"g"}|});
  ignore
    (handle r {|{"op":"eval","query":"E(x,y) & E(y,z) & E(z,x)","db_name":"g"}|});
  ignore (handle r {|{"op":"eval","query":"E(x,y)","db_name":"g"}|});
  Alcotest.(check int) "one index build before the delta" 1
    (global_counter "hom_index_builds" - before);
  ignore (handle r {|{"op":"db_insert","name":"g","fact":"E(9,1)"}|});
  ignore (handle r {|{"op":"eval","query":"E(x,y) & E(y,z)","db_name":"g"}|});
  ignore (handle r {|{"op":"eval","query":"E(x,y)","db_name":"g"}|});
  Alcotest.(check int) "exactly one rebuild after the delta" 2
    (global_counter "hom_index_builds" - before)

(* ------------------------------------------------------------------ *)
(* differential property: maintained == from-scratch, always           *)
(* ------------------------------------------------------------------ *)

(* The seven after the triangle carry one symbol at several nodes (a
   delta changes a node and its children, or several children, at once)
   or leave a node with siblings (per-key propagation multiplies by
   them).  The last two read the whole domain through inequality-only
   variables (one of them atom-free), so a delta on any symbol can move
   them. *)
let diff_queries =
  List.map Parse.parse_exn
    [
      "E(x,y)";
      "E(x,y) & F(y,z)";
      "E(x,y) & E(y,z) & E(z,x)";
      "E(x,y) & E(y,z) & E(z,w)";
      "E(x,y) & E(x,z) & E(x,w)";
      "E(x,y) & E(y,z) & E(z,w) & E(w,u)";
      "F(x,y) & E(x,z) & G(y)";
      "E(x,x) & F(x,y) & E(y,z)";
      "E(x,y) & F(y,z) & E(z,w) & F(w,u)";
      "E(x,y) & E(y,x) & F(x,z)";
      "E(x,y) & G(u)";
      "E(x,y) & w != y";
      "G(u) & v != w";
    ]

(* One step: insert or delete a random fact (rejections for duplicates
   and absences are expected traffic), under an occasional fault budget
   that trips maintenance mid-propagation; optionally read the counts
   back and compare every registered row against [Solver_ref] on the
   current relation.  Skipping the read sometimes lets staleness persist
   across further mutations, which is exactly the lifecycle the repair
   path must absorb. *)
let gen_step =
  QCheck.Gen.(
    map
      (fun ((add, check), (si, a, b), fault) -> (add, si, a, b, fault, check))
      (triple (pair bool bool)
         (triple (int_bound 2) (int_bound 3) (int_bound 3))
         (opt (int_range 1 6))))

let print_step (add, si, a, b, fault, check) =
  Printf.sprintf "(%s %d %d %d fault:%s check:%b)"
    (if add then "ins" else "del")
    si a b
    (match fault with Some t -> string_of_int t | None -> "-")
    check

let arb_steps =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map print_step l))
    QCheck.Gen.(list_size (int_range 5 30) gen_step)

let fact_of si a b =
  match si with
  | 0 -> (sym_e, tup2 a b)
  | 1 -> (sym_f, tup2 a b)
  | _ -> (sym_g, tup1 a)

let check_against_reference st =
  let d, _ =
    match Store.snapshot st ~name:"d" with
    | Store.Done v -> v
    | _ -> failwith "snapshot failed"
  in
  match Store.counts st ~name:"d" with
  | Store.Done rows ->
      List.for_all
        (fun r ->
          let q =
            List.find
              (fun q -> Query.to_string q = r.Store.cr_query)
              diff_queries
          in
          Nat.to_string r.Store.cr_count
          = string_of_int (Solver_ref.count q d))
        rows
      && List.length rows = List.length diff_queries
  | _ -> false

let diff_property steps =
  let st = fresh_store () in
  (match Store.db_create st ~name:"d" (Structure.empty Schema.empty) with
  | Store.Done _ -> ()
  | _ -> failwith "create failed");
  List.iter
    (fun q ->
      match Store.register st ~name:"d" q with
      | Store.Done _ -> ()
      | _ -> failwith "register failed")
    diff_queries;
  List.for_all
    (fun (add, si, a, b, fault, check) ->
      let sym, tup = fact_of si a b in
      let budget = Option.map (fun t -> Budget.fault_at ~tick:t ()) fault in
      (match
         (if add then Store.db_insert else Store.db_delete)
           ?budget st ~name:"d" sym tup
       with
      | Store.Done _ | Store.Rejected _ -> ()
      | Store.Exhausted _ -> failwith "mutations absorb trips, never surface them");
      (not check) || check_against_reference st)
    steps
  && check_against_reference st

(* The join-tree engine alone, on random acyclic components of 1–5 atoms
   over E/2, F/2 and U/1: each atom after the first draws its shared
   variables from one earlier atom (so GYO reduction succeeds), with
   repeated variables and a constant [c] the database interprets half the
   time.  One binary atom in four copies two variables of that earlier
   atom, so keys of width 2 occur.  The database starts on values 0–2 and
   the toggles draw from 0–5, so inserts bring in values the state has
   never coded and deletes can remove a value's last tuple.  The one-shot
   count, the materialised total and the reference agree, and the total
   keeps equal to a fresh one-shot count through a random sequence of
   inserts and deletes. *)
let sym_u = Symbol.make "U" 1

let gen_jtree_case st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let fresh = ref 0 in
  let atoms =
    List.fold_left
      (fun prev _ ->
        let sym = pick [ sym_e; sym_f; sym_u ] in
        let shared = if prev = [] then [] else Atom.vars (pick prev) in
        if Symbol.arity sym = 2 && List.length shared >= 2 && Random.State.int st 4 = 0
        then begin
          let x = pick shared in
          let y = pick (List.filter (( <> ) x) shared) in
          prev @ [ Build.atom sym [ Build.v x; Build.v y ] ]
        end
        else begin
          let args = Array.make (Symbol.arity sym) (Build.c "c") in
          Array.iteri
            (fun p _ ->
              args.(p) <-
                (match Random.State.int st 6 with
                | (0 | 1 | 2) when shared <> [] -> Build.v (pick shared)
                | 3 when p > 0 -> args.(p - 1)
                | 4 -> Build.c "c"
                | _ ->
                    incr fresh;
                    Build.v (Printf.sprintf "v%d" !fresh)))
            args;
          prev @ [ Build.atom sym (Array.to_list args) ]
        end)
      [] (List.init (1 + Random.State.int st 5) Fun.id)
  in
  let fact values =
    let v () = Random.State.int st values in
    match Random.State.int st 3 with
    | 0 -> (sym_e, tup2 (v ()) (v ()))
    | 1 -> (sym_f, tup2 (v ()) (v ()))
    | _ -> (sym_u, tup1 (v ()))
  in
  let d =
    List.fold_left
      (fun d (s, t) -> if Structure.mem_atom d s t then d else Structure.add_atom d s t)
      (Structure.empty Schema.empty)
      (List.init (Random.State.int st 10) (fun _ -> fact 3))
  in
  let d =
    if Random.State.bool st then
      Structure.bind_constant d "c" (Value.int (Random.State.int st 3))
    else d
  in
  (Build.query atoms, d, List.init (Random.State.int st 12) (fun _ -> fact 6))

let arb_jtree_case =
  QCheck.make
    ~print:(fun (q, d, toggles) ->
      Printf.sprintf "%s on %s then toggle %s" (Query.to_string q) (Encode.to_string d)
        (String.concat " "
           (List.map (fun (s, t) -> Encode.fact_to_string s t) toggles)))
    gen_jtree_case

let jtree_property (q, d, toggles) =
  let jt =
    match Decomp.choose q with
    | Decomp.Dp t -> Decomp.jtree t
    | _ -> QCheck.Test.fail_report "an ear-built component must be acyclic"
  in
  let agree d n =
    Nat.equal n (Jtree.count jt d)
    && Nat.to_string n = string_of_int (Solver_ref.count q d)
  in
  match Jtree.build jt d with
  | None -> Structure.interpretation d "c" = None && agree d Nat.zero
  | Some st ->
      agree d (Jtree.total st)
      && snd
           (List.fold_left
              (fun (d, ok) (s, t) ->
                let add = not (Structure.mem_atom d s t) in
                let d' =
                  if add then Structure.add_atom d s t else Structure.remove_atom d s t
                in
                Jtree.delta st s t ~add;
                (d', ok && Nat.equal (Jtree.total st) (Jtree.count jt d')))
              (d, true) toggles)

(* ------------------------------------------------------------------ *)
(* int weights promoted to Nat past 2^61                               *)
(* ------------------------------------------------------------------ *)

(* The join-tree DP keeps weights in [int]s and promotes a table to [Nat]
   when an entry or a child-weight product would reach 2^61.  On
   E(1,1..8) and E(2,1..3) a star with k leaves counts 8^k + 3^k, and a
   6-cycle closes only inside {1,2}, 32 times from each start.  Ticks
   count rows and tuples, so the tick figures pin the work whatever the
   table layout. *)
let promo_facts =
  List.init 8 (fun i -> (sym_e, tup2 1 (i + 1))) @ List.init 3 (fun i -> (sym_e, tup2 2 (i + 1)))

let promo_db =
  List.fold_left (fun d (s, t) -> Structure.add_atom d s t) (Structure.empty Schema.empty) promo_facts

let conj atoms = Parse.parse_exn (String.concat " & " atoms)
let leaves v k = List.init k (fun i -> Printf.sprintf "E(%s,%s%d)" v v (i + 1))
let star = conj (leaves "x" 22)
let two_61 = Nat.pow Nat.two 61

(* Check the result of [f] under an unlimited budget, and the ticks it
   metered. *)
let metered label expect ticks f =
  let b = Budget.unlimited () in
  let n = f b in
  Alcotest.(check string) label expect (Nat.to_string n);
  Alcotest.(check int) (label ^ " ticks") ticks (Budget.ticks b)

let test_promoted_star () =
  let jt =
    match Decomp.choose star with
    | Decomp.Dp t -> Decomp.jtree t
    | _ -> Alcotest.fail "the star must be acyclic"
  in
  let expect = "73786976326219266073" (* 8^22 + 3^22 *) in
  metered "Eval.count" expect 264 (fun budget -> Eval.count ~budget star promo_db);
  metered "Jtree.count" expect 264 (fun budget -> Jtree.count ~budget jt promo_db)

(* Each of the 22 leaf bags {a,pK} ticks 2 seeks past the two sources
   and walks the 11 edges: 286.  The four cycle bags tick 33, 101, 101
   and 39 by the leapfrog's rule: 560 in all. *)
let test_promoted_ghd () =
  let q = conj ([ "E(a,b)"; "E(b,c)"; "E(c,d)"; "E(d,e)"; "E(e,f)"; "E(f,a)" ] @ leaves "a" 22) in
  let expect = "2361183242439016514336" (* 32 (8^22 + 3^22) *) in
  (match Decomp.choose q with
  | Decomp.Ghd g ->
      Alcotest.(check int) "width" 2 (Ghd.width g);
      Alcotest.(check int) "bags" 26 (Ghd.nbags g);
      metered "Ghd.count" expect 560 (fun budget -> Ghd.count ~budget g promo_db)
  | _ -> Alcotest.fail "the pendant 6-cycle must route to Ghd");
  metered "Eval.count" expect 560 (fun budget -> Eval.count ~budget q promo_db)

(* A registered star whose total crosses 2^61 on an insert and comes back
   on a delete.  E sits at all 22 nodes, which join at x, so a delta of
   E(1,_) ticks once per node and re-weighs the x = 1 frames of the 21
   nodes above a changed child: 22 + 21·6, 22 + 21·7, then 22 + 21·8 for
   the first delete, whose tuple's frame stays filed while the change
   from below is propagated, and 22 + 21·7. *)
let test_promoted_store () =
  let st = fresh_store () in
  create_db st "s"
    (List.filter
       (fun (_, t) -> not (Tuple.equal t (tup2 1 7) || Tuple.equal t (tup2 1 8)))
       promo_facts);
  let step label ticks expect f =
    let b = Budget.unlimited () in
    f b;
    Alcotest.(check int) (label ^ " ticks") ticks (Budget.ticks b);
    let d, _ = done_exn (Store.snapshot st ~name:"s") in
    let rows = done_exn (Store.counts st ~name:"s") in
    Alcotest.(check string) (label ^ ": maintained") expect (count_of rows (Query.to_string star));
    Alcotest.(check string) (label ^ ": fresh") expect (Nat.to_string (Eval.count star d));
    Alcotest.(check bool) (label ^ ": still maintained") true
      (List.for_all (fun r -> r.Store.cr_maintained) rows);
    Nat.of_string expect
  in
  let insert tup budget = ignore (done_exn (Store.db_insert ~budget st ~name:"s" sym_e tup)) in
  let delete tup budget = ignore (done_exn (Store.db_delete ~budget st ~name:"s" sym_e tup)) in
  let low =
    step "register" 220 "131621735223326745" (fun budget ->
        ignore (done_exn (Store.register ~budget st ~name:"s" star)))
  in
  let high = step "insert E(1,7)" 148 "3909821079964047658" (insert (tup2 1 7)) in
  Alcotest.(check bool) "below 2^61, then above" true
    (Nat.compare low two_61 < 0 && Nat.compare high two_61 > 0);
  ignore (step "insert E(1,8)" 169 "73786976326219266073" (insert (tup2 1 8)));
  ignore (step "delete E(1,8)" 190 "3909821079964047658" (delete (tup2 1 8)));
  let back = step "delete E(1,7)" 169 "131621735223326745" (delete (tup2 1 7)) in
  Alcotest.(check bool) "back below 2^61" true (Nat.compare back two_61 < 0)

(* The mutated symbol at one node of an F star: an E tuple's change climbs
   the tree as per-key deltas, past 2^61 and back to zero, and brings in
   a value (9) the state has never coded. *)
let test_promoted_delta () =
  let q = conj ("E(x,y0)" :: List.init 21 (fun i -> Printf.sprintf "F(x,y%d)" (i + 1))) in
  let jt =
    match Decomp.choose q with
    | Decomp.Dp t -> Decomp.jtree t
    | _ -> Alcotest.fail "the star must be acyclic"
  in
  let d =
    List.fold_left
      (fun d (_, t) -> Structure.add_atom d sym_f t)
      (Structure.empty Schema.empty) promo_facts
  in
  let st = Option.get (Jtree.build jt d) in
  Alcotest.(check string) "no E tuple" "0" (Nat.to_string (Jtree.total st));
  ignore
    (List.fold_left
       (fun d (add, tup, expect) ->
         let d = if add then Structure.add_atom d sym_e tup else Structure.remove_atom d sym_e tup in
         Jtree.delta st sym_e tup ~add;
         let label = Encode.fact_to_string sym_e tup in
         Alcotest.(check string) (label ^ ": maintained") expect (Nat.to_string (Jtree.total st));
         Alcotest.(check string) (label ^ ": fresh") expect (Nat.to_string (Jtree.count jt d));
         d)
       d
       [
         (true, tup2 1 1, "9223372036854775808" (* 8^21 *));
         (true, tup2 2 9, "9223372047315129011" (* 8^21 + 3^21 *));
         (true, tup2 1 2, "18446744084169904819" (* 2 8^21 + 3^21 *));
         (false, tup2 1 1, "9223372047315129011");
         (false, tup2 1 2, "10460353203" (* 3^21 *));
         (false, tup2 2 9, "0");
       ])

(* Width-1 keys over a domain of 21 values while U holds two: such tables
   hash their codes instead of indexing an array by them.  Counts agree
   with the reference through inserts of new values and deletes, and
   through enough new U values to grow a hashed table. *)
let test_hashed_keys () =
  let d =
    List.fold_left
      (fun d (s, t) -> Structure.add_atom d s t)
      (Structure.empty Schema.empty)
      ((sym_u, tup1 3) :: (sym_u, tup1 7) :: List.init 20 (fun i -> (sym_f, tup2 i (i + 1))))
  in
  List.iter
    (fun text ->
      let q = Parse.parse_exn text in
      let jt =
        match Decomp.choose q with
        | Decomp.Dp t -> Decomp.jtree t
        | _ -> Alcotest.failf "%s must be acyclic" text
      in
      let agree label d n =
        Alcotest.(check string)
          (text ^ " " ^ label)
          (string_of_int (Solver_ref.count q d))
          (Nat.to_string n)
      in
      agree "one-shot" d (Jtree.count jt d);
      let st = Option.get (Jtree.build jt d) in
      agree "built" d (Jtree.total st);
      ignore
        (List.fold_left
           (fun d (s, t) ->
             let add = not (Structure.mem_atom d s t) in
             let d = if add then Structure.add_atom d s t else Structure.remove_atom d s t in
             Jtree.delta st s t ~add;
             agree (Encode.fact_to_string s t) d (Jtree.total st);
             agree "one-shot" d (Jtree.count jt d);
             d)
           d
           ([
              (sym_u, tup1 11); (sym_f, tup2 30 3); (sym_u, tup1 30); (sym_u, tup1 3);
              (sym_f, tup2 7 8); (sym_f, tup2 11 31); (sym_u, tup1 31); (sym_u, tup1 7);
            ]
           (* past the eight entries a hashed table starts with *)
           @ List.init 12 (fun i -> (sym_u, tup1 (12 + i))))))
    [
      "F(x,y) & U(y) & F(y,z)";
      "U(x) & F(x,y) & F(y,z)";
      "F(x,y) & F(y,z) & U(z) & U(x)";
      "F(w,x) & F(x,y) & U(x) & F(y,z)";
    ]

(* ------------------------------------------------------------------ *)
(* self-joins: changed children propagate in order                     *)
(* ------------------------------------------------------------------ *)

(* A 5-regular digraph on 200 vertices from a fixed seed: the union of
   five random permutations that share no edge.  Returns the edge set
   and the generator, to draw an absent edge from. *)
let regular_graph () =
  let rng = Random.State.make [| 22 |] in
  let edges = Hashtbl.create 1000 in
  let rec perm () =
    let p = Array.init 200 Fun.id in
    for i = 199 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    if Array.exists Fun.id (Array.mapi (fun v w -> Hashtbl.mem edges (v, w)) p) then perm ()
    else Array.iteri (fun v w -> Hashtbl.add edges (v, w) ()) p
  in
  for _ = 1 to 5 do
    perm ()
  done;
  (edges, rng)

(* E sits at all three nodes of the path's join tree: the middle atom,
   with the outer two as its children.  A delta ticks once per node and
   once per middle frame joining a changed child key — the five
   out-edges of the tuple's head and the five in-edges of its tail —
   where a rescan would read the 1 000-tuple relation. *)
let test_selfjoin_ticks () =
  let edges, rng = regular_graph () in
  let st = fresh_store () in
  create_db st "r" (Hashtbl.fold (fun (a, b) () acc -> (sym_e, tup2 a b) :: acc) edges []);
  let q = Parse.parse_exn "E(x,y) & E(y,z) & E(z,w)" in
  ignore (done_exn (Store.register st ~name:"r" q));
  let rec absent () =
    let e = (Random.State.int rng 200, Random.State.int rng 200) in
    if Hashtbl.mem edges e then absent () else e
  in
  let a, b = absent () in
  let step label ticks add =
    let budget = Budget.unlimited () in
    let mutate = if add then Store.db_insert else Store.db_delete in
    let m = done_exn (mutate ~budget st ~name:"r" sym_e (tup2 a b)) in
    Alcotest.(check int) (label ^ ": maintained") 1 m.Store.maintained;
    Alcotest.(check int) (label ^ " ticks") ticks (Budget.ticks budget);
    let d, _ = done_exn (Store.snapshot st ~name:"r") in
    let rows = done_exn (Store.counts st ~name:"r") in
    Alcotest.(check string) (label ^ ": fresh")
      (Nat.to_string (Eval.count q d))
      (count_of rows (Query.to_string q))
  in
  step "insert" 13 true;
  step "delete" 13 false

(* Tuples that change a node together with its child, or two children of
   one node at once: a loop on the two-atom path, where the tuple matches
   both atoms; a loop, or an edge whose reverse is present, on the
   three-atom path, whose middle atom then joins both changed children
   (the outer atoms) at one frame; and any tuple on the star, whose three
   atoms all join at x.  The maintained total equals a fresh count and
   the reference after every step. *)
let test_cross_terms () =
  let d0 =
    List.fold_left
      (fun d (a, b) -> Structure.add_atom d sym_e (tup2 a b))
      (Structure.empty Schema.empty)
      [ (1, 2); (2, 3); (3, 1); (2, 4) ]
  in
  List.iter
    (fun text ->
      let q = Parse.parse_exn text in
      let jt =
        match Decomp.choose q with
        | Decomp.Dp t -> Decomp.jtree t
        | _ -> Alcotest.failf "%s must be acyclic" text
      in
      let st = Option.get (Jtree.build jt d0) in
      ignore
        (List.fold_left
           (fun d (add, a, b) ->
             let tup = tup2 a b in
             let d =
               (if add then Structure.add_atom else Structure.remove_atom) d sym_e tup
             in
             Jtree.delta st sym_e tup ~add;
             let label =
               Printf.sprintf "%s, %s %s" text (if add then "insert" else "delete")
                 (Encode.fact_to_string sym_e tup)
             in
             Alcotest.(check string) (label ^ ": maintained")
               (string_of_int (Solver_ref.count q d))
               (Nat.to_string (Jtree.total st));
             Alcotest.(check string) (label ^ ": fresh")
               (Nat.to_string (Jtree.count jt d))
               (Nat.to_string (Jtree.total st));
             d)
           d0
           [
             (true, 2, 2) (* a loop on a value with in- and out-edges *);
             (true, 5, 5) (* a loop on a new value *);
             (true, 1, 3) (* a second out-edge of 1: the star's x-children at once *);
             (true, 2, 1) (* closes a 2-cycle with E(1,2) *);
             (false, 2, 2);
             (false, 1, 3);
             (true, 2, 2);
             (false, 5, 5);
             (false, 2, 1);
             (false, 2, 2);
           ]))
    [ "E(x,y) & E(y,z)"; "E(x,y) & E(y,z) & E(z,w)"; "E(x,y) & E(x,z) & E(x,w)" ]

let selfjoin_tests =
  [
    Alcotest.test_case "self-join delta ticks" `Quick test_selfjoin_ticks;
    Alcotest.test_case "cross terms" `Quick test_cross_terms;
  ]

let promotion_tests =
  [
    Alcotest.test_case "star past 2^61" `Quick test_promoted_star;
    Alcotest.test_case "GHD past 2^61" `Quick test_promoted_ghd;
    Alcotest.test_case "registered star crosses 2^61" `Quick test_promoted_store;
    Alcotest.test_case "per-key deltas cross 2^61" `Quick test_promoted_delta;
    Alcotest.test_case "hashed width-1 keys" `Quick test_hashed_keys;
  ]

let diff_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"maintained counts equal reference recount"
         ~count:200 arb_steps diff_property);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"join-tree one-shot = materialised = reference"
         ~count:500 arb_jtree_case jtree_property);
  ]

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "flow" `Quick test_flow;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "strategies" `Quick test_strategies;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fuel trip marks stale" `Quick
            test_fuel_trip_marks_stale;
          Alcotest.test_case "register exhaustion" `Quick
            test_register_exhaustion_is_structured;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru cap" `Quick test_cache_lru;
          Alcotest.test_case "evict by database" `Quick test_cache_evict_db;
          Alcotest.test_case "intern lru cap" `Quick test_intern_lru;
        ] );
      ( "router",
        [
          Alcotest.test_case "eval by name invalidation" `Quick
            test_eval_by_name_invalidation;
          Alcotest.test_case "index rebuilt after mutation" `Quick
            test_index_rebuilt_after_mutation;
          Alcotest.test_case "mutation evicts by-name entries" `Quick
            test_mutation_evicts_by_name;
        ] );
      ("promotion", promotion_tests);
      ("self-join", selfjoin_tests);
      ("differential", diff_tests);
    ]
