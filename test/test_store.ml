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
  let c = Cache.create ~max_results:2 ~metrics:m () in
  let probe key = Option.is_some (Cache.find_result c key) in
  Cache.store_result c "a" [ ("k", Json.Int 1) ];
  Cache.store_result c "b" [ ("k", Json.Int 2) ];
  (* touch "a" so "b" is the LRU victim *)
  Alcotest.(check bool) "a present" true (probe "a");
  Cache.store_result c "c" [ ("k", Json.Int 3) ];
  Alcotest.(check bool) "b evicted as LRU" false (probe "b");
  Alcotest.(check bool) "a survived (recently used)" true (probe "a");
  Alcotest.(check bool) "c stored" true (probe "c");
  let s = Cache.stats c in
  Alcotest.(check int) "entries capped" 2 s.Cache.result_entries;
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
  let decode = Encode.parse_exn in
  let texts = [| "E(1,2)."; "E(2,3)."; "E(3,1)." |] in
  let c = Cache.create ~max_results:2 () in
  let first = Array.map (fun text -> Cache.intern_db c (decode text)) texts in
  let again = decode texts.(0) in
  Alcotest.(check bool) "first database evicted by the third" true
    (Cache.intern_db c again == again);
  Alcotest.(check bool) "third database still interned" true
    (Cache.intern_db c (decode texts.(2)) == first.(2));
  let c = Cache.create ~max_results:2 () in
  let a = Cache.intern_db c (decode texts.(0)) in
  let b = Cache.intern_db c (decode texts.(1)) in
  ignore (Cache.intern_db c (decode texts.(0)));
  ignore (Cache.intern_db c (decode texts.(2)));
  Alcotest.(check bool) "a hit keeps a" true (Cache.intern_db c (decode texts.(0)) == a);
  Alcotest.(check bool) "b was the LRU victim" false
    (Cache.intern_db c (decode texts.(1)) == b)

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

(* The five after the triangle carry one symbol at two nodes (a delta
   rescans) or leave a node with siblings (per-key propagation multiplies
   by them).  The last two read the whole domain through inequality-only
   variables (one of them atom-free), so a delta on any symbol can move
   them. *)
let diff_queries =
  List.map Parse.parse_exn
    [
      "E(x,y)";
      "E(x,y) & F(y,z)";
      "E(x,y) & E(y,z) & E(z,x)";
      "E(x,y) & E(y,z) & E(z,w)";
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
   time.  The one-shot count, the materialised total and the reference
   agree, and the total keeps equal to a fresh one-shot count through a
   random sequence of inserts and deletes. *)
let sym_u = Symbol.make "U" 1

let gen_jtree_case st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let fresh = ref 0 in
  let atoms =
    List.fold_left
      (fun prev _ ->
        let sym = pick [ sym_e; sym_f; sym_u ] in
        let shared = if prev = [] then [] else Atom.vars (pick prev) in
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
        prev @ [ Build.atom sym (Array.to_list args) ])
      [] (List.init (1 + Random.State.int st 5) Fun.id)
  in
  let fact () =
    match Random.State.int st 3 with
    | 0 -> (sym_e, tup2 (Random.State.int st 3) (Random.State.int st 3))
    | 1 -> (sym_f, tup2 (Random.State.int st 3) (Random.State.int st 3))
    | _ -> (sym_u, tup1 (Random.State.int st 3))
  in
  let d =
    List.fold_left
      (fun d (s, t) -> if Structure.mem_atom d s t then d else Structure.add_atom d s t)
      (Structure.empty Schema.empty)
      (List.init (Random.State.int st 10) (fun _ -> fact ()))
  in
  let d =
    if Random.State.bool st then
      Structure.bind_constant d "c" (Value.int (Random.State.int st 3))
    else d
  in
  (Build.query atoms, d, List.init (Random.State.int st 12) (fun _ -> fact ()))

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
                Jtree.delta st d' s t ~add;
                (d', ok && Nat.equal (Jtree.total st) (Jtree.count jt d')))
              (d, true) toggles)

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
      ("differential", diff_tests);
    ]
