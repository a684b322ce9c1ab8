(* Tests for the budgeted execution engine: the Budget/Outcome core, fault
   injection into each guarded loop (homomorphism enumeration, the
   isomorphism search, database enumeration, random sampling), and the
   two contract properties —
   (a) a guarded search that runs to [Complete] returns exactly what the
       unguarded search returns, and
   (b) any witness inside an [Exhausted] outcome still verifies. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_search
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Eval = Bagcq_hom.Eval
module Wcoj = Bagcq_hom.Wcoj
module Containment = Bagcq_reduction.Containment
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1
let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])
let path_q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])

let clique n =
  List.fold_left
    (fun d (a, b) -> Structure.add_fact d e [ Value.int a; Value.int b ])
    (Structure.empty Schema.empty)
    (List.concat_map
       (fun a -> List.map (fun b -> (a, b)) (List.init n succ))
       (List.init n succ))

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_unlimited_never_trips () =
  let b = Budget.unlimited () in
  for _ = 1 to 100_000 do
    Budget.tick b
  done;
  Alcotest.(check int) "ticks counted" 100_000 (Budget.ticks b);
  Alcotest.(check bool) "not tripped" true (Budget.tripped b = None);
  Alcotest.(check bool) "is unlimited" true (Budget.is_unlimited b)

let test_fuel_trips_exactly () =
  let b = Budget.create ~fuel:5 () in
  for _ = 1 to 5 do
    Budget.tick b
  done;
  Alcotest.(check int) "five ticks spent" 5 (Budget.ticks b);
  Alcotest.(check bool) "not yet tripped" true (Budget.tripped b = None);
  (match Budget.tick b with
  | () -> Alcotest.fail "sixth tick must trip"
  | exception Budget.Exhausted_ Budget.Fuel -> ());
  Alcotest.(check int) "tripping tick not counted" 5 (Budget.ticks b);
  Alcotest.(check bool) "tripped" true (Budget.tripped b = Some Budget.Fuel);
  (* a spent budget keeps raising *)
  match Budget.tick b with
  | () -> Alcotest.fail "spent budget must keep raising"
  | exception Budget.Exhausted_ Budget.Fuel -> ()

let test_zero_fuel () =
  let b = Budget.create ~fuel:0 () in
  match Budget.tick b with
  | () -> Alcotest.fail "zero fuel must trip on the first tick"
  | exception Budget.Exhausted_ Budget.Fuel -> ()

let test_fault_injection () =
  let b = Budget.fault_at ~reason:Budget.Deadline ~tick:3 () in
  Budget.tick b;
  Budget.tick b;
  (match Budget.tick b with
  | () -> Alcotest.fail "fault must trip at tick 3"
  | exception Budget.Exhausted_ Budget.Deadline -> ());
  Alcotest.(check bool) "tripped with injected reason" true
    (Budget.tripped b = Some Budget.Deadline)

let test_invalid_arguments () =
  Alcotest.(check bool) "negative fuel rejected" true
    (try
       ignore (Budget.create ~fuel:(-1) ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative timeout rejected" true
    (try
       ignore (Budget.create ~timeout_ms:(-1) ());
       false
     with Invalid_argument _ -> true)

let test_deadline_trips () =
  (* a deadline already in the past trips at the first clock poll *)
  let b = Budget.create ~timeout_ms:0 () in
  match
    for _ = 1 to 10 * Budget.clock_check_period do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "expired deadline must trip"
  | exception Budget.Exhausted_ Budget.Deadline ->
      Alcotest.(check int) "tripped at the first poll" Budget.clock_check_period
        (Budget.ticks b)

let test_outcome_helpers () =
  let c : (int, string) Outcome.t = Outcome.Complete 3 in
  let x : (int, string) Outcome.t = Outcome.Exhausted ("partial", Budget.Fuel) in
  Alcotest.(check bool) "is_complete" true (Outcome.is_complete c && not (Outcome.is_complete x));
  Alcotest.(check (option int)) "complete" (Some 3) (Outcome.complete c);
  Alcotest.(check (option int)) "complete of exhausted" None (Outcome.complete x);
  Alcotest.(check int) "map" 6 (match Outcome.map (fun n -> 2 * n) c with
    | Outcome.Complete n -> n
    | _ -> -1);
  Alcotest.(check int) "value" 7 (Outcome.value ~default:(fun s _ -> String.length s) x);
  let g = Outcome.guard ~partial:(fun () -> "best") (fun () -> raise_notrace (Budget.Exhausted_ Budget.Fuel)) in
  Alcotest.(check bool) "guard converts the exception" true
    (match g with Outcome.Exhausted ("best", Budget.Fuel) -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fault injection into each engine loop                               *)
(* ------------------------------------------------------------------ *)

let test_trip_mid_backtrack () =
  let k4 = clique 4 in
  let plan = Wcoj.compile path_q in
  let homs ?budget () =
    let n = ref 0 in
    Wcoj.iter ?budget (fun _ -> incr n) plan k4;
    !n
  in
  (* unguarded: 64 homomorphisms of the 2-path into K4 *)
  Alcotest.(check int) "unguarded count" 64 (homs ());
  let b = Budget.fault_at ~tick:10 () in
  (match homs ~budget:b () with
  | _ -> Alcotest.fail "budget must trip mid-backtrack"
  | exception Budget.Exhausted_ Budget.Fuel -> ());
  Alcotest.(check bool) "some work was done before the trip" true (Budget.ticks b > 0);
  (* Eval threads the budget through component counting too *)
  let b2 = Budget.fault_at ~tick:10 () in
  match Eval.count ~budget:b2 path_q k4 with
  | _ -> Alcotest.fail "budget must trip inside Eval.count"
  | exception Budget.Exhausted_ Budget.Fuel -> ()

(* k disjoint 2-paths and a directed 6-cycle, against the same 2-paths
   and two directed triangles, with one inequality in both: every count
   the isomorphism test compares agrees, and the search binds the paths
   before the cycle, so it walks the k! injective ways of placing the
   paths before each fails on the cycle.  The budget must stop that
   search. *)
let iso_pair k =
  let paths =
    List.init k (fun i -> Printf.sprintf "E(a%d,b%d) & E(b%d,c%d)" i i i i)
  in
  let q cycle = Parse.parse_exn (String.concat " & " (paths @ [ cycle; "a0 != c0" ])) in
  ( q "E(z1,z2) & E(z2,z3) & E(z3,z4) & E(z4,z5) & E(z5,z6) & E(z6,z1)",
    q "E(z1,z2) & E(z2,z3) & E(z3,z1) & E(z4,z5) & E(z5,z6) & E(z6,z4)" )

let test_trip_mid_isomorphism () =
  let small, big = iso_pair 3 in
  Alcotest.(check bool) "unguarded: not bag-equivalent" false
    (Containment.bag_equivalent small big);
  let b = Budget.create ~fuel:1_000_000 () in
  Alcotest.(check bool) "ample fuel: the same answer" false
    (Containment.bag_equivalent ~budget:b small big);
  let small, big = iso_pair 8 in
  let b = Budget.create ~fuel:100 () in
  (match Containment.bag_equivalent ~budget:b small big with
  | _ -> Alcotest.fail "budget must trip mid-isomorphism"
  | exception Budget.Exhausted_ Budget.Fuel -> ());
  Alcotest.(check int) "every tick spent" 100 (Budget.ticks b);
  let b = Budget.create ~fuel:100 () in
  let u q = Bagcq_cq.Ucq.of_disjuncts [ q ] in
  match Containment.ucq_bag_equivalent ~budget:b (u small) (u big) with
  | _ -> Alcotest.fail "budget must trip mid-pairing"
  | exception Budget.Exhausted_ Budget.Fuel -> ()

let test_trip_mid_enumeration () =
  let schema = Schema.make [ e ] in
  let budget = Budget.fault_at ~tick:9 () in
  match
    Dbspace.find_guarded ~budget ~with_constants:false schema ~max_size:2 (fun ~budget:_ _ ->
        false)
  with
  | Outcome.Exhausted (stats, Budget.Fuel) ->
      (* size 1 has 2 candidates, size 2 has 8: tick 9 lands mid-size-2 *)
      Alcotest.(check int) "size 1 completed" 1 stats.Dbspace.largest_size_completed;
      Alcotest.(check bool) "partial databases counted" true
        (stats.Dbspace.databases_tested >= 2 && stats.Dbspace.databases_tested < 10)
  | Outcome.Exhausted (_, Budget.Deadline) -> Alcotest.fail "wrong trip reason"
  | Outcome.Complete _ -> Alcotest.fail "budget must trip mid-enumeration"

let test_enumeration_complete_with_ample_fuel () =
  let schema = Schema.make [ e ] in
  let budget = Budget.create ~fuel:1_000_000 () in
  match
    Dbspace.find_guarded ~budget ~with_constants:false schema ~max_size:2 (fun ~budget:_ d ->
        Eval.satisfies d loop_q)
  with
  | Outcome.Complete (Some d, stats) ->
      Alcotest.(check bool) "witness satisfies" true (Eval.satisfies d loop_q);
      Alcotest.(check bool) "stats recorded" true (stats.Dbspace.databases_tested > 0)
  | Outcome.Complete (None, _) -> Alcotest.fail "expected a loop database"
  | Outcome.Exhausted _ -> Alcotest.fail "ample fuel must not trip"

(* A trip of a budget the sweep does not own is the predicate's own
   failure, not the sweep's exhaustion: it propagates, from the exhaustive
   sweep and from the sampler at every job count, and leaves the sweep's
   budget untripped. *)
let test_foreign_trip_propagates () =
  let schema = Schema.make [ e ] in
  let foreign = Budget.create ~fuel:0 () in
  let pred ~budget:_ _ = Budget.tick foreign; false in
  let sweeps =
    [
      ( "exhaustive",
        fun ~budget ~jobs ->
          ignore
            (Dbspace.find_guarded ~budget ~jobs ~with_constants:false schema ~max_size:2 pred)
      );
      ( "sampler",
        fun ~budget ~jobs ->
          ignore (Sampler.sample_batches_guarded ~budget ~jobs Sampler.default schema pred) );
    ]
  in
  List.iter
    (fun (name, sweep) ->
      List.iter
        (fun jobs ->
          let budget = Budget.unlimited () in
          (match sweep ~budget ~jobs with
          | () ->
              Alcotest.failf "%s, jobs=%d: a foreign trip must not end the sweep quietly" name
                jobs
          | exception Budget.Exhausted_ Budget.Fuel -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s, jobs=%d: sweep budget untripped" name jobs)
            true (Budget.tripped budget = None))
        [ 1; 2 ])
    sweeps

let test_trip_mid_sampling () =
  let schema = Schema.make [ e ] in
  let budget = Budget.fault_at ~tick:7 () in
  let config = { Sampler.default with Sampler.samples = 100 } in
  match Sampler.sample_batches_guarded ~budget config schema (fun ~budget:_ _ -> false) with
  | Outcome.Exhausted (partial, Budget.Fuel) ->
      Alcotest.(check bool) "some samples completed before the trip" true
        (partial.Sampler.tested > 0 && partial.Sampler.tested < 100);
      Alcotest.(check bool) "no witness in partial" true (partial.Sampler.witness = None)
  | Outcome.Exhausted (_, Budget.Deadline) -> Alcotest.fail "wrong trip reason"
  | Outcome.Complete _ -> Alcotest.fail "budget must trip mid-sampling"

let test_trip_mid_hunt () =
  let budget = Budget.create ~fuel:50 () in
  match Hunt.counterexample_guarded ~budget ~small:loop_q ~big:edge_q () with
  | Outcome.Exhausted ((report, progress), Budget.Fuel) ->
      Alcotest.(check bool) "no witness for an impossible violation" true
        (report.Hunt.witness = None);
      Alcotest.(check int) "ticks capped by fuel" 50 progress.Hunt.ticks_spent;
      Alcotest.(check bool) "databases tested reported" true
        (progress.Hunt.databases_tested > 0)
  | Outcome.Exhausted (_, Budget.Deadline) -> Alcotest.fail "wrong trip reason"
  | Outcome.Complete _ -> Alcotest.fail "50 ticks cannot finish the default hunt"

(* ------------------------------------------------------------------ *)
(* Contract properties                                                 *)
(* ------------------------------------------------------------------ *)

(* random inequality-free CQs over {E/2, U/1} with variables from a small
   pool — the shape every hunt in this repository takes *)
let random_query rng =
  let vars = [| "x"; "y"; "z"; "w" |] in
  let rv () = Build.v vars.(Random.State.int rng (Array.length vars)) in
  let n_atoms = 1 + Random.State.int rng 3 in
  Build.query
    (List.init n_atoms (fun _ ->
         if Random.State.bool rng then Build.atom e [ rv (); rv () ]
         else Build.atom u [ rv () ]))

let query_pair_gen =
  QCheck.make
    ~print:(fun (q1, q2) ->
      Printf.sprintf "small: %s\nbig:   %s" (Query.to_string q1) (Query.to_string q2))
    (fun rng -> (random_query rng, random_query rng))

let strategy =
  (* small sample count keeps 200 qcheck cases fast *)
  {
    Hunt.exhaustive_max_size = 2;
    Hunt.sampler = { Sampler.default with Sampler.samples = 30 };
  }

let witness_equal w1 w2 =
  match (w1, w2) with
  | None, None -> true
  | Some d1, Some d2 -> String.equal (Encode.to_string d1) (Encode.to_string d2)
  | _ -> false

(* (a) guarded-to-completion ≡ unguarded, for the full hunt pipeline *)
let prop_complete_matches_unguarded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"guarded Complete = unguarded hunt" ~count:60 query_pair_gen
       (fun (small, big) ->
         let unguarded = Hunt.counterexample ~strategy ~small ~big () in
         let budget = Budget.unlimited () in
         match Hunt.counterexample_guarded ~strategy ~budget ~small ~big () with
         | Outcome.Exhausted _ ->
             QCheck.Test.fail_report "unlimited budget reported exhaustion"
         | Outcome.Complete (report, progress) ->
             witness_equal report.Hunt.witness unguarded.Hunt.witness
             && report.Hunt.exhaustive_complete = unguarded.Hunt.exhaustive_complete
             && report.Hunt.tested_random = unguarded.Hunt.tested_random
             && report.Hunt.unverified = None
             && progress.Hunt.ticks_spent = Budget.ticks budget))

(* (a) again at the solver level: a budget large enough to complete must
   not change the count *)
let prop_solver_budget_transparent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"guarded Eval.count = unguarded" ~count:100 query_pair_gen
       (fun (q, _) ->
         let d = clique 3 in
         let plain = Eval.count q d in
         let budget = Budget.unlimited () in
         Nat.equal plain (Eval.count ~budget q d)))

(* (b) any witness inside an Exhausted outcome still verifies — swept over
   every fuel level on pairs known to have a witness *)
let prop_exhausted_witness_verifies =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"witness in Exhausted outcome verifies" ~count:60
       query_pair_gen (fun (small, big) ->
         List.for_all
           (fun fuel ->
             let budget = Budget.create ~fuel () in
             match Hunt.counterexample_guarded ~strategy ~budget ~small ~big () with
             | Outcome.Complete (report, _) -> (
                 match report.Hunt.witness with
                 | Some d -> Containment.bag_violation ~small ~big d
                 | None -> true)
             | Outcome.Exhausted ((report, progress), _) ->
                 progress.Hunt.ticks_spent <= fuel
                 &&
                 (match report.Hunt.witness with
                 | Some d -> Containment.bag_violation ~small ~big d
                 | None -> true))
           [ 0; 1; 7; 50; 300; 2_000 ]))

(* determinism: the same fuel trips at the same point with the same stats *)
let test_fuel_deterministic () =
  let run () =
    let budget = Budget.create ~fuel:400 () in
    match Hunt.counterexample_guarded ~budget ~small:loop_q ~big:edge_q () with
    | Outcome.Complete (_, progress) | Outcome.Exhausted ((_, progress), _) ->
        (progress.Hunt.ticks_spent, progress.Hunt.databases_tested,
         progress.Hunt.largest_size_completed)
  in
  let t1, d1, s1 = run () and t2, d2, s2 = run () in
  Alcotest.(check (triple int int int)) "identical replay" (t1, d1, s1) (t2, d2, s2)

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited never trips" `Quick test_unlimited_never_trips;
          Alcotest.test_case "fuel trips exactly" `Quick test_fuel_trips_exactly;
          Alcotest.test_case "zero fuel" `Quick test_zero_fuel;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "deadline trips" `Quick test_deadline_trips;
          Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "mid-backtrack" `Quick test_trip_mid_backtrack;
          Alcotest.test_case "mid-isomorphism" `Quick test_trip_mid_isomorphism;
          Alcotest.test_case "mid-enumeration" `Quick test_trip_mid_enumeration;
          Alcotest.test_case "enumeration completes" `Quick test_enumeration_complete_with_ample_fuel;
          Alcotest.test_case "foreign trip propagates" `Quick test_foreign_trip_propagates;
          Alcotest.test_case "mid-sampling" `Quick test_trip_mid_sampling;
          Alcotest.test_case "mid-hunt" `Quick test_trip_mid_hunt;
        ] );
      ( "contract",
        [
          prop_complete_matches_unguarded;
          prop_solver_budget_transparent;
          prop_exhausted_witness_verifies;
          Alcotest.test_case "fuel deterministic" `Quick test_fuel_deterministic;
        ] );
    ]
