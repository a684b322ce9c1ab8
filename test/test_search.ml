(* Tests for the counterexample-search layer: exhaustive database
   enumeration, random sampling, Lemma 22 amplification and the combined
   hunter. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_search
module Nat = Bagcq_bignum.Nat
module Eval = Bagcq_hom.Eval
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Containment = Bagcq_reduction.Containment

let e = Build.sym "E" 2
let u = Build.sym "U" 1
let vi = Value.int

let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])
let path_q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])

(* ------------------------------------------------------------------ *)
(* Dbspace                                                             *)
(* ------------------------------------------------------------------ *)

let test_potential_atoms () =
  let schema = Schema.make [ e; u ] in
  (* size 2: 4 binary + 2 unary *)
  Alcotest.(check int) "count" 6 (List.length (Dbspace.potential_atoms schema ~size:2));
  Alcotest.(check int) "count_space" 6 (Dbspace.count_space schema ~size:2)

(* How many candidates one sweep hands over: one counter per worker,
   summed. *)
let sweep_count ?with_constants schema ~max_size =
  Dbspace.fold ?with_constants schema ~max_size ~worker:(fun () -> ref 0)
    ~f:(fun ~budget:_ n _ -> incr n)
    ()
  |> Array.fold_left (fun acc n -> acc + !n) 0

(* The first witness of an unbudgeted sweep. *)
let first_witness ?with_constants schema ~max_size pred =
  match
    Dbspace.find_guarded ~budget:(Budget.unlimited ()) ?with_constants schema ~max_size
      (fun ~budget:_ d -> pred d)
  with
  | Outcome.Complete (w, _) -> w
  | Outcome.Exhausted _ -> Alcotest.fail "an unlimited budget tripped"

let test_fold_counts_all_databases () =
  (* one unary symbol, sizes 1..2, no constants: size 1 gives {} and
     {U(1)}; of the 4 masks at size 2 only {U(1), U(2)} uses both
     elements — {U(1)} and {U(2)} are copies of size 1's {U(1)} *)
  let schema = Schema.make [ u ] in
  Alcotest.(check int) "3 databases" 3 (sweep_count ~with_constants:false schema ~max_size:2)

let test_fold_with_constants () =
  (* the same space crossed with bindings of one constant: size 1 gives
     {} and {U(1)} with a := 1; size 2 gives {U(1)} with a := 2 (its
     isomorphic copy {U(2)} with a := 1 comes later) and {U(1), U(2)}
     with a := 1 *)
  let schema = Schema.make ~constants:[ "a" ] [ u ] in
  Alcotest.(check int) "4 databases" 4 (sweep_count schema ~max_size:2)

let test_fold_rejects_huge_space () =
  let schema = Schema.make [ Build.sym "T" 3 ] in
  Alcotest.(check bool) "raises on 27 atoms" true
    (try
       ignore (sweep_count schema ~max_size:3);
       false
     with Invalid_argument _ -> true)

let test_find () =
  let schema = Schema.make [ e ] in
  (* find a database with a loop *)
  match first_witness ~with_constants:false schema ~max_size:2 (fun d -> Eval.satisfies d loop_q)
  with
  | Some d -> Alcotest.(check bool) "found one with a loop" true (Eval.satisfies d loop_q)
  | None -> Alcotest.fail "expected a loop database"

let test_exists_exhaustive_negative () =
  (* no database satisfies E(x,y) ∧ ¬...: use an unsatisfiable ground fact
     over an uninterpreted constant *)
  let impossible = Build.(query [ atom e [ c "nowhere"; c "nowhere" ] ]) in
  let schema = Schema.make [ e ] in
  Alcotest.(check bool) "nothing satisfies it" false
    (Option.is_some
       (first_witness ~with_constants:false schema ~max_size:2 (fun d ->
            Eval.satisfies d impossible)))

(* The labelled enumeration the reduced sweep replaced, kept as the
   reference: at each size every subset of the potential atoms, crossed
   with every binding of the schema's constants (the first constant
   outermost), in that order. *)
let labelled_iter schema ~max_size f =
  for size = 1 to max_size do
    let atoms = Array.of_list (Dbspace.potential_atoms schema ~size) in
    for mask = 0 to (1 lsl Array.length atoms) - 1 do
      let d = ref (Structure.empty schema) in
      Array.iteri
        (fun i (sym, tup) -> if mask land (1 lsl i) <> 0 then d := Structure.add_atom !d sym tup)
        atoms;
      let rec bind d = function
        | [] -> f d
        | c :: rest ->
            for v = 1 to size do
              bind (Structure.bind_constant d c (vi v)) rest
            done
      in
      bind !d (Schema.constants schema)
    done
  done

let labelled_find schema ~max_size pred =
  let exception Found of Structure.t in
  match labelled_iter schema ~max_size (fun d -> if pred d then raise (Found d)) with
  | () -> None
  | exception Found d -> Some d

(* A database up to isomorphism: the least encoding over every bijection
   of its domain onto {1..|domain|}. *)
let iso_class d =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (List.cons x) (perms (List.filter (fun y -> not (Value.equal x y)) l)))
          l
  in
  perms (Value.Set.elements (Structure.domain d))
  |> List.map (fun p ->
         let rename = List.mapi (fun i v -> (v, vi (i + 1))) p in
         Encode.to_string (Structure.map_values (fun v -> List.assoc v rename) d))
  |> List.sort compare |> List.hd

let brute_force_classes schema ~max_size =
  let seen = Hashtbl.create 64 in
  labelled_iter schema ~max_size (fun d -> Hashtbl.replace seen (iso_class d) ());
  Hashtbl.length seen

let test_reduced_sweep_counts () =
  (* E/2 without constants: 2, 8, 94 and 2 940 candidates at sizes 1–4,
     where the labelled enumeration had 2, 16, 512 and 65 536 *)
  let schema = Schema.make [ e ] in
  let upto s = sweep_count schema ~max_size:s in
  Alcotest.(check (list int)) "per size" [ 2; 8; 94; 2_940 ]
    (List.map (fun s -> upto s - upto (s - 1)) [ 1; 2; 3; 4 ]);
  (* one candidate per isomorphism class, counted by brute force *)
  Alcotest.(check int) "E/2 to size 3 = its classes" (brute_force_classes schema ~max_size:3)
    (sweep_count schema ~max_size:3);
  let unary = Schema.make ~constants:[ "a" ] [ u ] in
  Alcotest.(check int) "U/1 and a constant to size 4 = its classes"
    (brute_force_classes unary ~max_size:4)
    (sweep_count unary ~max_size:4);
  let mixed = Schema.make ~constants:[ "a" ] [ e; u ] in
  Alcotest.(check int) "E/2, U/1 and a constant to size 2 = its classes"
    (brute_force_classes mixed ~max_size:2)
    (sweep_count mixed ~max_size:2)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

(* The sampling phase alone, on the unprepared violation check. *)
let sample_hunt ~small ~big () =
  match
    Sampler.sample_batches_guarded ~budget:(Budget.unlimited ()) Sampler.default
      (Sampler.schema_of_pair small big) (fun ~budget d ->
        Containment.bag_violation ~budget ~small ~big d)
  with
  | Outcome.Complete o -> o
  | Outcome.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_sampler_finds_violation () =
  (* path(D) > edge(D) on dense graphs: easy to hit randomly *)
  let outcome = sample_hunt ~small:path_q ~big:edge_q () in
  match outcome.Sampler.witness with
  | Some d ->
      Alcotest.(check bool) "verified" true
        (Nat.compare (Eval.count path_q d) (Eval.count edge_q d) > 0)
  | None -> Alcotest.fail "sampler should find a dense graph"

let test_sampler_respects_containment () =
  (* edge(D) ≤ path... no: edge ≥ path is false too. Use small = big:
     never a strict violation *)
  let outcome = sample_hunt ~small:edge_q ~big:edge_q () in
  Alcotest.(check bool) "no self-violation" true (outcome.Sampler.witness = None);
  Alcotest.(check int) "tested all samples" (Sampler.default.Sampler.samples)
    outcome.Sampler.tested

let test_sampler_deterministic () =
  let o1 = sample_hunt ~small:path_q ~big:edge_q () in
  let o2 = sample_hunt ~small:path_q ~big:edge_q () in
  Alcotest.(check int) "same tested count" o1.Sampler.tested o2.Sampler.tested

let test_check_all () =
  (* validate a true universal statement: edge(D) ≤ (domain size)² *)
  let schema = Schema.make [ e ] in
  let outcome =
    Sampler.check_all ~schema (fun d ->
        Nat.compare (Eval.count edge_q d)
          (Nat.of_int (Structure.domain_size d * Structure.domain_size d))
        <= 0)
  in
  Alcotest.(check bool) "no counterexample" true (outcome.Sampler.witness = None);
  (* and catch a false one: every database has an edge *)
  let outcome2 = Sampler.check_all ~schema (fun d -> Eval.satisfies d edge_q) in
  Alcotest.(check bool) "counterexample found" true (outcome2.Sampler.witness <> None)

(* ------------------------------------------------------------------ *)
(* Amplify                                                             *)
(* ------------------------------------------------------------------ *)

let two_edges =
  let d = Structure.add_fact (Structure.empty Schema.empty) e [ vi 1; vi 2 ] in
  Structure.add_fact d e [ vi 2; vi 1 ]

let test_separation () =
  (* edges = 2 > loops = 0 *)
  (match Amplify.separation ~small:edge_q ~big:loop_q two_edges with
  | Some (cs, cb) ->
      Alcotest.(check bool) "2 > 0" true (Nat.equal cs Nat.two && Nat.is_zero cb)
  | None -> Alcotest.fail "expected separation");
  Alcotest.(check bool) "no separation the other way" true
    (Amplify.separation ~small:loop_q ~big:edge_q two_edges = None)

let test_predicted_k () =
  (* small = 3, big = 2, factor 10: 3^k ≥ 10·2^k ⟺ (3/2)^k ≥ 10 ⟺ k ≥ 6 *)
  Alcotest.(check (option int)) "k = 6" (Some 6)
    (Amplify.predicted_k ~base_small:(Nat.of_int 3) ~base_big:Nat.two
       ~factor:(Nat.of_int 10));
  Alcotest.(check (option int)) "no amplification" None
    (Amplify.predicted_k ~base_small:Nat.two ~base_big:Nat.two ~factor:Nat.two);
  Alcotest.(check (option int)) "zero big" (Some 1)
    (Amplify.predicted_k ~base_small:Nat.two ~base_big:Nat.zero ~factor:(Nat.of_int 100))

let test_boost_until () =
  (* in the 3-clique-with-loops: paths 27 > edges 9; boost to factor 5:
     (27/9)^k = 3^k ≥ 5 at k = 2 *)
  let clique3 =
    List.fold_left
      (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
      (Structure.empty Schema.empty)
      (List.concat_map (fun a -> List.map (fun b -> (a, b)) [ 1; 2; 3 ]) [ 1; 2; 3 ])
  in
  match Amplify.boost_until ~small:path_q ~big:edge_q ~factor:(Nat.of_int 5) clique3 with
  | Some (d, k) ->
      Alcotest.(check int) "k = 2" 2 k;
      Alcotest.(check bool) "amplified separation" true
        (Nat.compare (Eval.count path_q d)
           (Nat.mul_int (Eval.count edge_q d) 5)
         >= 0)
  | None -> Alcotest.fail "expected amplification"

let test_boost_rejects_neqs () =
  let with_neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.check_raises "Lemma 22 needs ineq-free"
    (Invalid_argument "Amplify.boost_until: inequality-free CQs only (Lemma 22)") (fun () ->
      ignore (Amplify.boost_until ~small:with_neq ~big:edge_q ~factor:Nat.two two_edges))

(* ------------------------------------------------------------------ *)
(* Hunt                                                                *)
(* ------------------------------------------------------------------ *)

let test_hunt_finds_exhaustively () =
  (* loop(D) > edge(D) is impossible (a loop IS an edge): hunting must
     come back empty with the exhaustive phase complete *)
  let report = Hunt.counterexample ~small:loop_q ~big:edge_q () in
  Alcotest.(check bool) "no witness" true (report.Hunt.witness = None);
  Alcotest.(check bool) "exhaustive complete" true report.Hunt.exhaustive_complete

let test_hunt_finds_counterexample () =
  (* edge(D) > loop(D): the single edge, found in the exhaustive phase *)
  let report = Hunt.counterexample ~small:edge_q ~big:loop_q () in
  match report.Hunt.witness with
  | Some d ->
      Alcotest.(check bool) "verified" true
        (Containment.bag_violation ~small:edge_q ~big:loop_q d);
      Alcotest.(check (option (pair string string)))
        "counted once, exactly" (Some ("1", "0"))
        (Option.map
           (fun (cs, cb) -> (Nat.to_string cs, Nat.to_string cb))
           report.Hunt.counts);
      Alcotest.(check int) "found before sampling" 0 report.Hunt.tested_random
  | None -> Alcotest.fail "expected the single-edge counterexample"

let test_hunt_set_contained_but_bag_violated () =
  (* the motivating example: path ⊆ edge under set semantics, violated
     under bag semantics *)
  Alcotest.(check bool) "set contained" true
    (Bagcq_reduction.Containment.set_contains ~small:path_q ~big:edge_q ());
  let report = Hunt.counterexample ~small:path_q ~big:edge_q () in
  Alcotest.(check bool) "bag witness exists" true (report.Hunt.witness <> None)

let test_hunt_skips_infeasible_exhaustive () =
  (* a 4-ary relation: even size 2 gives 16 atoms ≤ 22, size 3 gives 81 —
     the hunter must degrade gracefully *)
  let t4 = Build.sym "T4" 4 in
  let q1 = Build.(query [ atom t4 [ v "x"; v "x"; v "y"; v "y" ] ]) in
  let q2 = Build.(query [ atom t4 [ v "x"; v "x"; v "x"; v "x" ] ]) in
  let strategy = { Hunt.default with Hunt.exhaustive_max_size = 3 } in
  let report = Hunt.counterexample ~strategy ~small:q1 ~big:q2 () in
  Alcotest.(check bool) "exhaustive was truncated" false report.Hunt.exhaustive_complete;
  Alcotest.(check bool) "still found a witness" true (report.Hunt.witness <> None)

(* The hunt written out with the unprepared violation check, as the
   reference for the prepared one: every candidate goes through
   [Containment.bag_violation] (or its UCQ form) with one cache per hunt,
   the phases through [Dbspace.find_guarded] and
   [Sampler.sample_batches_guarded] at jobs=1, on the one budget; a
   witness is counted by [counts], the exact unprepared count. *)
let reference_hunt ~strategy ~budget ~schema ~counts violation =
  let cache = Eval.create_cache () in
  let pred ~budget d = violation ~budget ~cache d in
  let size = Hunt.feasible_size schema strategy.Hunt.exhaustive_max_size in
  let result ?witness ~complete ~random (s : Dbspace.stats) =
    ( {
        Hunt.witness;
        counts = Option.map counts witness;
        exhaustive_complete = complete;
        tested_random = random;
        unverified = None;
      },
      {
        Hunt.databases_tested = s.Dbspace.databases_tested + random;
        ticks_spent = Budget.ticks budget;
        largest_size_completed = s.Dbspace.largest_size_completed;
      } )
  in
  let exhaustive =
    if size < 1 then
      Outcome.Complete (None, { Dbspace.databases_tested = 0; largest_size_completed = 0 })
    else Dbspace.find_guarded ~budget ~jobs:1 schema ~max_size:size pred
  in
  let complete = size = strategy.Hunt.exhaustive_max_size in
  match exhaustive with
  | Outcome.Exhausted (s, reason) ->
      Outcome.Exhausted (result ~complete:false ~random:0 s, reason)
  | Outcome.Complete (Some w, s) -> Outcome.Complete (result ~witness:w ~complete ~random:0 s)
  | Outcome.Complete (None, s) -> (
      match Sampler.sample_batches_guarded ~budget ~jobs:1 strategy.Hunt.sampler schema pred with
      | Outcome.Exhausted (o, reason) ->
          Outcome.Exhausted (result ~complete ~random:o.Sampler.tested s, reason)
      | Outcome.Complete o ->
          Outcome.Complete
            (result ?witness:o.Sampler.witness ~complete ~random:o.Sampler.tested s))

let hunt_summary outcome =
  let show (r, p) =
    Printf.sprintf
      "witness=%s counts=%s complete=%b random=%d unverified=%b tested=%d ticks=%d largest=%d"
      (match r.Hunt.witness with None -> "none" | Some d -> Encode.to_string d)
      (match r.Hunt.counts with
      | None -> "none"
      | Some (cs, cb) -> Nat.to_string cs ^ ">" ^ Nat.to_string cb)
      r.Hunt.exhaustive_complete r.Hunt.tested_random (r.Hunt.unverified <> None)
      p.Hunt.databases_tested p.Hunt.ticks_spent p.Hunt.largest_size_completed
  in
  match outcome with
  | Outcome.Complete rp -> "complete " ^ show rp
  | Outcome.Exhausted (rp, reason) ->
      Printf.sprintf "exhausted(%s) %s" (Budget.reason_to_string reason) (show rp)

(* Small CQs over E/2 and U/1 with loops, the constant [a] and an
   occasional inequality. *)
let random_cq st =
  let nvars = 1 + Random.State.int st 3 in
  let term () =
    if Random.State.int st 6 = 0 then Build.c "a"
    else Build.v (Printf.sprintf "x%d" (Random.State.int st nvars))
  in
  let atoms =
    List.init
      (1 + Random.State.int st 3)
      (fun _ ->
        if Random.State.int st 4 = 0 then Build.atom u [ term () ]
        else Build.atom e [ term (); term () ])
  in
  let neqs =
    if Random.State.int st 4 = 0 then
      let a = term () and b = term () in
      if Term.equal a b then [] else [ (a, b) ]
    else []
  in
  match Build.query atoms ~neqs with q -> q | exception Invalid_argument _ -> edge_q

type pair = Cq of Query.t * Query.t | Union of Ucq.t * Ucq.t

let random_pair st =
  if Random.State.bool st then Cq (random_cq st, random_cq st)
  else
    let small = List.init (1 + Random.State.int st 2) (fun _ -> random_cq st) in
    let big = List.init (1 + Random.State.int st 2) (fun _ -> random_cq st) in
    let big = if Random.State.bool st then List.hd small :: big else big in
    Union (Ucq.of_disjuncts small, Ucq.of_disjuncts big)

let pair_to_string = function
  | Cq (s, b) -> Query.to_string s ^ " vs " ^ Query.to_string b
  | Union (s, b) -> Ucq.to_string s ^ " vs " ^ Ucq.to_string b

(* CQ pairs and UCQ pairs (where [big] often repeats a disjunct of
   [small], so the per-candidate memo is hit), every exhaustive size up
   to 2, a few samples, and fuel from "trips in the first candidate" to
   unlimited. *)
let gen_hunt_case =
  QCheck.make
    ~print:(fun (pair, strategy, fuel) ->
      Printf.sprintf "%s; exhaustive %d, samples %d, seed %d, fuel %s" (pair_to_string pair)
        strategy.Hunt.exhaustive_max_size strategy.Hunt.sampler.Sampler.samples
        strategy.Hunt.sampler.Sampler.seed
        (match fuel with None -> "unlimited" | Some f -> string_of_int f))
    (fun st ->
      let pair = random_pair st in
      let strategy =
        {
          Hunt.exhaustive_max_size = Random.State.int st 3;
          sampler =
            {
              Sampler.default with
              Sampler.samples = Random.State.int st 25;
              seed = Random.State.int st 1000;
            };
        }
      in
      let fuel =
        if Random.State.bool st then None else Some (1 + Random.State.int st 600)
      in
      (pair, strategy, fuel))

let prop_hunt_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"prepared hunt = unprepared reference sweep" ~count:200
       gen_hunt_case (fun (pair, strategy, fuel) ->
         let budget () =
           match fuel with None -> Budget.unlimited () | Some fuel -> Budget.create ~fuel ()
         in
         List.for_all
           (fun jobs ->
             let got = budget () and want = budget () in
             let got, want =
               match pair with
               | Cq (small, big) ->
                   ( Hunt.counterexample_guarded ~strategy ?jobs ~budget:got ~small ~big (),
                     reference_hunt ~strategy ~budget:want
                       ~schema:(Sampler.schema_of_pair small big)
                       ~counts:(Containment.bag_counts ~small ~big)
                       (fun ~budget ~cache -> Containment.bag_violation ~budget ~cache ~small ~big) )
               | Union (small, big) ->
                   ( Hunt.ucq_counterexample_guarded ~strategy ?jobs ~budget:got ~small ~big (),
                     reference_hunt ~strategy ~budget:want
                       ~schema:(Schema.union (Ucq.schema small) (Ucq.schema big))
                       ~counts:(Containment.ucq_bag_counts ~small ~big)
                       (fun ~budget ~cache ->
                         Containment.ucq_bag_violation ~budget ~cache ~small ~big) )
             in
             let got = hunt_summary got and want = hunt_summary want in
             got = want
             || QCheck.Test.fail_reportf "%s:@.hunt      %s@.reference %s"
                  (if jobs = None then "jobs omitted" else "jobs=1")
                  got want)
           [ None; Some 1 ]))

(* The reduced sweep returns the labelled enumeration's first witness,
   or none when it has none: on every path with an unlimited budget, and
   on the one-job paths (jobs omitted or 1) whenever a fuel-limited run
   completes (a trip stops them before any later candidate).  Under fuel
   the jobs=2 path only has to end [Complete] or [Exhausted]: a shard
   that trips may leave an earlier chunk unswept while another finds a
   later witness. *)
let prop_reduced_sweep_matches_labelled =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reduced sweep = labelled reference" ~count:300
       (QCheck.make
          ~print:(fun (pair, max_size, fuel) ->
            Printf.sprintf "%s; size %d, fuel %d" (pair_to_string pair) max_size fuel)
          (fun st -> (random_pair st, Random.State.int st 4, 1 + Random.State.int st 2000)))
       (fun (pair, max_size, fuel) ->
         let schema, violation =
           match pair with
           | Cq (small, big) ->
               ( Sampler.schema_of_pair small big,
                 fun ?cache ~budget d -> Containment.bag_violation ?cache ~budget ~small ~big d
               )
           | Union (small, big) ->
               ( Schema.union (Ucq.schema small) (Ucq.schema big),
                 fun ?cache ~budget d ->
                   Containment.ucq_bag_violation ?cache ~budget ~small ~big d )
         in
         let show = function None -> "none" | Some d -> Encode.to_string d in
         let want =
           show
             (labelled_find schema ~max_size
                (violation ~cache:(Eval.create_cache ()) ~budget:(Budget.unlimited ())))
         in
         List.for_all
           (fun (name, jobs) ->
             let run budget =
               Dbspace.find_guarded ~budget ?jobs schema ~max_size (violation ?cache:None)
             in
             let agrees how w =
               show w = want
               || QCheck.Test.fail_reportf "%s, %s: reduced %s@.labelled %s" name how (show w)
                    want
             in
             (match run (Budget.unlimited ()) with
             | Outcome.Complete (w, _) -> agrees "unlimited" w
             | Outcome.Exhausted _ -> QCheck.Test.fail_reportf "%s: unlimited exhausted" name)
             &&
             match run (Budget.create ~fuel ()) with
             | Outcome.Complete (w, _) when jobs <> Some 2 -> agrees "fuel" w
             | Outcome.Complete _ | Outcome.Exhausted _ -> true)
           [ ("jobs omitted", None); ("jobs=1", Some 1); ("jobs=2", Some 2) ]))

let () =
  Alcotest.run "search"
    [
      ( "dbspace",
        [
          Alcotest.test_case "potential atoms" `Quick test_potential_atoms;
          Alcotest.test_case "fold counts" `Quick test_fold_counts_all_databases;
          Alcotest.test_case "fold with constants" `Quick test_fold_with_constants;
          Alcotest.test_case "one candidate per class" `Quick test_reduced_sweep_counts;
          prop_reduced_sweep_matches_labelled;
          Alcotest.test_case "rejects huge spaces" `Quick test_fold_rejects_huge_space;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "exists negative" `Quick test_exists_exhaustive_negative;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "finds violation" `Quick test_sampler_finds_violation;
          Alcotest.test_case "no false positives" `Quick test_sampler_respects_containment;
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "check_all" `Quick test_check_all;
        ] );
      ( "amplify",
        [
          Alcotest.test_case "separation" `Quick test_separation;
          Alcotest.test_case "predicted k" `Quick test_predicted_k;
          Alcotest.test_case "boost until" `Quick test_boost_until;
          Alcotest.test_case "rejects inequalities" `Quick test_boost_rejects_neqs;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "exhaustive negative" `Quick test_hunt_finds_exhaustively;
          Alcotest.test_case "finds counterexample" `Quick test_hunt_finds_counterexample;
          Alcotest.test_case "set vs bag" `Quick test_hunt_set_contained_but_bag_violated;
          Alcotest.test_case "skips infeasible" `Quick test_hunt_skips_infeasible_exhaustive;
          prop_hunt_matches_reference;
        ] );
    ]
