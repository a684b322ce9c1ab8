(* The bounded-width hypertree-decomposition planner and its bag-DP
   counting kernel: differential checking against the reference solver on
   random width-≤2 cyclic queries (long cycles with chords, θ-patterns,
   two fused cycles, repeated variables, constants), both through the raw
   [Ghd.plan]/[Ghd.count] pair and through the full [Eval] pipeline;
   plan-shape unit tests; budget trips mid-bag-materialisation. *)

open Bagcq_relational
open Bagcq_cq
module Solver_ref = Bagcq_hom.Solver_ref
module Ghd = Bagcq_hom.Ghd
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Jtree = Bagcq_hom.Jtree
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let random_db ?(max_n = 4) ?(max_edges = 12) st =
  let n = 1 + Random.State.int st max_n in
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for _ = 1 to Random.State.int st (max_edges + 1) do
    d :=
      Structure.add_fact !d e
        [ Value.int (Random.State.int st n); Value.int (Random.State.int st n) ]
  done;
  for _ = 1 to Random.State.int st 4 do
    d := Structure.add_fact !d u [ Value.int (Random.State.int st n) ]
  done;
  if Random.State.bool st then d := Structure.bind_constant !d "a" (Value.int 0);
  !d

let var i = Build.v (Printf.sprintf "x%d" i)

(* A cycle of length [len] (treewidth 2), decorated with unary atoms,
   loops, a constant endpoint, or a short chord — all width-≤2 shapes. *)
let random_long_cycle ~len st =
  let v i = var (i mod len) in
  let base = Build.cycle e (List.init len (fun i -> v i)) in
  let extras =
    List.init (Random.State.int st 3) (fun _ ->
        let i = Random.State.int st len in
        match Random.State.int st 4 with
        | 0 -> Build.atom u [ v i ]
        | 1 -> Build.atom e [ v i; Build.c "a" ]
        | 2 -> Build.atom e [ v i; v i ]
        | _ -> Build.atom e [ v i; v (i + 1) ])
  in
  Build.query (base @ extras)

(* Two cycles fused on a shared vertex (or a shared edge): still
   treewidth 2, but with two independent cyclic cores — the shape the
   EXP-GHD benchmark uses. *)
let random_fused_cycles st =
  let l1 = 3 + Random.State.int st 3 and l2 = 3 + Random.State.int st 3 in
  let share_edge = Random.State.bool st in
  let a i = var i in
  let b i =
    (* the second cycle reuses x0 (and x1 when sharing an edge) *)
    if i = 0 then var 0
    else if share_edge && i = 1 then var 1
    else Build.v (Printf.sprintf "y%d" i)
  in
  let c1 = Build.cycle e (List.init l1 (fun i -> a i)) in
  let c2 = Build.cycle e (List.init l2 (fun i -> b i)) in
  Build.query (c1 @ c2)

(* θ-pattern: two vertices joined by three internally disjoint paths —
   treewidth 2, and no single variable whose removal breaks the cycle. *)
let random_theta st =
  let s = Build.v "s" and t = Build.v "t" in
  let path k len =
    let node i =
      if i = 0 then s
      else if i = len then t
      else Build.v (Printf.sprintf "p%d_%d" k i)
    in
    List.init len (fun i -> Build.atom e [ node i; node (i + 1) ])
  in
  (* two paths of length ≥ 2 guarantee a genuine cycle even after the
     third (possibly length-1, possibly duplicated) path dedupes away *)
  let lens =
    [ 1 + Random.State.int st 3; 2 + Random.State.int st 2; 2 + Random.State.int st 2 ]
  in
  Build.query (List.concat (List.mapi path lens))

let pp_pair (q, d) =
  Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d

let gen mk = QCheck.make ~print:pp_pair (fun st -> (mk st, random_db st))

(* Both the raw planner+kernel and the full pipeline must agree with the
   seed interpreter.  The raw route runs even when [Decomp.choose]'s cost
   model would keep the query on the leapfrog kernel. *)
let agrees (q, d) =
  let expected = Nat.of_int (Solver_ref.count q d) in
  (match Ghd.plan q with
  | Some g ->
      if Ghd.width g > 2 then
        QCheck.Test.fail_reportf "width-%d plan for a treewidth-2 query: %a"
          (Ghd.width g) Query.pp q;
      if not (Nat.equal (Ghd.count g d) expected) then
        QCheck.Test.fail_reportf "raw bag DP disagrees on %a" Query.pp q
  | None -> QCheck.Test.fail_reportf "no plan for %a" Query.pp q);
  Nat.equal (Eval.count q d) expected

let prop name ~count mk =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count (gen mk) agrees)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let six_cycle =
  Build.(query (cycle e (List.init 6 (fun i -> v (Printf.sprintf "x%d" i)))))

let complete_digraph n =
  let d = ref (Structure.empty (Schema.make [ e ])) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let test_plan_shape () =
  (match Ghd.plan six_cycle with
  | Some g ->
      Alcotest.(check bool) "width ≤ 2" true (Ghd.width g <= 2);
      Alcotest.(check bool) "several bags" true (Ghd.nbags g >= 2);
      Alcotest.(check (list string)) "root interface is empty" []
        (Ghd.bag_key (Ghd.root g))
  | None -> Alcotest.fail "a 6-cycle must decompose");
  (* refusals: inequalities and too-small queries stay flat *)
  let neq =
    Build.(
      query
        ~neqs:[ (v "x", v "y") ]
        [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])
  in
  Alcotest.(check bool) "no plan under inequalities" true (Ghd.plan neq = None);
  let tiny = Build.(query [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check bool) "no plan for one atom" true (Ghd.plan tiny = None)

let test_pinned_counts () =
  (* every map of 6 vertices into a reflexive complete digraph is a hom *)
  match Ghd.plan six_cycle with
  | None -> Alcotest.fail "a 6-cycle must decompose"
  | Some g ->
      Alcotest.(check string) "6-cycle on K3+loops" "729"
        (Nat.to_string (Ghd.count g (complete_digraph 3)));
      Alcotest.(check string) "6-cycle on empty db" "0"
        (Nat.to_string (Ghd.count g (Structure.empty (Schema.make [ e ]))))

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

let test_metrics_family () =
  let plans0 = global_counter "ghd_plans_built" in
  let runs0 = global_counter "ghd_runs" in
  let rows0 = global_counter "ghd_bag_rows" in
  (match Ghd.plan six_cycle with
  | Some g -> ignore (Ghd.count g (complete_digraph 2))
  | None -> Alcotest.fail "a 6-cycle must decompose");
  Alcotest.(check int) "one plan" 1 (global_counter "ghd_plans_built" - plans0);
  Alcotest.(check int) "one run" 1 (global_counter "ghd_runs" - runs0);
  Alcotest.(check int) "distinct bag rows" 32 (global_counter "ghd_bag_rows" - rows0)

(* A one-bag tree counts the distinct χ-rows of its join.  With χ =
   (x, z) the two atoms also bind y, so 2-paths through different
   middles repeat a row and the join must fold them; with y in χ every
   join result is already a distinct row. *)
let test_bag_rows_are_distinct () =
  let d = random_db ~max_n:5 ~max_edges:20 (Random.State.make [| 11 |]) in
  let bag chi =
    let atoms = Build.[| atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] |] in
    Jtree.compile (fun () -> (Jtree.Join (chi, atoms), [], [])) ()
  in
  let edges = Structure.tuples d e in
  let ends = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter (fun b -> if Value.equal a.(1) b.(0) then Hashtbl.replace ends (a.(0), b.(1)) ()) edges)
    edges;
  let rows0 = global_counter "ghd_bag_rows" in
  Alcotest.(check int) "distinct (x, z)" (Hashtbl.length ends)
    (Nat.to_int (Jtree.count (bag [| "x"; "z" |]) d));
  Alcotest.(check int) "bag rows" (Hashtbl.length ends) (global_counter "ghd_bag_rows" - rows0);
  Alcotest.(check int) "2-paths"
    (Solver_ref.count Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) d)
    (Nat.to_int (Jtree.count (bag [| "x"; "y"; "z" |]) d))

let test_fuel_trips_mid_bag () =
  let d = complete_digraph 6 in
  let g =
    match Ghd.plan six_cycle with
    | Some g -> g
    | None -> Alcotest.fail "a 6-cycle must decompose"
  in
  (* enough fuel to start materialising the first bag, not to finish *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Ghd.count ~budget:b g d) with
  | Error Budget.Fuel -> ()
  | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel"
  | Ok _ -> Alcotest.fail "10 ticks of fuel must not count 6-cycles on K6");
  Alcotest.(check int) "every tick spent" 10 (Budget.ticks b);
  (* the same trip surfaces through the full evaluator *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Eval.count ~budget:b six_cycle d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Eval must propagate the trip");
  (* ample fuel completes: 6^6 closed walks... every map is a hom on K6+loops *)
  let b = Budget.create ~fuel:10_000_000 () in
  match Budget.protect b (fun () -> Ghd.count ~budget:b g d) with
  | Ok n ->
      Alcotest.(check string) "count" "46656" (Nat.to_string n);
      Alcotest.(check bool) "work metered" true (Budget.ticks b > 0)
  | Error _ -> Alcotest.fail "ample fuel must complete"

let test_deadline_reason_preserved () =
  let g =
    match Ghd.plan six_cycle with
    | Some g -> g
    | None -> Alcotest.fail "a 6-cycle must decompose"
  in
  let b = Budget.fault_at ~reason:Budget.Deadline ~tick:5 () in
  match Budget.protect b (fun () -> Ghd.count ~budget:b g (complete_digraph 6)) with
  | Error Budget.Deadline -> ()
  | Error Budget.Fuel -> Alcotest.fail "wrong trip reason"
  | Ok _ -> Alcotest.fail "fault injection must trip"

let test_cost_model_picks_ghd () =
  (match Decomp.choose (Decomp.canonical six_cycle) with
  | Decomp.Ghd _ -> ()
  | _ -> Alcotest.fail "a 6-cycle must route to the decomposition");
  (* a triangle has too much leapfrog support to be worth decomposing *)
  let triangle =
    Build.(
      query
        [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])
  in
  match Decomp.choose (Decomp.canonical triangle) with
  | Decomp.Wcoj _ -> ()
  | _ -> Alcotest.fail "a triangle must stay on the leapfrog kernel"

let () =
  Alcotest.run "ghd"
    [
      ( "differential",
        [
          prop "6-cycles (+chords/constants) = reference" ~count:600
            (random_long_cycle ~len:6);
          prop "7-cycles (+chords/constants) = reference" ~count:400
            (random_long_cycle ~len:7);
          prop "fused cycle pairs = reference" ~count:600 random_fused_cycles;
          prop "θ-patterns = reference" ~count:600 random_theta;
        ] );
      ( "unit",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
          Alcotest.test_case "ghd_* metrics family" `Quick test_metrics_family;
          Alcotest.test_case "bag rows are distinct" `Quick test_bag_rows_are_distinct;
          Alcotest.test_case "fuel trips mid-bag-materialisation" `Quick
            test_fuel_trips_mid_bag;
          Alcotest.test_case "deadline reason preserved" `Quick
            test_deadline_reason_preserved;
          Alcotest.test_case "cost model routes 6-cycles to the GHD" `Quick
            test_cost_model_picks_ghd;
        ] );
    ]
