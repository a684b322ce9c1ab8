(* The worst-case-optimal leapfrog kernel: differential checking against
   the reference solver on random cyclic CQs (triangles, 4/5-cycles with
   chords, CYCLIQ rotations), inequality filters, domain ranks
   (inequality-only variables, atom-free components), classification,
   fuel-trip semantics (Exhausted must surface mid-intersection and
   mid-domain-walk) and kernel metrics. *)

open Bagcq_relational
open Bagcq_cq
module Solver_ref = Bagcq_hom.Solver_ref
module Wcoj = Bagcq_hom.Wcoj
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Cycliq = Bagcq_reduction.Cycliq
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let random_db ?(max_n = 4) ?(max_edges = 10) st =
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

(* A length-[len] variable cycle, optionally decorated with chords, unary
   atoms and a constant endpoint.  Binary/unary extras can only thicken
   the cycle, never cover it with one hyperedge, so GYO still classifies
   the component as cyclic — the property asserts it. *)
let random_cyclic_query ~len st =
  let var i = Build.v (Printf.sprintf "x%d" (i mod len)) in
  let base = Build.cycle e (List.init len (fun i -> var i)) in
  let extras =
    List.init (Random.State.int st 3) (fun _ ->
        let i = Random.State.int st len and j = Random.State.int st len in
        match Random.State.int st 5 with
        | 0 -> Build.atom u [ var i ]
        | 1 -> Build.atom e [ var i; Build.c "a" ]
        | 2 -> Build.atom e [ var i; var i ]
        | _ -> Build.atom e [ var i; var j ])
  in
  Build.query (base @ extras)

let pp_pair (q, d) =
  Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d

let gen_cyclic ~len =
  QCheck.make ~print:pp_pair (fun st ->
      (random_cyclic_query ~len st, random_db st))

(* Every evaluation route must agree with the seed interpreter: the raw
   kernel on the component, and the full planner pipeline (which also
   exercises canonicalisation and the strategy cache). *)
let agrees (q, d) =
  let expected = Solver_ref.count q d in
  let canonical = Decomp.canonical q in
  (match Decomp.choose canonical with
  | Decomp.Wcoj _ -> ()
  | _ -> QCheck.Test.fail_reportf "component not classified as wcoj: %a" Query.pp q);
  Nat.equal (Wcoj.count (Wcoj.compile q) d) (Nat.of_int expected)
  && Nat.equal (Eval.count q d) (Nat.of_int expected)

let prop_triangles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"triangles (+chords/constants) = reference"
       ~count:1200 (gen_cyclic ~len:3) agrees)

let prop_four_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"4-cycles (+chords/constants) = reference"
       ~count:1200 (gen_cyclic ~len:4) agrees)

let prop_five_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"5-cycles (+chords/constants) = reference"
       ~count:600 (gen_cyclic ~len:5) agrees)

(* Cyclic queries decorated with inequalities whose variables all sit on
   the cycle — the per-rank filter path.  Constants in ≠ atoms exercise
   the uninterpreted-constant (count zero) semantics pinned by the
   reference solver; an interpreted constant always lies in the domain,
   which folds in every interpretation. *)
let random_neq_cyclic_query ~len st =
  let q = random_cyclic_query ~len st in
  let var i = Build.v (Printf.sprintf "x%d" (i mod len)) in
  let neqs =
    List.init
      (1 + Random.State.int st 3)
      (fun _ ->
        let i = Random.State.int st len in
        if Random.State.int st 4 = 0 then (var i, Build.c "a")
        else (var i, var (i + 1 + Random.State.int st (len - 1))))
  in
  Build.query ~neqs (Query.atoms q)

let gen_neq_cyclic ~len =
  QCheck.make ~print:pp_pair (fun st ->
      (random_neq_cyclic_query ~len st, random_db st))

let agrees_neq (q, d) =
  let expected = Solver_ref.count q d in
  (match Decomp.choose (Decomp.canonical q) with
  | Decomp.Wcoj _ -> ()
  | _ ->
      QCheck.Test.fail_reportf "joined inequalities not classified as wcoj: %a"
        Query.pp q);
  Nat.equal (Wcoj.count (Wcoj.compile q) d) (Nat.of_int expected)
  && Nat.equal (Eval.count q d) (Nat.of_int expected)

let prop_neq_triangles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"triangles + inequalities = reference"
       ~count:1200 (gen_neq_cyclic ~len:3) agrees_neq)

let prop_neq_four_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"4-cycles + inequalities = reference"
       ~count:800 (gen_neq_cyclic ~len:4) agrees_neq)

(* Domain ranks: 1–3 variables [w_i] that occur only in ≠ atoms — each
   unequal to some other term, and often to each other, so inner domain
   ranks walk the domain under filters — next to 0–3 random atoms (none
   at all gives an atom-free query).  The constants stress the domain:
   [a] may sit in a tuple, [b] is declared at a value no tuple holds, and
   [c] is sometimes left uninterpreted (count zero). *)
let random_domain_query st =
  let xs = [| "x0"; "x1"; "x2" |] in
  let atoms =
    List.init (Random.State.int st 4) (fun _ ->
        let x () = Build.v xs.(Random.State.int st 3) in
        match Random.State.int st 4 with
        | 0 -> Build.atom u [ x () ]
        | 1 -> Build.atom e [ x (); Build.c "a" ]
        | _ -> Build.atom e [ x (); x () ])
  in
  let atom_vars = Query.vars (Build.query atoms) in
  let k = 1 + Random.State.int st 3 in
  let w i = Build.v (Printf.sprintf "w%d" i) in
  let other i =
    match Random.State.int st 4 with
    | 0 when atom_vars <> [] ->
        Build.v (List.nth atom_vars (Random.State.int st (List.length atom_vars)))
    | 1 -> Build.c [| "a"; "b"; "c" |].(Random.State.int st 3)
    | _ when k > 1 -> w ((i + 1 + Random.State.int st (k - 1)) mod k)
    | _ -> Build.c "b"
  in
  let neqs =
    List.concat
      (List.init k (fun i ->
           List.init (1 + Random.State.int st 2) (fun _ -> (w i, other i))))
  in
  (* sometimes a constant-only ≠, a component with no rank at all *)
  let neqs =
    if Random.State.int st 4 = 0 then (Build.c "a", Build.c "c") :: neqs else neqs
  in
  Build.query ~neqs atoms

let gen_domain =
  QCheck.make ~print:pp_pair (fun st ->
      let d = random_db st in
      let d = Structure.bind_constant d "b" (Value.int 9) in
      let d =
        if Random.State.bool st then Structure.declare_constant d "c" else d
      in
      (random_domain_query st, d))

(* The raw kernel on the whole query, and the planner pipeline on its
   components — every one with an inequality must take the leapfrog. *)
let agrees_domain (q, d) =
  let expected = Solver_ref.count q d in
  List.iter
    (fun (comp, _) ->
      match Decomp.choose comp with
      | Decomp.Wcoj _ -> ()
      | _ when not (Query.has_neqs comp) -> ()
      | _ ->
          QCheck.Test.fail_reportf "component not classified as wcoj: %a"
            Query.pp comp)
    (Decomp.factor q);
  Nat.equal (Wcoj.count (Wcoj.compile q) d) (Nat.of_int expected)
  && Nat.equal (Eval.count q d) (Nat.of_int expected)
  && Eval.satisfies d q = (expected > 0)

let prop_domain_ranks =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"inequality-only variables = reference"
       ~count:2000 gen_domain agrees_domain)

(* CYCLIQ(x₁,…,x_p): all p rotations of one p-ary atom — every variable
   occurs in every atom, the hardest multiway-intersection shape the
   paper generates.  (As a hypergraph it is trivially α-acyclic — all
   edges share one vertex set — so [Decomp.choose] sends it to the DP;
   the kernel is differential-tested directly.)  Databases mix random
   p-tuples with full rotation closures so real cycliques exist. *)
let gen_cycliq ~p =
  let r = Cycliq.r_symbol ~p in
  let q = Cycliq.cycliq r (Build.vars "x" p) in
  QCheck.make
    ~print:(fun (q, d) -> pp_pair (q, d))
    (fun st ->
      let n = 2 + Random.State.int st 2 in
      let d = ref (Structure.empty (Schema.make [ r ])) in
      let random_tuple () =
        Tuple.make (List.init p (fun _ -> Value.int (Random.State.int st n)))
      in
      for _ = 1 to Random.State.int st 4 do
        d := Structure.add_atom !d r (random_tuple ())
      done;
      for _ = 1 to 1 + Random.State.int st 3 do
        let t = random_tuple () in
        for k = 0 to p - 1 do
          d := Structure.add_atom !d r (Tuple.rotate t k)
        done
      done;
      (q, !d))

let prop_cycliq_rotations ~p ~count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "CYCLIQ rotations p=%d = reference" p)
       ~count (gen_cycliq ~p) (fun (q, d) ->
         Nat.equal
           (Wcoj.count (Wcoj.compile q) d)
           (Nat.of_int (Solver_ref.count q d))))

(* Enumeration: the assignments [Wcoj.iter] hands out are the
   reference's, as a set, and as many as [Wcoj.count] says — on the
   chord/constant, inequality and domain-rank generators above, where
   enumeration binds the ranks counting adds up without binding. *)
let enumerates (q, d) =
  let module M = Map.Make (String) in
  let p = Wcoj.compile q in
  let homs = ref [] in
  Wcoj.iter (fun a -> homs := M.bindings a :: !homs) p d;
  let reference = List.map M.bindings (Solver_ref.enumerate q d) in
  List.sort compare !homs = List.sort compare reference
  && Nat.equal (Wcoj.count p d) (Nat.of_int (List.length !homs))

let prop_enumerate_cycles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"iter: 3/4-cycles (+chords/constants) = reference"
       ~count:800
       (QCheck.make ~print:pp_pair (fun st ->
            (random_cyclic_query ~len:(3 + Random.State.int st 2) st, random_db st)))
       enumerates)

let prop_enumerate_neq =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"iter: cycles + inequalities = reference" ~count:800
       (QCheck.make ~print:pp_pair (fun st ->
            (random_neq_cyclic_query ~len:(3 + Random.State.int st 2) st, random_db st)))
       enumerates)

let prop_enumerate_domain_ranks =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"iter: inequality-only variables = reference" ~count:1000
       gen_domain enumerates)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let triangle =
  Build.(
    query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])

let complete_digraph ?(loops = true) n =
  let d = ref (Structure.empty (Schema.make [ e ])) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if loops || i <> j then
        d := Structure.add_fact !d e [ Value.int i; Value.int j ]
    done
  done;
  !d

let test_pinned_counts () =
  (* every map of 3 vertices into a reflexive complete digraph is a hom *)
  Alcotest.(check string) "triangle on K4+loops" "64"
    (Nat.to_string (Wcoj.count (Wcoj.compile triangle) (complete_digraph 4)));
  (* without loops the 3 images must be pairwise distinct: 4·3·2 *)
  Alcotest.(check string) "triangle on K4 loopless" "24"
    (Nat.to_string
       (Wcoj.count (Wcoj.compile triangle) (complete_digraph ~loops:false 4)));
  (* empty relation *)
  Alcotest.(check string) "triangle on empty db" "0"
    (Nat.to_string
       (Wcoj.count (Wcoj.compile triangle) (Structure.empty (Schema.make [ e ]))))

let test_variable_order_is_deterministic () =
  Alcotest.(check (list string)) "canonical triangle order" [ "v1"; "v2"; "v3" ]
    (Wcoj.variable_order (Wcoj.compile (Decomp.canonical triangle)));
  Alcotest.(check (list string)) "raw triangle order" [ "x"; "y"; "z" ]
    (Wcoj.variable_order (Wcoj.compile triangle))

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

let test_metrics_family () =
  let runs0 = global_counter "wcoj_runs" and seeks0 = global_counter "wcoj_seeks" in
  let plans0 = global_counter "wcoj_plans_compiled" in
  let p = Wcoj.compile triangle in
  ignore (Wcoj.count p (complete_digraph 3));
  Alcotest.(check int) "one run" 1 (global_counter "wcoj_runs" - runs0);
  Alcotest.(check int) "one plan" 1 (global_counter "wcoj_plans_compiled" - plans0);
  Alcotest.(check bool) "seeks recorded" true (global_counter "wcoj_seeks" > seeks0)

let test_fuel_trips_mid_intersection () =
  let d = complete_digraph 6 in
  let p = Wcoj.compile triangle in
  (* enough fuel to instantiate and start leapfrogging, not to finish *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Error Budget.Fuel -> ()
  | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel"
  | Ok _ -> Alcotest.fail "10 ticks of fuel must not count triangles on K6");
  Alcotest.(check int) "every tick spent" 10 (Budget.ticks b);
  (* the same trip surfaces through the full evaluator *)
  let b = Budget.create ~fuel:10 () in
  (match Budget.protect b (fun () -> Eval.count ~budget:b triangle d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Eval must propagate the trip");
  (* ample fuel completes, counting every seek *)
  let b = Budget.create ~fuel:100_000 () in
  match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Ok n ->
      Alcotest.(check string) "count" "216" (Nat.to_string n);
      Alcotest.(check bool) "work metered" true (Budget.ticks b > 0)
  | Error _ -> Alcotest.fail "ample fuel must complete"

let test_deadline_reason_preserved () =
  let b = Budget.fault_at ~reason:Budget.Deadline ~tick:5 () in
  match
    Budget.protect b (fun () ->
        Wcoj.count ~budget:b (Wcoj.compile triangle) (complete_digraph 6))
  with
  | Error Budget.Deadline -> ()
  | Error Budget.Fuel -> Alcotest.fail "wrong trip reason"
  | Ok _ -> Alcotest.fail "fault injection must trip"

(* [w1 != w2] on a domain of n values: rank w1 walks the domain, one
   tick per value, and rank w2 is innermost, one tick for its closed form
   — 2n ticks in all, alternating.  So the (2k+1)-th tick is the walk
   visiting its (k+1)-th value, and fuel 2k trips exactly there. *)
let test_fuel_trips_mid_domain_rank () =
  let q = Build.(query ~neqs:[ (v "w1", v "w2") ] []) in
  let d = complete_digraph 6 in
  let p = Wcoj.compile q in
  let b = Budget.create ~fuel:1_000 () in
  (match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Ok n -> Alcotest.(check string) "6·5 ordered pairs" "30" (Nat.to_string n)
  | Error _ -> Alcotest.fail "ample fuel must complete");
  Alcotest.(check int) "one tick per walked value and per closed form" 12
    (Budget.ticks b);
  let b = Budget.create ~fuel:6 () in
  (match Budget.protect b (fun () -> Wcoj.count ~budget:b p d) with
  | Error Budget.Fuel -> ()
  | Error Budget.Deadline -> Alcotest.fail "tripped on deadline, not fuel"
  | Ok _ -> Alcotest.fail "6 ticks cannot walk 6 values");
  Alcotest.(check int) "tripped at the 4th value's tick" 6 (Budget.ticks b);
  let b = Budget.create ~fuel:6 () in
  match Budget.protect b (fun () -> Eval.count ~budget:b q d) with
  | Error Budget.Fuel -> ()
  | _ -> Alcotest.fail "Eval must propagate the trip"

(* Inequality-only variables trail the joined ones; explain's order marks
   them.  Counts pinned by hand on K3 with loops (9 edges, domain 3). *)
let test_domain_ranks () =
  let q =
    Build.(
      query
        ~neqs:[ (v "w", v "y"); (v "w", v "t"); (v "t", c "a") ]
        [ atom e [ v "x"; v "y" ] ])
  in
  let p = Wcoj.compile q in
  Alcotest.(check (list string)) "order" [ "x"; "y"; "t"; "w" ] (Wcoj.variable_order p);
  Alcotest.(check (list string)) "domain ranks" [ "t"; "w" ] (Wcoj.domain_vars p);
  (match Decomp.choose (Decomp.canonical q) with
  | Decomp.Wcoj w ->
      Alcotest.(check (list string)) "explain marks them"
        [ "variable order: v1 -> v2 -> v3 (domain) -> v4 (domain)" ]
        (Decomp.render (Decomp.Wcoj w))
  | _ -> Alcotest.fail "inequality-only variables must take the leapfrog");
  let d = Structure.bind_constant (complete_digraph 3) "a" (Value.int 0) in
  (* t ∈ {1,2}, and w avoids y and t: 2 choices when y = t, else 1.  Per
     edge that is 1+1 for y = 0 and 2+1 for y ∈ {1,2}; 3 edges end in
     each y. *)
  let want = (3 * 2) + (2 * 3 * 3) in
  Alcotest.(check string) "count" (string_of_int want)
    (Nat.to_string (Wcoj.count p d));
  Alcotest.(check int) "reference agrees" want (Solver_ref.count q d);
  let free = Build.(query ~neqs:[ (v "w", v "z") ] []) in
  Alcotest.(check string) "atom-free on a 6-value domain" "30"
    (Nat.to_string (Eval.count free (complete_digraph 6)));
  Alcotest.(check bool) "atom-free on the empty domain" false
    (Eval.satisfies (Structure.empty (Schema.make [ e ])) free)

let () =
  Alcotest.run "wcoj"
    [
      ( "differential",
        [
          prop_triangles;
          prop_four_cycles;
          prop_five_cycles;
          prop_neq_triangles;
          prop_neq_four_cycles;
          prop_domain_ranks;
          prop_cycliq_rotations ~p:3 ~count:400;
          prop_cycliq_rotations ~p:4 ~count:200;
          prop_enumerate_cycles;
          prop_enumerate_neq;
          prop_enumerate_domain_ranks;
        ] );
      ( "unit",
        [
          Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
          Alcotest.test_case "variable order is deterministic" `Quick
            test_variable_order_is_deterministic;
          Alcotest.test_case "wcoj_* metrics family" `Quick test_metrics_family;
          Alcotest.test_case "fuel trips mid-intersection" `Quick
            test_fuel_trips_mid_intersection;
          Alcotest.test_case "deadline reason preserved" `Quick
            test_deadline_reason_preserved;
          Alcotest.test_case "fuel trips mid-domain-rank" `Quick
            test_fuel_trips_mid_domain_rank;
          Alcotest.test_case "domain ranks: order, counts, explain" `Quick
            test_domain_ranks;
        ] );
    ]
