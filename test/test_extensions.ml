(* Tests for the Section 1.1 / 2.3 context machinery: UCQs and the
   Ioannidis–Ramakrishnan reduction [14], non-boolean answer bags,
   constants-vs-free-variables (Section 2.3), the well of positivity, and
   the Theorem 2 / Theorem 4 problem statements. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_reduction
module Nat = Bagcq_bignum.Nat
module Eval = Bagcq_hom.Eval
module Answers = Bagcq_hom.Answers
module Solver_ref = Bagcq_hom.Solver_ref
module Poly = Bagcq_poly.Polynomial
module Diophantine = Bagcq_poly.Diophantine

let nat = Alcotest.testable Nat.pp Nat.equal
let vi = Value.int
let e = Build.sym "E" 2

let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])

let triangle =
  List.fold_left
    (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
    (Structure.empty Schema.empty)
    [ (1, 2); (2, 3); (3, 1) ]

(* ------------------------------------------------------------------ *)
(* UCQ                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ucq_counts_sum () =
  let u = Ucq.of_disjuncts [ edge_q; loop_q ] in
  Alcotest.check nat "edge + loop on triangle" (Nat.of_int 3) (Eval.count_ucq u triangle);
  (* duplicates count twice *)
  let u2 = Ucq.union u (Ucq.of_disjuncts [ edge_q ]) in
  Alcotest.check nat "with duplicate" (Nat.of_int 6) (Eval.count_ucq u2 triangle)

let test_ucq_scale () =
  let u = Ucq.scale 4 edge_q in
  Alcotest.(check int) "4 disjuncts" 4 (Ucq.num_disjuncts u);
  Alcotest.check nat "4·edge" (Nat.of_int 12) (Eval.count_ucq u triangle);
  Alcotest.(check int) "scale 0 is empty" 0 (Ucq.num_disjuncts (Ucq.scale 0 edge_q));
  Alcotest.check nat "empty union counts 0" Nat.zero
    (Eval.count_ucq (Ucq.of_disjuncts []) triangle)

let test_ucq_containment_check () =
  let u_small = Ucq.of_disjuncts [ loop_q ] in
  let u_big = Ucq.of_disjuncts [ edge_q ] in
  Alcotest.(check bool) "loop ≤ edge on triangle" true
    (Eval.ucq_contained_on ~small:u_small ~big:u_big triangle);
  Alcotest.(check bool) "2·edge > edge" false
    (Eval.ucq_contained_on ~small:(Ucq.scale 2 edge_q) ~big:u_big triangle)

(* ------------------------------------------------------------------ *)
(* Ioannidis–Ramakrishnan [14]                                         *)
(* ------------------------------------------------------------------ *)

let test_ir_monomial_counts () =
  (* UCQ(P)(valuation_db Ξ) = P(Ξ) for every named instance's |Q²| parts,
     on a grid of valuations *)
  List.iter
    (fun (name, q, _) ->
      let qpos, qneg = Poly.split_signs (Poly.square q) in
      let n = Stdlib.max 1 (Poly.max_var q) in
      let rec grid xs i =
        if i = n then begin
          Alcotest.(check bool) (name ^ " pos count") true
            (Ioannidis.count_equals_value qpos xs);
          Alcotest.(check bool) (name ^ " neg count") true
            (Ioannidis.count_equals_value qneg xs)
        end
        else
          for v = 0 to 2 do
            xs.(i) <- v;
            grid xs (i + 1)
          done
      in
      if n <= 2 then grid (Array.make n 0) 0)
    Diophantine.all_named

let test_ir_valuation_roundtrip () =
  let xs = [| 3; 0; 2 |] in
  let d = Ioannidis.valuation_db xs in
  Alcotest.(check (array int)) "roundtrip" xs (Ioannidis.extract_valuation ~n_vars:3 d)

let test_ir_reduction_solvable () =
  (* a zero of Q makes the UCQ containment fail on the encoding database *)
  List.iter
    (fun (name, q, truth) ->
      match truth with
      | `Unsolvable -> ()
      | `Solvable z ->
          let pair = Ioannidis.reduce q in
          let d = Ioannidis.violation_db q ~zero:z in
          let cs, cb = Ioannidis.counts_on pair d in
          Alcotest.(check bool) (name ^ ": UCQ containment violated") true
            (Nat.compare cs cb > 0))
    Diophantine.all_named

let test_ir_reduction_unsolvable () =
  (* without a zero, no valuation database violates (grid check) *)
  List.iter
    (fun (name, q, truth) ->
      match truth with
      | `Solvable _ -> ()
      | `Unsolvable ->
          let small, big = Ioannidis.reduce q in
          let n = Stdlib.max 1 (Poly.max_var q) in
          let rec grid xs i =
            if i = n then
              Alcotest.(check bool)
                (name ^ ": holds on valuation db")
                true
                (Eval.ucq_contained_on ~small ~big (Ioannidis.valuation_db xs))
            else
              for v = 0 to 3 do
                xs.(i) <- v;
                grid xs (i + 1)
              done
          in
          grid (Array.make n 0) 0)
    Diophantine.all_named

let test_ir_arbitrary_databases_are_valuations () =
  (* the IR reduction needs no anti-cheating: any database over the schema
     behaves exactly like the valuation it denotes *)
  let q = Diophantine.pell in
  let small, big = Ioannidis.reduce q in
  let schema = Schema.union (Ucq.schema small) (Ucq.schema big) in
  let rng = Random.State.make [| 14 |] in
  for _ = 1 to 40 do
    let d = Generate.random ~density:(Random.State.float rng 0.7) rng schema ~size:3 in
    let xs = Ioannidis.extract_valuation ~n_vars:(Poly.max_var q) d in
    let d' = Ioannidis.valuation_db xs in
    let c1 = Eval.count_ucq small d and c1' = Eval.count_ucq small d' in
    let c2 = Eval.count_ucq big d and c2' = Eval.count_ucq big d' in
    Alcotest.check nat "small agrees" c1' c1;
    Alcotest.check nat "big agrees" c2' c2
  done

(* ------------------------------------------------------------------ *)
(* Answer bags (non-boolean queries)                                   *)
(* ------------------------------------------------------------------ *)

let test_answers_basic () =
  (* head (x) over E(x,y) on the triangle: each source once *)
  let bag = Answers.answers ~head:[ Term.var "x" ] edge_q triangle in
  Alcotest.(check int) "3 sources" 3 (List.length (Answers.support bag));
  Alcotest.check nat "total = edge count" (Nat.of_int 3) (Answers.cardinal bag);
  List.iter
    (fun tup -> Alcotest.check nat "each once" Nat.one (Answers.multiplicity bag tup))
    (Answers.support bag)

let test_answers_multiplicity () =
  (* head (x) over the 2-path on K2-with-loops: multiplicities > 1 *)
  let k2 =
    List.fold_left
      (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
      (Structure.empty Schema.empty)
      [ (1, 1); (1, 2); (2, 1); (2, 2) ]
  in
  let path = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
  let bag = Answers.answers ~head:[ Term.var "x" ] path k2 in
  (* 8 paths total, 4 from each source *)
  Alcotest.check nat "total" (Nat.of_int 8) (Answers.cardinal bag);
  Alcotest.check nat "per source" (Nat.of_int 4)
    (Answers.multiplicity bag (Tuple.make [ vi 1 ]))

let test_answers_empty_head_is_boolean () =
  let bag = Answers.answers ~head:[] edge_q triangle in
  Alcotest.check nat "boolean count" (Eval.count edge_q triangle) (Answers.cardinal bag);
  Alcotest.(check int) "single empty tuple" 1 (List.length (Answers.support bag))

let test_answers_free_head_var () =
  (* head (w) with w not in the body: ranges over the domain *)
  let bag = Answers.answers ~head:[ Term.var "w" ] edge_q triangle in
  Alcotest.(check int) "3 answers" 3 (List.length (Answers.support bag));
  (* each with multiplicity = edge count *)
  List.iter
    (fun tup ->
      Alcotest.check nat "multiplicity = count" (Nat.of_int 3)
        (Answers.multiplicity bag tup))
    (Answers.support bag)

let test_answers_constant_head () =
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let bag = Answers.answers ~head:[ Term.cst "a"; Term.var "x" ] edge_q d in
  (* every answer tuple starts with vertex 1 *)
  List.iter
    (fun tup -> Alcotest.(check bool) "starts with a" true (Value.equal (Tuple.get tup 0) (vi 1)))
    (Answers.support bag);
  Alcotest.check nat "cardinality" (Nat.of_int 3) (Answers.cardinal bag)

let test_answers_inclusion () =
  let path = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
  (* on the triangle: per-source paths = 1 = per-source edges: inclusion *)
  Alcotest.(check bool) "paths ⊆ edges per source on triangle" true
    (Answers.contained_on
       ~head_small:[ Term.var "x" ]
       ~head_big:[ Term.var "x" ]
       ~small:path ~big:edge_q triangle);
  (* on K2-with-loops: 4 paths vs 2 edges per source: no inclusion *)
  let k2 =
    List.fold_left
      (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
      (Structure.empty Schema.empty)
      [ (1, 1); (1, 2); (2, 1); (2, 2) ]
  in
  Alcotest.(check bool) "violated on K2" false
    (Answers.contained_on
       ~head_small:[ Term.var "x" ]
       ~head_big:[ Term.var "x" ]
       ~small:path ~big:edge_q k2)

(* ------------------------------------------------------------------ *)
(* Section 2.3: constants vs free variables                            *)
(* ------------------------------------------------------------------ *)

let test_deconst_shape () =
  let q = Build.(query [ atom e [ c "a"; v "x" ]; atom e [ v "x"; c "b" ] ]) in
  let g = Deconst.generalize q in
  Alcotest.(check (list string)) "no constants left" [] (Query.constants g.Deconst.query);
  Alcotest.(check int) "two head vars" 2 (List.length (Deconst.var_head g));
  (* keep one *)
  let g2 = Deconst.generalize ~keep:[ "a" ] q in
  Alcotest.(check (list string)) "a kept" [ "a" ] (Query.constants g2.Deconst.query);
  Alcotest.(check int) "one head var" 1 (List.length (Deconst.var_head g2))

let test_deconst_multiplicity_lemma () =
  (* φ(D) equals the multiplicity, in the generalised query's answer bag,
     of the tuple of constant interpretations — the engine of Section 2.3 *)
  let q = Build.(query [ atom e [ c "a"; v "x" ]; atom e [ v "x"; v "y" ] ]) in
  let g = Deconst.generalize q in
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 30 do
    let d0 = Generate.random ~density:(Random.State.float rng 0.8) rng (Schema.make [ e ]) ~size:3 in
    let d = Structure.bind_constant d0 "a" (vi (1 + Random.State.int rng 3)) in
    let boolean_count = Eval.count q d in
    let bag = Answers.answers ~head:(Deconst.var_head g) g.Deconst.query d in
    let interp_tuple = Tuple.make [ Structure.interpret_exn d "a" ] in
    Alcotest.check nat "multiplicity lemma" boolean_count
      (Answers.multiplicity bag interp_tuple)
  done

let test_deconst_containment_transfer () =
  (* if the generalised containment fails at some answer tuple, rebinding
     the constants to that tuple breaks the boolean containment *)
  let phi_s = Build.(query [ atom e [ c "a"; v "x" ]; atom e [ c "a"; v "y" ] ]) in
  let phi_b = Build.(query [ atom e [ c "a"; v "x" ] ]) in
  let gs = Deconst.generalize phi_s and gb = Deconst.generalize phi_b in
  let d =
    List.fold_left
      (fun d (x, y) -> Structure.add_fact d e [ vi x; vi y ])
      (Structure.empty Schema.empty)
      [ (1, 2); (1, 3) ]
  in
  let bag_s = Answers.answers ~head:(Deconst.var_head gs) gs.Deconst.query d in
  let bag_b = Answers.answers ~head:(Deconst.var_head gb) gb.Deconst.query d in
  Alcotest.(check bool) "generalised containment fails" false (Answers.included bag_s bag_b);
  (* find the failing tuple and rebind *)
  let failing =
    List.find
      (fun tup -> Nat.compare (Answers.multiplicity bag_s tup) (Answers.multiplicity bag_b tup) > 0)
      (Answers.support bag_s)
  in
  let d' = Structure.rebind_constant d "a" (Tuple.get failing 0) in
  Alcotest.(check bool) "boolean containment fails after rebinding" true
    (Nat.compare (Eval.count phi_s d') (Eval.count phi_b d') > 0)

(* ------------------------------------------------------------------ *)
(* Wells: trivial databases, Theorems 2 and 4 statements               *)
(* ------------------------------------------------------------------ *)

let test_well_counts () =
  (* on the well, every inequality-free CQ counts exactly 1 *)
  let path = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
  List.iter
    (fun q -> Alcotest.check nat "count 1" Nat.one (Wells.count_on_well q))
    [ edge_q; path; loop_q; Build.(query [ atom e [ c "a"; v "x" ] ]) ];
  (* with an inequality: 0 *)
  let q_neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.check nat "count 0 with neq" Nat.zero (Wells.count_on_well q_neq);
  (* the well is trivial *)
  Alcotest.(check bool) "trivial" false
    (Structure.is_nontrivial (Wells.well_of_positivity (Query.schema edge_q)))

let test_theorem1_fails_on_well () =
  (* the remark after Theorem 1: on the well, ℂ·φ_s = ℂ > 1 = φ_b — the
     non-triviality condition is essential *)
  let t1 =
    Theorem1.reduce
      (Bagcq_poly.Lemma11.make_exn ~c:2 ~n_vars:1 ~monomials:[| [| 1; 1 |] |] ~cs:[| 1 |]
         ~cb:[| 1 |])
  in
  let schema = Sigma.sigma t1.Theorem1.instance in
  let well = Wells.well_of_positivity schema in
  Alcotest.(check bool) "trivial database" false (Structure.is_nontrivial well);
  Alcotest.check nat "φ_s(well) = 1" Nat.one (Theorem1.phi_s_count t1 well);
  Alcotest.(check bool) "inequality FAILS on the well" false (Theorem1.holds_on t1 well)

let test_theorem2_statement () =
  let phi_s = Pquery.of_query edge_q in
  let phi_b = Pquery.of_query edge_q in
  (* c·edge ≤ edge + c' on the triangle: 2·3 ≤ 3 + c' needs c' ≥ 3 *)
  Alcotest.(check bool) "fails with slack 2" false
    (Wells.Theorem2.holds_on ~c:2 ~c':(Nat.of_int 2) ~phi_s ~phi_b triangle);
  Alcotest.(check bool) "holds with slack 3" true
    (Wells.Theorem2.holds_on ~c:2 ~c':(Nat.of_int 3) ~phi_s ~phi_b triangle);
  (* the well forces slack c − 1 for identical inequality-free queries *)
  Alcotest.check nat "required slack on the well" (Nat.of_int 4)
    (Wells.Theorem2.required_slack ~c:5 ~phi_s:edge_q ~phi_b:edge_q)

let test_theorem4_statement () =
  let rho_b_neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  (* the well satisfies ρ_s but never ρ_b with an inequality *)
  Alcotest.(check bool) "max1 needed" true
    (Wells.Theorem4.max1_needed ~rho_s:edge_q ~rho_b:rho_b_neq);
  let well = Wells.well_of_positivity (Schema.make [ e ]) in
  (* plain containment fails on the well, the max{1,·} version holds *)
  Alcotest.(check bool) "plain containment fails" true
    (Nat.compare (Eval.count edge_q well) (Eval.count rho_b_neq well) > 0);
  Alcotest.(check bool) "Theorem 4 form holds" true
    (Wells.Theorem4.holds_on ~rho_s:edge_q ~rho_b:rho_b_neq well);
  (* on the triangle (loop-free): ρ_b = 3 ≥ ρ_s = 3 *)
  Alcotest.(check bool) "holds on triangle" true
    (Wells.Theorem4.holds_on ~rho_s:edge_q ~rho_b:rho_b_neq triangle)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_db =
  QCheck.make
    ~print:(Format.asprintf "%a" Structure.pp)
    (fun st ->
      let size = 1 + Random.State.int st 3 in
      Generate.random ~density:(0.2 +. Random.State.float st 0.6) st (Schema.make [ e ]) ~size)

(* A body over E with up to three variables, the constant [a] and at most
   one inequality, and a head of up to three terms: body variables, [w]
   (never in the body), [a] (interpreted half the time) and [b] (never
   interpreted). *)
let gen_answers_case =
  QCheck.make
    ~print:(fun (head, q, d) ->
      Format.asprintf "head: %s@.body: %a@.db: %a"
        (String.concat ", " (List.map Term.to_string head))
        Query.pp q Structure.pp d)
    (fun st ->
      let var () = Build.v (Printf.sprintf "x%d" (Random.State.int st 3)) in
      let term () = if Random.State.int st 6 = 0 then Build.c "a" else var () in
      let atoms = List.init (1 + Random.State.int st 3) (fun _ -> Build.atom e [ term (); term () ]) in
      let neqs =
        let x = var () and y = var () in
        if Random.State.bool st && not (Term.equal x y) then [ (x, y) ] else []
      in
      let head =
        List.init (Random.State.int st 4) (fun _ ->
            match Random.State.int st 6 with
            | 0 -> Build.v "w"
            | 1 -> Build.c "a"
            | 2 when Random.State.int st 4 = 0 -> Build.c "b"
            | _ -> var ())
      in
      let d = Generate.random ~density:0.5 st (Schema.make [ e ]) ~size:(1 + Random.State.int st 3) in
      let d = if Random.State.bool st then Structure.bind_constant d "a" (vi 1) else d in
      (head, Build.query ~neqs atoms, d))

(* The reference bag: every homomorphism [Solver_ref] enumerates,
   projected onto the head, a head variable absent from the body taking
   every domain value and a head constant its interpretation (none: no
   answer), grouped by tuple. *)
let reference_bag ~head q d =
  let module SM = Map.Make (String) in
  let domain = Value.Set.elements (Structure.domain d) in
  let bag = ref Tuple.Map.empty in
  let rec project a free acc = function
    | [] ->
        let tup = Tuple.make (List.rev acc) in
        bag := Tuple.Map.update tup (fun n -> Some (1 + Option.value ~default:0 n)) !bag
    | Term.Cst c :: rest ->
        Option.iter
          (fun v -> project a free (v :: acc) rest)
          (Structure.interpretation d c)
    | Term.Var x :: rest -> (
        match (SM.find_opt x a, List.assoc_opt x free) with
        | Some v, _ | None, Some v -> project a free (v :: acc) rest
        | None, None -> List.iter (fun v -> project a ((x, v) :: free) (v :: acc) rest) domain)
  in
  List.iter (fun a -> project a [] [] head) (Solver_ref.enumerate q d);
  Tuple.Map.bindings !bag

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"UCQ count = sum of disjunct counts" ~count:100 arb_db
         (fun d ->
           let u = Ucq.of_disjuncts [ edge_q; loop_q; edge_q ] in
           Nat.equal (Eval.count_ucq u d)
             (Nat.sum [ Eval.count edge_q d; Eval.count loop_q d; Eval.count edge_q d ])));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"answer bag cardinal = hom count" ~count:100 arb_db (fun d ->
           let path = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
           Nat.equal
             (Answers.cardinal (Answers.answers ~head:[ Term.var "x"; Term.var "z" ] path d))
             (Eval.count path d)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bag inclusion is a partial order (refl + antisym spot)" ~count:100
         arb_db (fun d ->
           let bag = Answers.answers ~head:[ Term.var "x" ] edge_q d in
           Answers.included bag bag && Answers.equal bag bag));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"inequality-free CQs count 1 on the well" ~count:100
         (QCheck.make ~print:Query.to_string (fun st ->
              let var _ = Term.var (Printf.sprintf "v%d" (Random.State.int st 3)) in
              Query.make (List.init (1 + Random.State.int st 3) (fun _ -> Build.atom e [ var (); var () ]))))
         (fun q -> Nat.equal Nat.one (Wells.count_on_well q)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"answer bag = reference homomorphisms grouped" ~count:1000
         gen_answers_case (fun (head, q, d) ->
           let bag = Answers.answers ~head q d in
           List.map (fun t -> (t, Nat.to_int (Answers.multiplicity bag t))) (Answers.support bag)
           = reference_bag ~head q d));
  ]

let () =
  Alcotest.run "extensions"
    [
      ( "ucq",
        [
          Alcotest.test_case "counts sum" `Quick test_ucq_counts_sum;
          Alcotest.test_case "scale" `Quick test_ucq_scale;
          Alcotest.test_case "containment check" `Quick test_ucq_containment_check;
        ] );
      ( "ioannidis",
        [
          Alcotest.test_case "monomial counts" `Quick test_ir_monomial_counts;
          Alcotest.test_case "valuation roundtrip" `Quick test_ir_valuation_roundtrip;
          Alcotest.test_case "solvable violates" `Quick test_ir_reduction_solvable;
          Alcotest.test_case "unsolvable holds" `Quick test_ir_reduction_unsolvable;
          Alcotest.test_case "no anti-cheating needed" `Quick test_ir_arbitrary_databases_are_valuations;
        ] );
      ( "answers",
        [
          Alcotest.test_case "basic" `Quick test_answers_basic;
          Alcotest.test_case "multiplicities" `Quick test_answers_multiplicity;
          Alcotest.test_case "empty head" `Quick test_answers_empty_head_is_boolean;
          Alcotest.test_case "free head var" `Quick test_answers_free_head_var;
          Alcotest.test_case "constant head" `Quick test_answers_constant_head;
          Alcotest.test_case "inclusion" `Quick test_answers_inclusion;
        ] );
      ( "section-2.3",
        [
          Alcotest.test_case "generalize shape" `Quick test_deconst_shape;
          Alcotest.test_case "multiplicity lemma" `Quick test_deconst_multiplicity_lemma;
          Alcotest.test_case "containment transfer" `Quick test_deconst_containment_transfer;
        ] );
      ( "wells",
        [
          Alcotest.test_case "well counts" `Quick test_well_counts;
          Alcotest.test_case "theorem 1 needs non-triviality" `Quick test_theorem1_fails_on_well;
          Alcotest.test_case "theorem 2 statement" `Quick test_theorem2_statement;
          Alcotest.test_case "theorem 4 statement" `Quick test_theorem4_statement;
        ] );
      ("properties", properties);
    ]
