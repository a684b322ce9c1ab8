(* Tests for the reduction gadgets: CYCLIQ and β (Lemmas 5, 8), γ
   (Lemma 10), multiplier composition (Lemma 4, Section 3.2), Arena and the
   correctness classification (Definition 13), π (Lemmas 12, 15), ζ
   (Lemmas 17, 18) and δ (Lemmas 19–21). *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_reduction
module Nat = Bagcq_bignum.Nat
module Rat = Bagcq_bignum.Rat
module Eval = Bagcq_hom.Eval
module Morphism = Bagcq_hom.Morphism
module Lemma11 = Bagcq_poly.Lemma11
module Dbspace = Bagcq_search.Dbspace

let nat = Alcotest.testable Nat.pp Nat.equal
let check_nat = Alcotest.check nat
let vi = Value.int

(* the standard small instance used throughout: c = 2, monomials x1x1 and
   x1x2, P_s = T1 + T2, P_b = 2T1 + 3T2 *)
let small_instance =
  Lemma11.make_exn ~c:2 ~n_vars:2
    ~monomials:[| [| 1; 1 |]; [| 1; 2 |] |]
    ~cs:[| 1; 1 |] ~cb:[| 2; 3 |]

(* ------------------------------------------------------------------ *)
(* CYCLIQ and β (Section 3.1)                                          *)
(* ------------------------------------------------------------------ *)

let test_cycliq_shape () =
  let p = 3 in
  let r = Cycliq.r_symbol ~p in
  let q = Cycliq.cycliq r Build.(vars "x" p) in
  Alcotest.(check int) "p rotation atoms" p (Query.num_atoms q);
  Alcotest.(check int) "p variables" p (Query.num_vars q);
  Alcotest.check_raises "p >= 3" (Invalid_argument "Cycliq.r_symbol: p must be >= 3")
    (fun () -> ignore (Cycliq.r_symbol ~p:2))

let test_cyclique_analysis () =
  (* homogeneous *)
  Alcotest.(check int) "homogeneous class size" 1
    (List.length (Cycliq.cyclass (Tuple.make [ vi 1; vi 1; vi 1 ])));
  (* normal: all three rotations distinct *)
  Alcotest.(check int) "normal class size" 3
    (List.length (Cycliq.cyclass (Tuple.make [ vi 1; vi 2; vi 2 ])));
  (* degenerate needs composite p: (1,2,1,2) has 2 shifts *)
  Alcotest.(check int) "degenerate class size" 2
    (List.length (Cycliq.cyclass (Tuple.make [ vi 1; vi 2; vi 1; vi 2 ])));
  let open Cycliq in
  Alcotest.(check bool) "homogeneous" true
    (classify (Tuple.make [ vi 1; vi 1; vi 1 ]) = Homogeneous);
  Alcotest.(check bool) "normal" true (classify (Tuple.make [ vi 1; vi 2; vi 2 ]) = Normal);
  Alcotest.(check bool) "degenerate" true
    (classify (Tuple.make [ vi 1; vi 2; vi 1; vi 2 ]) = Degenerate)

let lemma8_property =
  (* Lemma 8: a degenerate cyclique's class has at most p/2 members *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Lemma 8: degenerate cyclass <= p/2" ~count:500
       (QCheck.make
          ~print:QCheck.Print.(list int)
          QCheck.Gen.(list_size (int_range 3 12) (int_range 1 3)))
       (fun l ->
         let tup = Tuple.make (List.map vi l) in
         match Cycliq.classify tup with
         | Cycliq.Degenerate -> 2 * List.length (Cycliq.cyclass tup) <= List.length l
         | Cycliq.Homogeneous | Cycliq.Normal -> true))

let test_beta_witness_counts () =
  List.iter
    (fun p ->
      let w = Cycliq.witness ~p in
      Alcotest.(check bool) "nontrivial" true (Structure.is_nontrivial w);
      check_nat
        (Printf.sprintf "beta_s (p=%d) = (p+1)^2" p)
        (Nat.of_int ((p + 1) * (p + 1)))
        (Eval.count (Cycliq.beta_s ~p) w);
      check_nat
        (Printf.sprintf "beta_b (p=%d) = 2p" p)
        (Nat.of_int (2 * p))
        (Eval.count (Cycliq.beta_b ~p) w);
      (* and the cyclique census matches *)
      Alcotest.(check int)
        (Printf.sprintf "p+1 cycliques (p=%d)" p)
        (p + 1)
        (List.length (Cycliq.cycliques w (Cycliq.r_symbol ~p))))
    [ 3; 4; 5; 7 ]

let test_lemma5_exhaustive () =
  (* condition (≤) of Definition 3, exhaustively over every database with
     at most 2 elements and every binding of ♥,♠ *)
  let p = 3 in
  let pair = Multiplier.beta ~p in
  let schema =
    Schema.union (Query.schema pair.Multiplier.qs) (Query.schema pair.Multiplier.qb)
  in
  let failures = ref 0 and checked = ref 0 in
  ignore
    (Dbspace.fold schema ~max_size:2 ~worker:ignore
       ~f:(fun ~budget:_ () d ->
         if Structure.is_nontrivial d then begin
           incr checked;
           if not (Multiplier.check_le_on pair d) then incr failures
         end)
       ());
  Alcotest.(check bool) "some non-trivial dbs" true (!checked > 100);
  Alcotest.(check int) "Lemma 5 (≤) holds exhaustively" 0 !failures

let test_lemma5_perturbed_witness () =
  (* adding arbitrary atoms to the witness must keep (≤) *)
  let p = 5 in
  let pair = Multiplier.beta ~p in
  let w = pair.Multiplier.witness in
  let r = Cycliq.r_symbol ~p in
  let heart = Consts.heart_v and spade = Consts.spade_v in
  let variants =
    [
      Structure.add_fact w r [ spade; spade; spade; spade; spade ];
      Structure.add_fact w r [ heart; spade; heart; spade; heart ];
      Structure.add_fact
        (Structure.add_fact w r [ spade; spade; heart; heart; heart ])
        r
        [ spade; heart; heart; heart; spade ];
    ]
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "perturbation %d" i) true
        (Multiplier.check_le_on pair d))
    variants


(* -- Lemma 9: the conditional case analysis behind Lemma 5 ---------- *)

let add_pinned_cycliques p d =
  (* ensure the preconditions of Lemma 5's proof: the cycliques pinned by
     β_s's constant conjuncts are present *)
  let r = Cycliq.r_symbol ~p in
  let heart = Structure.interpret_exn d Consts.heart in
  let spade = Structure.interpret_exn d Consts.spade in
  let add_class d tup =
    List.fold_left (fun d t -> Structure.add_atom d r t) d (Cycliq.cyclass tup)
  in
  let d = add_class d (Tuple.make (List.init p (fun _ -> heart))) in
  add_class d (Tuple.make (spade :: List.init (p - 1) (fun _ -> heart)))

let test_lemma9_on_witness () =
  List.iter
    (fun p ->
      match Cycliq.lemma9_cases ~p (Cycliq.witness ~p) with
      | None -> Alcotest.fail "witness satisfies the preconditions"
      | Some cases ->
          Alcotest.(check bool) "some cases" true (cases <> []);
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "p=%d %s (%d/%d)" p c.Cycliq.label c.Cycliq.diff
                   c.Cycliq.total)
                true c.Cycliq.bound_holds)
            cases;
          (* on the witness, case (b) is the tight one: equality *)
          let b = List.find (fun c -> c.Cycliq.label = "(b) G∪H") cases in
          Alcotest.(check bool) "case (b) tight on witness" true
            (b.Cycliq.diff * (p + 1) * (p + 1) = 2 * p * b.Cycliq.total))
    [ 3; 4; 5; 6 ]

let test_lemma9_with_degenerates () =
  (* p = 4 admits degenerate cycliques: (u,v,u,v) has a 2-element class *)
  let p = 4 in
  let r = Cycliq.r_symbol ~p in
  let base = Cycliq.witness ~p in
  let u = vi 10 and w = vi 11 in
  let d =
    List.fold_left
      (fun d tup -> Structure.add_atom d r tup)
      base
      (Cycliq.cyclass (Tuple.make [ u; w; u; w ]))
  in
  let has_degenerate =
    List.exists
      (fun cls -> Cycliq.classify (List.hd cls) = Cycliq.Degenerate)
      (Cycliq.cyclasses d r)
  in
  Alcotest.(check bool) "a degenerate class exists" true has_degenerate;
  (match Cycliq.lemma9_cases ~p d with
  | None -> Alcotest.fail "preconditions hold"
  | Some cases ->
      Alcotest.(check bool) "case (a) present" true
        (List.exists (fun c -> c.Cycliq.label = "(a) degenerate") cases);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d/%d)" c.Cycliq.label c.Cycliq.diff c.Cycliq.total)
            true c.Cycliq.bound_holds)
        cases);
  Alcotest.(check bool) "partition exact" true (Cycliq.lemma9_partition_is_exact ~p d)

let lemma9_random_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Lemma 9 bounds and partition on random databases" ~count:40
       (QCheck.make ~print:(fun _ -> "db") (fun st ->
            let p = 3 + Random.State.int st 2 in
            let schema =
              Schema.make
                ~constants:[ Consts.heart; Consts.spade ]
                [ Cycliq.r_symbol ~p ]
            in
            let size = 2 + Random.State.int st 2 in
            let d = Generate.random ~density:(Random.State.float st 0.4) st schema ~size in
            let d = Structure.rebind_constant d Consts.heart (vi 1) in
            let d = Structure.rebind_constant d Consts.spade (vi 2) in
            (p, add_pinned_cycliques p d)))
       (fun (p, d) ->
         Cycliq.lemma9_partition_is_exact ~p d
         && match Cycliq.lemma9_cases ~p d with
            | None -> false
            | Some cases -> List.for_all (fun c -> c.Cycliq.bound_holds) cases))

(* ------------------------------------------------------------------ *)
(* γ (Section 3.2)                                                     *)
(* ------------------------------------------------------------------ *)

let test_gamma_witness_counts () =
  List.iter
    (fun m ->
      let w = Tuning.witness ~m in
      Alcotest.(check bool) "nontrivial" true (Structure.is_nontrivial w);
      check_nat
        (Printf.sprintf "gamma_s (m=%d) = m-1" m)
        (Nat.of_int (m - 1))
        (Eval.count (Tuning.gamma_s ~m) w);
      check_nat
        (Printf.sprintf "gamma_b (m=%d) = m" m)
        (Nat.of_int m)
        (Eval.count (Tuning.gamma_b ~m) w))
    [ 2; 3; 4; 6 ]

let test_gamma_u_cycliques () =
  let m = 4 in
  let w = Tuning.witness ~m in
  let p = Tuning.p_symbol ~m in
  (* B-cycliques: the m rotations of the second component *)
  Alcotest.(check int) "B-cycliques" m
    (List.length (Tuning.u_cycliques w ~p ~u:Tuning.b_symbol));
  (* B-cycliques with head in A: m − 1 *)
  Alcotest.(check int) "B-cycliques^A" (m - 1)
    (List.length (Tuning.u_cycliques_v w ~p ~u:Tuning.b_symbol ~v:Tuning.a_symbol));
  (* A-cycliques with head in B: exactly the [♠,♥̄] rotation *)
  Alcotest.(check int) "A-cycliques^B" 1
    (List.length (Tuning.u_cycliques_v w ~p ~u:Tuning.a_symbol ~v:Tuning.b_symbol))

let test_lemma10_exhaustive () =
  (* (≤) for m = 2, exhaustively at domain size ≤ 2 *)
  let m = 2 in
  let pair = Multiplier.gamma ~m in
  let schema =
    Schema.union (Query.schema pair.Multiplier.qs) (Query.schema pair.Multiplier.qb)
  in
  let failures = ref 0 and checked = ref 0 in
  ignore
    (Dbspace.fold schema ~max_size:2 ~worker:ignore
       ~f:(fun ~budget:_ () d ->
         if Structure.is_nontrivial d then begin
           incr checked;
           if not (Multiplier.check_le_on pair d) then incr failures
         end)
       ());
  Alcotest.(check bool) "some non-trivial dbs" true (!checked > 100);
  Alcotest.(check int) "Lemma 10 (≤) holds exhaustively" 0 !failures

let test_lemma10_perturbed_witness () =
  let m = 4 in
  let pair = Multiplier.gamma ~m in
  let w = pair.Multiplier.witness in
  let p = Tuning.p_symbol ~m in
  let heart = Consts.heart_v and spade = Consts.spade_v in
  let variants =
    [
      (* give every element of the second component the A colour too *)
      List.fold_left
        (fun d i -> Structure.add_fact d Tuning.a_symbol [ vi i ])
        w
        [ 1; 2; 3; 4 ];
      (* B on ♥ *)
      Structure.add_fact w Tuning.b_symbol [ heart ];
      (* extra P-cycle on the constants *)
      Structure.add_fact w p [ spade; spade; heart; heart ];
    ]
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "perturbation %d" i) true
        (Multiplier.check_le_on pair d))
    variants

(* ------------------------------------------------------------------ *)
(* Multiplier composition (Lemma 4 and the α assembly)                 *)
(* ------------------------------------------------------------------ *)

let test_alpha_ratio_is_integer () =
  List.iter
    (fun c ->
      let a = Multiplier.alpha ~c in
      Alcotest.(check bool) "ratio integral" true (Rat.is_integer a.Multiplier.ratio);
      Alcotest.(check int) "ratio = c" c (Rat.to_int_exn a.Multiplier.ratio);
      (* α_s has no inequality, α_b exactly one (the paper's headline) *)
      Alcotest.(check int) "alpha_s ineq-free" 0 (Query.num_neqs a.Multiplier.qs);
      Alcotest.(check int) "alpha_b one ineq" 1 (Query.num_neqs a.Multiplier.qb);
      Alcotest.(check bool) "condition (=)" true (Multiplier.check_eq a))
    [ 2; 3; 4; 5 ]

let test_compose_requires_disjoint () =
  let b = Multiplier.beta ~p:3 in
  Alcotest.(check bool) "self-composition rejected" true
    (try
       ignore (Multiplier.compose b b);
       false
     with Invalid_argument _ -> true)

let test_make_rejects_bad_witness () =
  let b = Multiplier.beta ~p:3 in
  (* a wrong ratio must be rejected by the (=) check *)
  Alcotest.(check bool) "wrong ratio rejected" true
    (try
       ignore
         (Multiplier.make ~qs:b.Multiplier.qs ~qb:b.Multiplier.qb ~ratio:(Rat.make 7 1)
            ~witness:b.Multiplier.witness);
       false
     with Invalid_argument _ -> true);
  (* a trivial witness must be rejected *)
  Alcotest.(check bool) "trivial witness rejected" true
    (try
       ignore
         (Multiplier.make ~qs:b.Multiplier.qs ~qb:b.Multiplier.qb
            ~ratio:b.Multiplier.ratio ~witness:(Structure.empty Schema.empty));
       false
     with Invalid_argument _ -> true)

let test_alpha_le_on_perturbations () =
  let a = Multiplier.alpha ~c:2 in
  let w = a.Multiplier.witness in
  let r = Cycliq.r_symbol ~p:3 in
  let heart = Consts.heart_v in
  let variants =
    [
      w;
      Structure.add_fact w r [ heart; heart; Value.sym "fresh" ];
      Structure.add_fact w Tuning.a_symbol [ heart ];
    ]
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "alpha (≤) %d" i) true
        (Multiplier.check_le_on a d))
    variants

(* ------------------------------------------------------------------ *)
(* Arena (Sections 4.4, 4.6) and Definition 13                         *)
(* ------------------------------------------------------------------ *)

let test_arena_shape () =
  let t = small_instance in
  let d = Arena.d_arena t in
  let m_count = Lemma11.num_monomials t in
  (* S_{m'} atoms in Arena: one loop per a_m, plus the two escape atoms *)
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "S%d atom count" m)
        (m_count + 2)
        (Structure.atom_count d (Sigma.s_symbol m)))
    [ 1; 2 ];
  (* R_d: one atom per monomial (each monomial has one variable at d) *)
  List.iter
    (fun deg ->
      Alcotest.(check int)
        (Printf.sprintf "R%d atom count" deg)
        m_count
        (Structure.atom_count d (Sigma.r_symbol deg)))
    [ 1; 2 ];
  (* E: the ♥ loop plus the cycle of length 𝕝 *)
  Alcotest.(check int) "E atoms" (1 + Sigma.ell t) (Structure.atom_count d Sigma.e_symbol);
  Alcotest.(check int) "ell" (2 + 2 + 2) (Sigma.ell t);
  Alcotest.(check bool) "nontrivial" true (Structure.is_nontrivial d)

let test_classification () =
  let t = small_instance in
  let d0 = Arena.d_arena t in
  Alcotest.(check string) "bare arena is correct" "correct"
    (Arena.status_to_string (Arena.classify t d0));
  (* X-atoms keep it correct *)
  let d_x = Valuation.correct_db t [| 2; 5 |] in
  Alcotest.(check string) "valuation db is correct" "correct"
    (Arena.status_to_string (Arena.classify t d_x));
  (* an extra Σ₀ atom makes it slightly incorrect *)
  let d_slight = Structure.add_fact d0 (Sigma.s_symbol 1) [ vi 77; vi 78 ] in
  Alcotest.(check string) "slight" "slightly-incorrect"
    (Arena.status_to_string (Arena.classify t d_slight));
  (* identifying two constants makes it seriously incorrect *)
  let a1 = Structure.interpret_exn d0 (Sigma.am_const 1) in
  let a2 = Structure.interpret_exn d0 (Sigma.am_const 2) in
  let d_serious =
    Structure.map_values (fun v -> if Value.equal v a1 then a2 else v) d0
  in
  Alcotest.(check string) "serious" "seriously-incorrect"
    (Arena.status_to_string (Arena.classify t d_serious));
  (* the empty database is not an arena *)
  Alcotest.(check string) "empty is not arena" "not-arena"
    (Arena.status_to_string (Arena.classify t (Structure.empty Schema.empty)))

let test_classification_rename_invariant () =
  (* renaming all elements (injectively) preserves correctness *)
  let t = small_instance in
  let d = Valuation.correct_db t [| 1; 1 |] in
  let renamed = Structure.map_values (fun v -> Value.copy v 9) d in
  Alcotest.(check string) "renamed stays correct" "correct"
    (Arena.status_to_string (Arena.classify t renamed))

(* ------------------------------------------------------------------ *)
(* Valuation (Definition 14)                                           *)
(* ------------------------------------------------------------------ *)

let test_valuation_roundtrip () =
  let t = small_instance in
  List.iter
    (fun xs ->
      let d = Valuation.correct_db t xs in
      Alcotest.(check (array int)) "extract inverts encode" xs (Valuation.extract t d))
    [ [| 0; 0 |]; [| 1; 0 |]; [| 3; 7 |]; [| 2; 2 |] ]

let test_valuation_validation () =
  let t = small_instance in
  Alcotest.check_raises "length" (Invalid_argument "Valuation.correct_db: valuation length mismatch")
    (fun () -> ignore (Valuation.correct_db t [| 1 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Valuation.correct_db: negative value")
    (fun () -> ignore (Valuation.correct_db t [| 1; -1 |]))

(* ------------------------------------------------------------------ *)
(* π (Section 4.3): Lemmas 12 and 15                                   *)
(* ------------------------------------------------------------------ *)

let test_lemma15_exact () =
  let t = small_instance in
  let pi_s = Pi.pi_s t and pi_b = Pi.pi_b t in
  for x1 = 0 to 3 do
    for x2 = 0 to 3 do
      let xs = [| x1; x2 |] in
      let d = Valuation.correct_db t xs in
      check_nat
        (Printf.sprintf "pi_s at (%d,%d)" x1 x2)
        (Lemma11.eval_s t xs) (Eval.count pi_s d);
      check_nat
        (Printf.sprintf "pi_b at (%d,%d)" x1 x2)
        (Lemma11.rhs t xs) (Eval.count pi_b d)
    done
  done

let test_lemma15_unit_coefficients () =
  (* edge case: all coefficients 1 — rays disappear entirely *)
  let t =
    Lemma11.make_exn ~c:2 ~n_vars:1 ~monomials:[| [| 1; 1 |] |] ~cs:[| 1 |] ~cb:[| 1 |]
  in
  let xs = [| 3 |] in
  let d = Valuation.correct_db t xs in
  check_nat "pi_s = P_s = 9" (Nat.of_int 9) (Eval.count (Pi.pi_s t) d);
  check_nat "pi_b = x1^2·P_b = 81" (Nat.of_int 81) (Eval.count (Pi.pi_b t) d)

let test_lemma12_onto_witness () =
  List.iter
    (fun t ->
      let h = Pi.onto_witness t in
      Alcotest.(check bool) "is a homomorphism" true
        (Morphism.is_hom h (Pi.pi_b t) (Pi.pi_s t));
      Alcotest.(check bool) "is onto" true (Morphism.is_onto h (Pi.pi_b t) (Pi.pi_s t)))
    [
      small_instance;
      Lemma11.make_exn ~c:2 ~n_vars:1 ~monomials:[| [| 1; 1 |] |] ~cs:[| 1 |] ~cb:[| 1 |];
      Lemma11.make_exn ~c:3 ~n_vars:3
        ~monomials:[| [| 1; 2; 3 |]; [| 1; 1; 1 |] |]
        ~cs:[| 2; 1 |] ~cb:[| 5; 4 |];
    ]

let lemma12_random_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Lemma 12: pi_s <= pi_b on random databases" ~count:60
       (QCheck.make ~print:(fun _ -> "db") (fun st ->
            let t = small_instance in
            let schema = Sigma.sigma t in
            let size = 2 + Random.State.int st 3 in
            let density = 0.2 +. Random.State.float st 0.5 in
            Generate.random ~density st schema ~size))
       (fun d ->
         let t = small_instance in
         Nat.compare (Eval.count (Pi.pi_s t) d) (Eval.count (Pi.pi_b t) d) <= 0))


let test_appendix_a_grouping () =
  (* Appendix A's proof of Lemma 15 groups Hom(π_s, D) by h(x): the center
     must land on some a_m, and each group has exactly c_{s,m}·T_m(Ξ_D)
     members — the starred equations of Appendix A *)
  let t = small_instance in
  let xs = [| 2; 3 |] in
  let d = Valuation.correct_db t xs in
  let module SM = Map.Make (String) in
  let groups = Hashtbl.create 4 in
  Bagcq_hom.Solver.iter
    (fun a ->
      let x_val = SM.find "x" a in
      Hashtbl.replace groups x_val (1 + Option.value ~default:0 (Hashtbl.find_opt groups x_val)))
    (Pi.pi_s t) d;
  (* the center lands only on the monomial constants *)
  let a_values =
    List.init (Lemma11.num_monomials t) (fun i ->
        Structure.interpret_exn d (Sigma.am_const (i + 1)))
  in
  Hashtbl.iter
    (fun v _ ->
      Alcotest.(check bool) "center on some a_m" true
        (List.exists (Value.equal v) a_values))
    groups;
  (* per-monomial counts: c_{s,m}·T_m(Ξ) *)
  List.iteri
    (fun i a_m ->
      let mono = t.Lemma11.monomials.(i) in
      let t_m = Array.fold_left (fun acc var -> acc * xs.(var - 1)) 1 mono in
      let expected = t.Lemma11.cs.(i) * t_m in
      Alcotest.(check int)
        (Printf.sprintf "group at a%d" (i + 1))
        expected
        (Option.value ~default:0 (Hashtbl.find_opt groups a_m)))
    a_values

let test_appendix_a_x1_rays () =
  (* the extra rays of π_b compute Ξ(x₁)^d: compare the two stars' group
     sizes on a correct database *)
  let t = small_instance in
  let xs = [| 3; 2 |] in
  let d = Valuation.correct_db t xs in
  let total_s = Nat.to_int (Eval.count (Pi.pi_s t) d) in
  let total_b = Nat.to_int (Eval.count (Pi.pi_b t) d) in
  (* π_b = Ξ(x1)^d·P_b and π_s = P_s: check the exact relationship *)
  Alcotest.(check int) "pi_s = P_s" (Nat.to_int (Lemma11.eval_s t xs)) total_s;
  Alcotest.(check int) "pi_b = x1^d·P_b"
    (int_of_float (float_of_int xs.(0) ** float_of_int t.Lemma11.degree)
    * Nat.to_int (Lemma11.eval_b t xs))
    total_b

(* ------------------------------------------------------------------ *)
(* ζ (Section 4.5): Lemmas 17 and 18                                   *)
(* ------------------------------------------------------------------ *)

let test_zeta_k_minimal () =
  let t = small_instance in
  let z = Zeta.make t in
  let j = z.Zeta.j and k = z.Zeta.k and c = t.Lemma11.c in
  let holds k =
    Nat.compare (Nat.pow (Nat.of_int (j + 1)) k) (Nat.mul_int (Nat.pow (Nat.of_int j) k) c)
    >= 0
  in
  Alcotest.(check bool) "k works" true (holds k);
  Alcotest.(check bool) "k minimal" true (k = 0 || not (holds (k - 1)))

let test_lemma17 () =
  let t = small_instance in
  let z = Zeta.make t in
  (* on correct databases ζ_b = ℂ₁, X-atoms notwithstanding *)
  check_nat "zeta on D_Arena" z.Zeta.c1 (Zeta.count z (Arena.d_arena t));
  check_nat "zeta on valuation db" z.Zeta.c1 (Zeta.count z (Valuation.correct_db t [| 4; 2 |]));
  (* and ℂ₁ is the predicted product ∏ (j^P)^k *)
  let predicted =
    Nat.product
      (List.map
         (fun sym -> Nat.pow (Nat.of_int (Zeta.atoms_in_arena t sym)) z.Zeta.k)
         (Sigma.sigma_rs t))
  in
  check_nat "C1 product formula" predicted z.Zeta.c1;
  Alcotest.(check bool) "zeta >= 1 under Arena" true
    (Nat.compare (Zeta.count z (Arena.d_arena t)) Nat.one >= 0)

let test_lemma18 () =
  let t = small_instance in
  let z = Zeta.make t in
  let threshold = Nat.mul_int z.Zeta.c1 t.Lemma11.c in
  (* one extra atom of any Σ_RS relation pushes ζ_b to at least c·ℂ₁ *)
  List.iter
    (fun sym ->
      let d = Structure.add_fact (Arena.d_arena t) sym [ vi 500; vi 501 ] in
      Alcotest.(check bool)
        (Printf.sprintf "punished via %s" (Symbol.name sym))
        true
        (Nat.compare (Zeta.count z d) threshold >= 0))
    (Sigma.sigma_rs t)

(* ------------------------------------------------------------------ *)
(* δ (Section 4.6): Lemmas 19, 20, 21                                  *)
(* ------------------------------------------------------------------ *)

let test_delta_lengths () =
  let t = small_instance in
  let l = Sigma.ell t in
  Alcotest.(check (list int)) "L misses 𝕝, includes 𝕝+1"
    [ 1; 2; 3; 4; 5; 7 ]
    (Delta.lengths t);
  Alcotest.(check bool) "𝕝 not in L" true (not (List.mem l (Delta.lengths t)))

let test_lemma20 () =
  let t = small_instance in
  check_nat "delta base = 1 on D_Arena" Nat.one (Delta.base_count t (Arena.d_arena t));
  check_nat "delta base = 1 on valuation db" Nat.one
    (Delta.base_count t (Valuation.correct_db t [| 1; 3 |]))

let test_lemma19 () =
  let t = small_instance in
  (* any structure satisfying Arena keeps every factor ≥ 1 *)
  let d = Structure.add_fact (Arena.d_arena t) Sigma.e_symbol [ vi 9; vi 9 ] in
  Alcotest.(check bool) "base >= 1" true
    (Nat.compare (Delta.base_count t d) Nat.one >= 0)

let test_lemma21_case1 () =
  (* identify ♥ with a cycle constant: an 𝕝+1 cycle appears *)
  let t = small_instance in
  let d0 = Arena.d_arena t in
  let heart = Structure.interpret_exn d0 Consts.heart in
  let a_const = Structure.interpret_exn d0 Sigma.a_const in
  let d =
    Structure.map_values (fun v -> if Value.equal v heart then a_const else v) d0
  in
  Alcotest.(check string) "still an arena, serious" "seriously-incorrect"
    (Arena.status_to_string (Arena.classify t d));
  Alcotest.(check bool) "punished: base >= 2" true
    (Nat.compare (Delta.base_count t d) Nat.two >= 0)

let test_lemma21_case2 () =
  (* identify two cycle constants: a shorter cycle appears *)
  let t = small_instance in
  let d0 = Arena.d_arena t in
  let b1 = Structure.interpret_exn d0 (Sigma.bn_const 1) in
  let b2 = Structure.interpret_exn d0 (Sigma.bn_const 2) in
  let d = Structure.map_values (fun v -> if Value.equal v b1 then b2 else v) d0 in
  Alcotest.(check string) "serious" "seriously-incorrect"
    (Arena.status_to_string (Arena.classify t d));
  Alcotest.(check bool) "punished: base >= 2" true
    (Nat.compare (Delta.base_count t d) Nat.two >= 0)

let test_lemma21_all_identifications () =
  (* every single pairwise identification of Arena constants is punished *)
  let t = small_instance in
  let d0 = Arena.d_arena t in
  let consts =
    Consts.heart :: Consts.spade :: Sigma.a_const
    :: (List.init 2 (fun i -> Sigma.am_const (i + 1))
       @ List.init 2 (fun i -> Sigma.bn_const (i + 1)))
  in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          if c1 < c2 then begin
            let v1 = Structure.interpret_exn d0 c1 and v2 = Structure.interpret_exn d0 c2 in
            let d = Structure.map_values (fun v -> if Value.equal v v1 then v2 else v) d0 in
            (* identifying ♥ and ♠ gives a trivial database — Lemma 21 only
               claims punishment for non-trivial ones *)
            if Structure.is_nontrivial d then
              Alcotest.(check bool)
                (Printf.sprintf "identify %s=%s punished" c1 c2)
                true
                (Nat.compare (Delta.base_count t d) Nat.two >= 0)
          end)
        consts)
    consts

let test_delta_pquery_exponent () =
  let t = small_instance in
  let cc = Nat.pow (Nat.of_int 10) 30 in
  let dq = Delta.delta_b t ~cc in
  List.iter
    (fun (_, e) -> Alcotest.(check bool) "exponent = C" true (Nat.equal e cc))
    (Pquery.factors dq);
  (* δ_b(D) = 1 on correct databases even with an unmaterialisable C *)
  check_nat "delta_b = 1 on correct" Nat.one
    (Eval.count_pquery dq (Arena.d_arena t))

let () =
  Alcotest.run "reduction"
    [
      ( "cycliq",
        [
          Alcotest.test_case "shape" `Quick test_cycliq_shape;
          Alcotest.test_case "cyclique analysis" `Quick test_cyclique_analysis;
          lemma8_property;
          Alcotest.test_case "beta witness counts" `Quick test_beta_witness_counts;
          Alcotest.test_case "Lemma 5 exhaustive" `Slow test_lemma5_exhaustive;
          Alcotest.test_case "Lemma 5 perturbed" `Quick test_lemma5_perturbed_witness;
          Alcotest.test_case "Lemma 9 on witnesses" `Quick test_lemma9_on_witness;
          Alcotest.test_case "Lemma 9 with degenerates" `Quick test_lemma9_with_degenerates;
          lemma9_random_property;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "gamma witness counts" `Quick test_gamma_witness_counts;
          Alcotest.test_case "u-cycliques" `Quick test_gamma_u_cycliques;
          Alcotest.test_case "Lemma 10 exhaustive" `Slow test_lemma10_exhaustive;
          Alcotest.test_case "Lemma 10 perturbed" `Quick test_lemma10_perturbed_witness;
        ] );
      ( "multiplier",
        [
          Alcotest.test_case "alpha multiplies by c" `Quick test_alpha_ratio_is_integer;
          Alcotest.test_case "compose needs disjoint" `Quick test_compose_requires_disjoint;
          Alcotest.test_case "make validates" `Quick test_make_rejects_bad_witness;
          Alcotest.test_case "alpha (≤) perturbed" `Quick test_alpha_le_on_perturbations;
        ] );
      ( "arena",
        [
          Alcotest.test_case "shape" `Quick test_arena_shape;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "rename invariance" `Quick test_classification_rename_invariant;
        ] );
      ( "valuation",
        [
          Alcotest.test_case "roundtrip" `Quick test_valuation_roundtrip;
          Alcotest.test_case "validation" `Quick test_valuation_validation;
        ] );
      ( "pi",
        [
          Alcotest.test_case "Lemma 15 exact" `Quick test_lemma15_exact;
          Alcotest.test_case "Lemma 15 unit coefficients" `Quick test_lemma15_unit_coefficients;
          Alcotest.test_case "Lemma 12 onto witness" `Quick test_lemma12_onto_witness;
          lemma12_random_property;
          Alcotest.test_case "Appendix A grouping" `Quick test_appendix_a_grouping;
          Alcotest.test_case "Appendix A x1 rays" `Quick test_appendix_a_x1_rays;
        ] );
      ( "zeta",
        [
          Alcotest.test_case "k minimal" `Quick test_zeta_k_minimal;
          Alcotest.test_case "Lemma 17" `Quick test_lemma17;
          Alcotest.test_case "Lemma 18" `Quick test_lemma18;
        ] );
      ( "delta",
        [
          Alcotest.test_case "lengths" `Quick test_delta_lengths;
          Alcotest.test_case "Lemma 20" `Quick test_lemma20;
          Alcotest.test_case "Lemma 19" `Quick test_lemma19;
          Alcotest.test_case "Lemma 21 case 1" `Quick test_lemma21_case1;
          Alcotest.test_case "Lemma 21 case 2" `Quick test_lemma21_case2;
          Alcotest.test_case "Lemma 21 all identifications" `Quick test_lemma21_all_identifications;
          Alcotest.test_case "delta pquery exponent" `Quick test_delta_pquery_exponent;
        ] );
    ]
