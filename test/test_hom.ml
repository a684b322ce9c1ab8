(* Tests for the homomorphism engine: counting, bag-semantics evaluation,
   and the counting laws the paper relies on — Lemma 1 (disjoint
   conjunction multiplies), Definition 2 (exponentiation powers counts),
   Lemma 22 (blow-up and product laws), and the onto-homomorphism
   domination principle behind Lemma 12. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_hom
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1
let vi = Value.int
let nat = Alcotest.testable Nat.pp Nat.equal
let count_int q d = Nat.to_int (Eval.count q d)

(* a directed triangle 1 -> 2 -> 3 -> 1 *)
let triangle =
  List.fold_left
    (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
    (Structure.empty Schema.empty)
    [ (1, 2); (2, 3); (3, 1) ]

(* complete graph with self-loops on n vertices *)
let clique n =
  List.fold_left
    (fun d (a, b) -> Structure.add_fact d e [ vi a; vi b ])
    (Structure.empty Schema.empty)
    (List.concat_map (fun a -> List.map (fun b -> (a, b)) (List.init n succ)) (List.init n succ))

let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let path2_q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])

(* ------------------------------------------------------------------ *)
(* Basic counting                                                      *)
(* ------------------------------------------------------------------ *)

let test_count_edge () =
  Alcotest.(check int) "edges of triangle" 3 (count_int edge_q triangle);
  Alcotest.(check int) "edges of clique 3" 9 (count_int edge_q (clique 3))

let test_count_path () =
  (* in the triangle each edge extends uniquely *)
  Alcotest.(check int) "paths in triangle" 3 (count_int path2_q triangle);
  (* in clique n: n^3 choices *)
  Alcotest.(check int) "paths in clique 3" 27 (count_int path2_q (clique 3))

let test_count_loop () =
  Alcotest.(check int) "no loops in triangle" 0 (count_int loop_q triangle);
  Alcotest.(check int) "loops in clique" 3 (count_int loop_q (clique 3))

let test_count_empty_query () =
  Alcotest.(check int) "true query counts 1" 1 (count_int Query.true_query triangle)

let test_count_repeated_var () =
  (* E(x,y) ∧ E(y,x): in the triangle none, in clique 3 all 9 *)
  let q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "x" ] ]) in
  Alcotest.(check int) "sym pairs triangle" 0 (count_int q triangle);
  Alcotest.(check int) "sym pairs clique" 9 (count_int q (clique 3))

let test_count_with_constant () =
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let q = Build.(query [ atom e [ c "a"; v "y" ] ]) in
  Alcotest.(check int) "edges from constant" 1 (count_int q d);
  (* uninterpreted constant: no homomorphisms *)
  let q2 = Build.(query [ atom e [ c "nowhere"; v "y" ] ]) in
  Alcotest.(check int) "uninterpreted" 0 (count_int q2 d)

let test_constant_only_atom () =
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let d = Structure.bind_constant d "b" (vi 2) in
  let holds = Build.(query [ atom e [ c "a"; c "b" ] ]) in
  let fails = Build.(query [ atom e [ c "b"; c "a" ] ]) in
  Alcotest.(check int) "ground atom holds" 1 (count_int holds d);
  Alcotest.(check int) "ground atom fails" 0 (count_int fails d)

(* ------------------------------------------------------------------ *)
(* Inequalities (Section 2.1 virtual-relation semantics)               *)
(* ------------------------------------------------------------------ *)

let test_neq_basic () =
  let q = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check int) "triangle: all edges have distinct ends" 3 (count_int q triangle);
  (* clique 3 has 9 edges, 3 of them loops *)
  Alcotest.(check int) "clique: loops excluded" 6 (count_int q (clique 3))

let test_neq_only_vars () =
  (* x != y over a 3-element domain with no atoms: 3·2 ordered pairs *)
  let q = Build.(query ~neqs:[ (v "x", v "y") ] []) in
  Alcotest.(check int) "pairs" 6 (count_int q triangle)

let test_neq_chain () =
  (* x != y, y != z (but x = z allowed): 3·2·2 over 3-element domain *)
  let q = Build.(query ~neqs:[ (v "x", v "y"); (v "y", v "z") ] []) in
  Alcotest.(check int) "chain" 12 (count_int q triangle)

let test_neq_with_constant () =
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let q = Build.(query ~neqs:[ (v "x", c "a") ] [ atom e [ v "x"; v "y" ] ]) in
  (* edges whose source is not vertex 1: (2,3), (3,1) *)
  Alcotest.(check int) "constant disequality" 2 (count_int q d)

let test_neq_two_constants () =
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let d = Structure.bind_constant d "b" (vi 2) in
  let ok = Build.(query ~neqs:[ (c "a", c "b") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check int) "distinct constants" 3 (count_int ok d);
  let d_same = Structure.bind_constant triangle "p" (vi 1) in
  let d_same = Structure.bind_constant d_same "q" (vi 1) in
  let bad = Build.(query ~neqs:[ (c "p", c "q") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check int) "identified constants kill the query" 0 (count_int bad d_same)

(* ------------------------------------------------------------------ *)
(* The counting laws                                                   *)
(* ------------------------------------------------------------------ *)

let test_lemma1 () =
  (* (ρ ∧̄ ρ')(D) = ρ(D)·ρ'(D) *)
  let lhs = count_int (Query.dconj edge_q path2_q) triangle in
  Alcotest.(check int) "Lemma 1" (count_int edge_q triangle * count_int path2_q triangle) lhs

let test_definition2 () =
  (* (θ↑k)(D) = θ(D)^k *)
  let k = 3 in
  let lhs = Eval.count (Query.power edge_q k) (clique 3) in
  Alcotest.check nat "Definition 2" (Nat.pow (Nat.of_int 9) k) lhs

let test_lemma22_blowup () =
  (* φ(blowup(D,k)) = k^|Var(φ)| · φ(D) for CQs without inequality *)
  let k = 2 in
  let lhs = count_int path2_q (Ops.blowup triangle k) in
  Alcotest.(check int) "Lemma 22(i)"
    (int_of_float (float_of_int k ** 3.0) * count_int path2_q triangle)
    lhs

let test_lemma22_product () =
  (* φ(D^×k) = φ(D)^k *)
  let lhs = count_int path2_q (Ops.power triangle 2) in
  let base = count_int path2_q triangle in
  Alcotest.(check int) "Lemma 22(ii)" (base * base) lhs

let test_lemma22_fails_with_neq () =
  (* the remark after Lemma 22: with an inequality the blow-up law breaks *)
  (* needs self-loops for the inequality to bite: on clique 2 the query
     counts 2, but in the blow-up loops split into distinct copies *)
  let q = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  let blown = count_int q (Ops.blowup (clique 2) 2) in
  Alcotest.(check bool) "strictly more than k^j·φ(D)" true
    (blown > 4 * count_int q (clique 2))

(* ------------------------------------------------------------------ *)
(* Eval: components, pquery                                            *)
(* ------------------------------------------------------------------ *)

let test_component_factorisation () =
  (* disconnected query: count is the product of component counts, and the
     factorised evaluator must agree with single-component backtracking *)
  let q = Query.dconj edge_q (Query.dconj edge_q loop_q) in
  Alcotest.(check int) "factored count" (3 * 3 * 0) (count_int q triangle);
  Alcotest.(check int) "on clique" (9 * 9 * 3) (count_int q (clique 3))

let test_satisfies () =
  Alcotest.(check bool) "triangle has paths" true (Eval.satisfies triangle path2_q);
  Alcotest.(check bool) "no loops" false (Eval.satisfies triangle loop_q);
  Alcotest.(check bool) "true query" true (Eval.satisfies triangle Query.true_query)

let test_pquery_count () =
  let pq = Pquery.power_int (Pquery.of_query edge_q) 5 in
  Alcotest.check nat "9^5" (Nat.pow (Nat.of_int 9) 5) (Eval.count_pquery pq (clique 3));
  (* factorised evaluation agrees with flattening *)
  Alcotest.check nat "flatten agrees"
    (Eval.count (Pquery.flatten pq) (clique 3))
    (Eval.count_pquery pq (clique 3))

let test_pquery_huge_exponent () =
  (* base 1: hugely exponentiated factors still evaluate *)
  let one_hom = Build.(query [ atom e [ c "a"; c "b" ] ]) in
  let d = Structure.bind_constant triangle "a" (vi 1) in
  let d = Structure.bind_constant d "b" (vi 2) in
  let huge = Nat.pow (Nat.of_int 10) 40 in
  let pq = Pquery.power (Pquery.of_query one_hom) huge in
  Alcotest.check nat "1^huge" Nat.one (Eval.count_pquery pq d);
  (* base 0 likewise *)
  let zero_hom = Build.(query [ atom e [ c "b"; c "a" ] ]) in
  let pq0 = Pquery.power (Pquery.of_query zero_hom) huge in
  Alcotest.check nat "0^huge" Nat.zero (Eval.count_pquery pq0 d)

let test_pquery_geq () =
  let pq = Pquery.power_int (Pquery.of_query edge_q) 4 in
  let d = clique 3 in
  (* 9^4 = 6561 *)
  Alcotest.(check bool) "geq small" true (Eval.pquery_geq pq d (Nat.of_int 6561));
  Alcotest.(check bool) "not geq" false (Eval.pquery_geq pq d (Nat.of_int 6562));
  Alcotest.(check bool) "geq zero always" true (Eval.pquery_geq pq d Nat.zero);
  (* symbolic: edge count 9 ≥ 2 raised to an astronomical exponent *)
  let huge = Nat.pow (Nat.of_int 10) 30 in
  let pq_huge = Pquery.power (Pquery.of_query edge_q) huge in
  Alcotest.(check bool) "astronomic count dominates its exponent" true
    (Eval.pquery_geq pq_huge d huge);
  (* zero base *)
  let pq0 = Pquery.power (Pquery.of_query loop_q) huge in
  Alcotest.(check bool) "zero base fails" false (Eval.pquery_geq pq0 triangle Nat.one)

(* ------------------------------------------------------------------ *)
(* Enumeration on the leapfrog                                          *)
(* ------------------------------------------------------------------ *)

(* The homomorphisms [Wcoj.iter] hands out, in its order (the first
   [limit], stopping the run there). *)
let enumerate ?limit q d =
  let out = ref [] and n = ref 0 in
  (try
     Wcoj.iter
       (fun a ->
         out := a :: !out;
         incr n;
         if Some !n = limit then raise_notrace Exit)
       (Wcoj.compile q) d
   with Exit -> ());
  List.rev !out

let test_enumerate () =
  let homs = enumerate edge_q triangle in
  Alcotest.(check int) "3 homs" 3 (List.length homs);
  let limited = enumerate ~limit:2 edge_q triangle in
  Alcotest.(check int) "limit" 2 (List.length limited)

let test_enumerate_assignments_are_homs () =
  let module SM = Map.Make (String) in
  List.iter
    (fun a ->
      let x = SM.find "x" a and y = SM.find "y" a and z = SM.find "z" a in
      Alcotest.(check bool) "first edge" true
        (Structure.mem_atom triangle e (Tuple.make [ x; y ]));
      Alcotest.(check bool) "second edge" true
        (Structure.mem_atom triangle e (Tuple.make [ y; z ])))
    (enumerate path2_q triangle)

let test_fold () =
  let n = ref 0 in
  Wcoj.iter (fun _ -> incr n) (Wcoj.compile edge_q) triangle;
  Alcotest.(check int) "fold counts" 3 !n

(* ------------------------------------------------------------------ *)
(* Morphism: the Lemma 12 principle                                    *)
(* ------------------------------------------------------------------ *)

let test_find_hom () =
  (* path2 maps into edge by collapsing: x,z -> x; needs E(y,x) too, so no.
     But edge maps into path2. *)
  Alcotest.(check bool) "edge -> path2" true (Morphism.find_hom edge_q path2_q <> None);
  (* a loop query maps into nothing loop-free *)
  Alcotest.(check bool) "loop -> path2 impossible" true
    (Morphism.find_hom loop_q path2_q = None)

let test_hom_verification () =
  match Morphism.find_hom edge_q path2_q with
  | None -> Alcotest.fail "expected hom"
  | Some h -> Alcotest.(check bool) "is_hom verifies" true (Morphism.is_hom h edge_q path2_q)

let test_onto_hom_domination () =
  (* ρ_b = E(x,y) ∧ E(y,z), ρ_s = E(x,y): map x,z ↦ x? Not a hom.
     Take ρ_b = two disjoint edges, ρ_s = one edge: collapse is onto. *)
  let two_edges = Query.dconj edge_q edge_q in
  Alcotest.(check bool) "onto hom exists" true (Morphism.exists_onto_hom two_edges edge_q);
  Alcotest.(check bool) "domination" true (Morphism.count_dominates two_edges edge_q);
  (* and the semantic consequence ρ_s(D) ≤ ρ_b(D) holds on samples *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "count dominated" true
        (Nat.compare (Eval.count edge_q d) (Eval.count two_edges d) <= 0))
    [ triangle; clique 2; clique 3 ]

let test_isomorphic () =
  let q1 = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "x" ] ]) in
  let q2 = Build.(query [ atom e [ v "p"; v "q" ]; atom e [ v "q"; v "p" ] ]) in
  Alcotest.(check bool) "renamed is iso" true (Morphism.isomorphic q1 q2);
  Alcotest.(check bool) "edge not iso to path" false (Morphism.isomorphic edge_q path2_q);
  (* loop vs edge: same atom count, different shape *)
  Alcotest.(check bool) "loop not iso to edge" false (Morphism.isomorphic loop_q edge_q);
  (* inequalities matter *)
  let q_neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  Alcotest.(check bool) "neq breaks iso" false (Morphism.isomorphic q_neq edge_q);
  let q_neq2 = Build.(query ~neqs:[ (v "q", v "p") ] [ atom e [ v "p"; v "q" ] ]) in
  Alcotest.(check bool) "neq iso neq" true (Morphism.isomorphic q_neq q_neq2)

(* A variable that occurs only in an inequality is part of the query: a
   query carrying one is isomorphic to itself and to its renamings, and
   the map must carry each inequality onto one of the other query's. *)
let test_isomorphic_inequality_only () =
  List.iter
    (fun text ->
      let q = Parse.parse_exn text in
      Alcotest.(check bool) (text ^ " iso itself") true (Morphism.isomorphic q q);
      let renamed = Query.rename_vars (fun x -> x ^ "'") q in
      Alcotest.(check bool) (text ^ " iso renamed") true (Morphism.isomorphic q renamed))
    [ "E(x,y) & w != y"; "x != y"; "E(x,x) & y != z"; "E(x,'a') & w != 'a' & 'a' != 'b'" ];
  let q1 = Parse.parse_exn "E(x,y) & w != y" and q2 = Parse.parse_exn "E(x,y) & w != x" in
  Alcotest.(check bool) "≠ onto a differently placed ≠" false (Morphism.isomorphic q1 q2)

(* k disjoint edges, one inequality placed differently: every count the
   test compares first agrees, so only the search can refuse the pair,
   and a search over injective maps carrying ≠ onto ≠ refuses it within
   a small fuel, without walking the k^k maps of the edges. *)
let test_isomorphic_refutes_fast () =
  let edges = List.init 8 (fun i -> Printf.sprintf "E(x%d,y%d)" (i + 1) (i + 1)) in
  let q neq = Parse.parse_exn (String.concat " & " (edges @ [ neq ])) in
  let b = Bagcq_guard.Budget.create ~fuel:1000 () in
  Alcotest.(check bool) "k = 8 not isomorphic" false
    (Morphism.isomorphic ~budget:b (q "x1 != y1") (q "x1 != x2"));
  let b = Bagcq_guard.Budget.create ~fuel:1000 () in
  Alcotest.(check bool) "k = 8 isomorphic to itself" true
    (Morphism.isomorphic ~budget:b (q "x1 != y1") (q "x1 != y1"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_db =
  let gen st =
    let size = 1 + Random.State.int st 3 in
    let density = 0.2 +. Random.State.float st 0.6 in
    Generate.random ~density st (Schema.make [ e; u ]) ~size
  in
  QCheck.make ~print:(Format.asprintf "%a" Structure.pp) gen

let arb_q =
  let gen st =
    let var _ = Term.var (Printf.sprintf "v%d" (Random.State.int st 3)) in
    let n = 1 + Random.State.int st 3 in
    Query.make
      (List.init n (fun _ ->
           if Random.State.bool st then Build.atom e [ var (); var () ]
           else Build.atom u [ var () ]))
  in
  QCheck.make ~print:Query.to_string gen

(* Queries with constants, inequalities between joined variables, and
   variables that occur only in inequalities. *)
let arb_neq_q =
  let gen st =
    let var () = Term.var (Printf.sprintf "v%d" (Random.State.int st 4)) in
    let term () =
      match Random.State.int st 6 with
      | 0 -> Term.cst (if Random.State.bool st then "a" else "b")
      | 1 -> Term.var (Printf.sprintf "w%d" (Random.State.int st 3))
      | _ -> var ()
    in
    let atoms =
      List.init (1 + Random.State.int st 3) (fun _ ->
          if Random.State.bool st then Build.atom e [ var (); term () ]
          else Build.atom u [ var () ])
    in
    let neqs =
      List.filter
        (fun (a, b) -> not (Term.equal a b))
        (List.init (Random.State.int st 3) (fun _ -> (term (), term ())))
    in
    Query.make ~neqs atoms
  in
  QCheck.make ~print:Query.to_string gen

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Lemma 1: dconj multiplies counts" ~count:150
         (QCheck.triple arb_q arb_q arb_db)
         (fun (q1, q2, d) ->
           Nat.equal
             (Eval.count (Query.dconj q1 q2) d)
             (Nat.mul (Eval.count q1 d) (Eval.count q2 d))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Definition 2: power law" ~count:100
         (QCheck.triple arb_q (QCheck.int_range 0 3) arb_db)
         (fun (q, k, d) ->
           Nat.equal (Eval.count (Query.power q k) d) (Nat.pow (Eval.count q d) k)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Lemma 22(i): blowup law" ~count:80
         (QCheck.triple arb_q (QCheck.int_range 1 2) arb_db)
         (fun (q, k, d) ->
           Nat.equal
             (Eval.count q (Ops.blowup d k))
             (Nat.mul (Nat.pow (Nat.of_int k) (Query.num_vars q)) (Eval.count q d))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Lemma 22(ii): product law" ~count:60
         (QCheck.triple arb_q (QCheck.int_range 1 2) arb_db)
         (fun (q, k, d) ->
           Nat.equal (Eval.count q (Ops.power d k)) (Nat.pow (Eval.count q d) k)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"count = |enumerate|" ~count:150 (QCheck.pair arb_q arb_db)
         (fun (q, d) -> count_int q d = List.length (enumerate q d)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"satisfies iff count > 0" ~count:150 (QCheck.pair arb_q arb_db)
         (fun (q, d) -> Eval.satisfies d q = (count_int q d > 0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hom count monotone under atom removal" ~count:100
         (QCheck.pair arb_q arb_db)
         (fun (q, d) ->
           match Query.atoms q with
           | [] -> true
           | _ :: rest ->
               let weaker = Query.make rest in
               Nat.compare (Eval.count q d) (Eval.count weaker d) <= 0
               || Query.num_vars weaker < Query.num_vars q));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pquery factorised = flattened" ~count:80
         (QCheck.triple arb_q (QCheck.int_range 0 3) arb_db)
         (fun (q, k, d) ->
           let pq = Pquery.power_int (Pquery.of_query q) k in
           Nat.equal (Eval.count_pquery pq d) (Eval.count (Pquery.flatten pq) d)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"isomorphic implies equal counts (bag equivalence)" ~count:80
         (QCheck.pair arb_q arb_db)
         (fun (q, d) ->
           let renamed = Query.rename_vars (fun x -> x ^ "_r") q in
           Morphism.isomorphic q renamed
           && Nat.equal (Eval.count q d) (Eval.count renamed d)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"isomorphic to itself and its renamings, with ≠-only variables"
         ~count:300 arb_neq_q (fun q ->
           let vars = Array.of_list (Query.vars q) in
           let n = Array.length vars in
           (* a renaming that reverses the variables' name order *)
           let renamed =
             Query.rename_vars
               (fun x ->
                 let rec at i = if vars.(i) = x then i else at (i + 1) in
                 Printf.sprintf "r%d" (n - at 0))
               q
           in
           Morphism.isomorphic q q && Morphism.isomorphic q renamed
           && Morphism.isomorphic renamed q));
  ]

let () =
  Alcotest.run "hom"
    [
      ( "counting",
        [
          Alcotest.test_case "edge" `Quick test_count_edge;
          Alcotest.test_case "path" `Quick test_count_path;
          Alcotest.test_case "loop" `Quick test_count_loop;
          Alcotest.test_case "true query" `Quick test_count_empty_query;
          Alcotest.test_case "repeated vars" `Quick test_count_repeated_var;
          Alcotest.test_case "constants" `Quick test_count_with_constant;
          Alcotest.test_case "ground atoms" `Quick test_constant_only_atom;
        ] );
      ( "inequalities",
        [
          Alcotest.test_case "basic" `Quick test_neq_basic;
          Alcotest.test_case "neq-only vars" `Quick test_neq_only_vars;
          Alcotest.test_case "chain" `Quick test_neq_chain;
          Alcotest.test_case "vs constant" `Quick test_neq_with_constant;
          Alcotest.test_case "two constants" `Quick test_neq_two_constants;
        ] );
      ( "laws",
        [
          Alcotest.test_case "Lemma 1" `Quick test_lemma1;
          Alcotest.test_case "Definition 2" `Quick test_definition2;
          Alcotest.test_case "Lemma 22(i) blowup" `Quick test_lemma22_blowup;
          Alcotest.test_case "Lemma 22(ii) product" `Quick test_lemma22_product;
          Alcotest.test_case "blowup law fails with neq" `Quick test_lemma22_fails_with_neq;
        ] );
      ( "eval",
        [
          Alcotest.test_case "components factorise" `Quick test_component_factorisation;
          Alcotest.test_case "satisfies" `Quick test_satisfies;
          Alcotest.test_case "pquery count" `Quick test_pquery_count;
          Alcotest.test_case "pquery huge exponents" `Quick test_pquery_huge_exponent;
          Alcotest.test_case "pquery_geq" `Quick test_pquery_geq;
        ] );
      ( "solver",
        [
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "assignments are homs" `Quick test_enumerate_assignments_are_homs;
          Alcotest.test_case "fold" `Quick test_fold;
        ] );
      ( "morphism",
        [
          Alcotest.test_case "find_hom" `Quick test_find_hom;
          Alcotest.test_case "verification" `Quick test_hom_verification;
          Alcotest.test_case "onto domination" `Quick test_onto_hom_domination;
          Alcotest.test_case "isomorphic" `Quick test_isomorphic;
          Alcotest.test_case "isomorphic: inequality-only variables" `Quick
            test_isomorphic_inequality_only;
          Alcotest.test_case "isomorphic: refutes a misplaced ≠ at once" `Quick
            test_isomorphic_refutes_fast;
        ] );
      ("properties", properties);
    ]
