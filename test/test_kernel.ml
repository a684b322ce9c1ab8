(* Tests for the homomorphism kernels: differential checking of the
   leapfrog's count and enumeration, and of the planner, against the
   reference solver [Solver_ref] (the seed's backtracking interpreter,
   kept verbatim), plan/index unit properties, tick pins for each access
   pattern, and the [Eval] plan-and-count cache contract (cached =
   uncached). *)

open Bagcq_relational
open Bagcq_cq
module Solver_ref = Bagcq_hom.Solver_ref
module Wcoj = Bagcq_hom.Wcoj
module Index = Bagcq_hom.Index
module Eval = Bagcq_hom.Eval
module Decomp = Bagcq_hom.Decomp
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Nat = Bagcq_bignum.Nat

let e = Build.sym "E" 2
let u = Build.sym "U" 1

(* ------------------------------------------------------------------ *)
(* Random query / database generators (seeded, deterministic)          *)
(* ------------------------------------------------------------------ *)

(* Queries over E/2 and U/1 with up to 3 variables, occasional constants
   [a]/[b] and at most one inequality — small enough that the reference
   solver is fast, rich enough to hit every case of the compiled plans
   (constant levels, repeated variables, neq on constants, free
   inequality-only variables). *)
let random_query st =
  let nvars = 1 + Random.State.int st 3 in
  let var () = Build.v (Printf.sprintf "x%d" (Random.State.int st nvars)) in
  let term () =
    if Random.State.int st 5 = 0 then
      Build.c (if Random.State.bool st then "a" else "b")
    else var ()
  in
  let natoms = 1 + Random.State.int st 3 in
  let atoms =
    List.init natoms (fun _ ->
        if Random.State.int st 4 = 0 then Build.atom u [ term () ]
        else Build.atom e [ term (); term () ])
  in
  let neqs =
    if Random.State.int st 2 = 0 then begin
      let a = term () and b = term () in
      if Term.equal a b then [] else [ (a, b) ]
    end
    else []
  in
  try Some (Build.query atoms ~neqs) with Invalid_argument _ -> None

let random_db st =
  let n = 1 + Random.State.int st 3 in
  let d = ref (Structure.empty (Schema.make [ e; u ])) in
  for _ = 1 to Random.State.int st 6 do
    d :=
      Structure.add_fact !d e
        [ Value.int (Random.State.int st n); Value.int (Random.State.int st n) ]
  done;
  for _ = 1 to Random.State.int st 3 do
    d := Structure.add_fact !d u [ Value.int (Random.State.int st n) ]
  done;
  if Random.State.bool st then d := Structure.bind_constant !d "a" (Value.int 0);
  if Random.State.bool st then
    d := Structure.bind_constant !d "b" (Value.int (Random.State.int st n));
  !d

let gen_pair =
  QCheck.make
    ~print:(fun (q, d) -> Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d)
    (fun st ->
      let rec q () = match random_query st with Some q -> q | None -> q () in
      (q (), random_db st))

(* The generator above, widened.  A ternary T puts probes and bag-join
   steps at positions 1 and 2, where a probe-first view permutes its
   levels; a quarter of the queries are cycles that take the GHD kernel,
   so its bag joins probe there too.  The constant [c] is always
   interpreted, by an element no tuple holds, so a probe on it finds an
   empty run. *)
let t3 = Build.sym "T" 3

let random_wide_query st =
  let nvars = 1 + Random.State.int st 4 in
  let var () = Build.v (Printf.sprintf "x%d" (Random.State.int st nvars)) in
  let term () =
    match Random.State.int st 8 with
    | 0 -> Build.c (if Random.State.bool st then "a" else "b")
    | 1 -> Build.c "c"
    | _ -> var ()
  in
  let natoms = 1 + Random.State.int st 3 in
  let atoms =
    List.init natoms (fun _ ->
        match Random.State.int st 5 with
        | 0 -> Build.atom u [ term () ]
        | 1 | 2 -> Build.atom t3 [ term (); term (); term () ]
        | _ -> Build.atom e [ term (); term () ])
  in
  let neqs =
    if Random.State.int st 2 = 0 then begin
      let a = term () and b = term () in
      if Term.equal a b then [] else [ (a, b) ]
    end
    else []
  in
  try Some (Build.query atoms ~neqs) with Invalid_argument _ -> None

(* A 5- or 6-cycle whose edges are E atoms, or T atoms with a third term
   at a random position. *)
let random_wide_cycle st =
  let len = 5 + Random.State.int st 2 in
  let x i = Build.v (Printf.sprintf "x%d" (i mod len)) in
  let third () =
    match Random.State.int st 4 with
    | 0 -> Build.c (if Random.State.bool st then "a" else "c")
    | 1 -> x (Random.State.int st len)
    | _ -> Build.v "p"
  in
  Build.query
    (List.init len (fun i ->
         if Random.State.int st 3 = 0 then Build.atom e [ x i; x (i + 1) ]
         else
           match Random.State.int st 3 with
           | 0 -> Build.atom t3 [ third (); x i; x (i + 1) ]
           | 1 -> Build.atom t3 [ x i; third (); x (i + 1) ]
           | _ -> Build.atom t3 [ x i; x (i + 1); third () ]))

let random_wide_db st =
  let n = 1 + Random.State.int st 3 in
  let value () = Value.int (Random.State.int st n) in
  let d = ref (random_db st) in
  for _ = 1 to Random.State.int st 13 do
    d := Structure.add_fact !d t3 [ value (); value (); value () ]
  done;
  Structure.bind_constant !d "c" (Value.int 7)

let gen_wide_pair =
  QCheck.make
    ~print:(fun (q, d) -> Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d)
    (fun st ->
      let rec q () = match random_wide_query st with Some q -> q | None -> q () in
      ((if Random.State.int st 4 = 0 then random_wide_cycle st else q ()), random_wide_db st))

(* ------------------------------------------------------------------ *)
(* Differential properties                                             *)
(* ------------------------------------------------------------------ *)

(* The leapfrog's two entry points on one compiled plan: the number of
   homomorphisms [Wcoj.iter] hands out is [Wcoj.count], and both are the
   reference count. *)
let iter_list p d =
  let out = ref [] in
  Wcoj.iter (fun a -> out := a :: !out) p d;
  !out

let prop_count_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled count = reference count" ~count:3000 gen_wide_pair
       (fun (q, d) ->
         let p = Wcoj.compile q in
         let n = Solver_ref.count q d in
         List.length (iter_list p d) = n && Nat.equal (Wcoj.count p d) (Nat.of_int n)))

(* ... and the assignments themselves are the reference's, as a set. *)
let prop_enumerate_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled enumerate = reference enumerate" ~count:3000
       gen_wide_pair (fun (q, d) ->
         let module M = Map.Make (String) in
         let norm hs = List.sort compare (List.map M.bindings hs) in
         norm (iter_list (Wcoj.compile q) d) = norm (Solver_ref.enumerate q d)))

let prop_cached_eval_matches_uncached =
  (* one cache across the whole run: exercises plan reuse across queries
     and the per-structure count memo invalidation on structure change *)
  let cache = Eval.create_cache () in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Eval.count cached = uncached" ~count:1000 gen_wide_pair
       (fun (q, d) ->
         Nat.equal (Eval.count ~cache q d) (Eval.count q d)
         && Eval.satisfies ~cache d q = Eval.satisfies d q))

(* The planner pipeline end to end — factorization, canonical grouping,
   strategy choice — against the seed interpreter. *)
let prop_eval_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Eval.count = reference count" ~count:3000 gen_wide_pair
       (fun (q, d) ->
         Nat.equal (Eval.count q d) (Nat.of_int (Solver_ref.count q d))
         && Eval.satisfies d q = (Solver_ref.count q d > 0)))

(* Prepared queries against [Eval.count] and the reference.  Each case
   has two queries sharing the component(s) of [shared] (the first as a
   power, so components repeat) and two structures.  The queries are
   prepared through one cache and counted through another, so the memo
   sees ids from a map it does not hold; the second query then hits the
   shared component in the memo on [d1]; moving to [d2] and back must
   flush it.  [q2] is also prepared through a fresh cache of its own:
   plan ids are process-wide, so its components can never alias [q1]'s
   memo slots. *)
let gen_prepared_case =
  QCheck.make
    ~print:(fun (q1, q2, d1, d2) ->
      Format.asprintf "q1: %a@.q2: %a@.d1: %a@.d2: %a" Query.pp q1 Query.pp q2
        Structure.pp d1 Structure.pp d2)
    (fun st ->
      let rec q () = match random_query st with Some q -> q | None -> q () in
      let shared = q () in
      let q1 = Query.dconj (Query.power shared (1 + Random.State.int st 2)) (q ()) in
      let q2 = Query.dconj shared (q ()) in
      (q1, q2, random_db st, random_db st))

let prop_prepared_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"count_prepared = Eval.count = reference count" ~count:500
       gen_prepared_case (fun (q1, q2, d1, d2) ->
         let preparing = Eval.create_cache () and counting = Eval.create_cache () in
         let p1 = Eval.prepare ~cache:preparing q1 and p2 = Eval.prepare ~cache:preparing q2 in
         let p2_alone = Eval.prepare q2 in
         let agree ?cache p q d =
           let n = Eval.count_prepared ?cache p d in
           Nat.equal n (Nat.of_int (Solver_ref.count q d)) && Nat.equal n (Eval.count q d)
         in
         let cache = counting in
         agree ~cache p1 q1 d1 && agree ~cache p2 q2 d1 && agree ~cache p2_alone q2 d1
         && agree ~cache p1 q1 d2 && agree ~cache p2 q2 d2 && agree ~cache p2 q2 d1
         && agree ~cache:preparing p1 q1 d2 && agree p2 q2 d1))

(* The planner never picks the backtracking kernel, whatever the
   component: inequality-only variables, ≠ on constants, loops. *)
let prop_choose_never_backtracks =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Decomp.choose never returns Backtrack" ~count:1000
       gen_pair (fun (q, _) ->
         List.for_all
           (fun (comp, _) ->
             match Decomp.choose comp with Decomp.Backtrack -> false | _ -> true)
           (Decomp.factor q)))

(* Deliberately disconnected queries: θ↑k must equal both the reference
   count of the expanded query and θ(D)^k (Definition 2 / Lemma 1). *)
let gen_power_pair =
  QCheck.make
    ~print:(fun (q, k, d) ->
      Format.asprintf "theta: %a@.k: %d@.db: %a" Query.pp q k Structure.pp d)
    (fun st ->
      let rec q () = match random_query st with Some q -> q | None -> q () in
      (q (), Random.State.int st 4, random_db st))

let prop_power_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Eval.count θ↑k = reference ∧ θ(D)^k" ~count:300
       gen_power_pair (fun (theta, k, d) ->
         let p = Query.power theta k in
         Nat.equal (Eval.count p d) (Nat.of_int (Solver_ref.count p d))
         && Nat.equal (Eval.count p d) (Nat.pow (Eval.count theta d) k)))

(* Deliberately acyclic queries: random trees over the variables, so the
   GYO reduction must always classify them as DP — the property pins both
   the classification and the DP's counts. *)
let random_tree_query st =
  let n = 1 + Random.State.int st 5 in
  let atoms =
    List.init n (fun i ->
        let p = if i = 0 then 0 else Random.State.int st (i + 1) in
        let a = Build.v (Printf.sprintf "t%d" p)
        and b = Build.v (Printf.sprintf "t%d" (i + 1)) in
        if Random.State.bool st then Build.atom e [ a; b ]
        else Build.atom e [ b; a ])
  in
  Build.query atoms

let gen_tree_pair =
  QCheck.make
    ~print:(fun (q, d) -> Format.asprintf "query: %a@.db: %a" Query.pp q Structure.pp d)
    (fun st -> (random_tree_query st, random_db st))

let prop_acyclic_dp_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"acyclic tree queries: DP selected ∧ count = reference"
       ~count:1000 gen_tree_pair (fun (q, d) ->
         (match Decomp.choose (Decomp.canonical q) with
         | Decomp.Dp _ -> true
         | Decomp.Wcoj _ | Decomp.Ghd _ | Decomp.Backtrack -> false)
         && Nat.equal (Eval.count q d) (Nat.of_int (Solver_ref.count q d))))

(* ------------------------------------------------------------------ *)
(* The factor, against its string implementation                        *)
(* ------------------------------------------------------------------ *)

(* The factor written over names, kept as the oracle: rename each
   component's variables by first occurrence ([Decomp.canonical], which
   perfbench's verifier keys its reference counts with, so this also
   holds the verifier's keys to the factor's), sort the components with
   [Query.compare] and group equal neighbours. *)
let oracle_factor q =
  let comps = List.sort Query.compare (List.map Decomp.canonical (Query.components q)) in
  let rec group = function
    | [] -> []
    | c :: rest ->
        let rec span n = function
          | c' :: tl when Query.equal c c' -> span (n + 1) tl
          | tl -> (n, tl)
        in
        let n, tl = span 1 rest in
        (c, n) :: group tl
  in
  (group comps, List.length comps)

(* Queries mixing every case the renaming order can trip on: constants,
   ≠ between two variables no atom holds (the right side is renamed
   first), ≠ between constants, variable-free atoms, components of ten
   and more variables (v10 sorts before v2) and isomorphic copies of one
   component under different, shuffled variable names. *)
let random_factor_query st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let constant () = Build.c (pick [ "a"; "b"; "c"; "v1"; "x0" ]) in
  let component tag =
    let nvars = 1 + Random.State.int st 14 in
    let var () = Build.v (Printf.sprintf "%sx%d" tag (Random.State.int st nvars)) in
    let term () = if Random.State.int st 6 = 0 then constant () else var () in
    let path =
      if Random.State.int st 3 = 0 then
        List.init nvars (fun i ->
            Build.atom e
              [ Build.v (Printf.sprintf "%sx%d" tag i); Build.v (Printf.sprintf "%sx%d" tag (i + 1)) ])
      else []
    in
    let atoms =
      path
      @ List.init (Random.State.int st 6) (fun _ ->
            match Random.State.int st 5 with
            | 0 -> Build.atom u [ term () ]
            | 1 -> Build.atom t3 [ term (); term (); term () ]
            | _ -> Build.atom e [ term (); term () ])
    in
    let neqs =
      List.init (Random.State.int st 3) (fun i ->
          match Random.State.int st 4 with
          | 0 ->
              (Build.v (Printf.sprintf "%sw%d" tag i), Build.v (Printf.sprintf "%sz%d" tag i))
          | 1 -> (constant (), constant ())
          | _ -> (term (), term ()))
    in
    let neqs = List.filter (fun (a, b) -> not (Term.equal a b)) neqs in
    Build.query atoms ~neqs
  in
  (* a copy under a random injective renaming *)
  let copy q k =
    let vars = Array.of_list (Query.vars q) in
    let names = Array.mapi (fun i _ -> Printf.sprintf "c%d_%d" k i) vars in
    for i = Array.length names - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = names.(i) in
      names.(i) <- names.(j);
      names.(j) <- t
    done;
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i x -> Hashtbl.add tbl x names.(i)) vars;
    Query.rename_vars (Hashtbl.find tbl) q
  in
  let parts =
    List.concat
      (List.init (1 + Random.State.int st 3) (fun i ->
           let c = component (Printf.sprintf "p%d" i) in
           c :: List.init (Random.State.int st 4) (fun k -> copy c ((10 * i) + k))))
  in
  let ground =
    List.init (Random.State.int st 3) (fun _ ->
        if Random.State.bool st then Build.atom u [ constant () ]
        else Build.atom e [ constant (); constant () ])
  in
  List.fold_left Query.conj (Build.query ground) parts

let gen_factor_query =
  QCheck.make ~print:Query.to_string (fun st ->
      let rec q () =
        match random_factor_query st with q -> q | exception Invalid_argument _ -> q ()
      in
      q ())

let prop_factor_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Decomp.factor = the string factor, byte for byte" ~count:2000
       gen_factor_query (fun q ->
         let seen = Metrics.counter Metrics.global "plan_components" in
         let before = Metrics.counter_value seen in
         let got = Decomp.factor q in
         let rise = Metrics.counter_value seen - before in
         let want, ncomps = oracle_factor q in
         let text l = List.map (fun (c, n) -> (Query.to_string c, n)) l in
         text got = text want && rise = ncomps))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])
let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])

let db_of_edges edges =
  List.fold_left
    (fun d (a, b) -> Structure.add_fact d e [ Value.int a; Value.int b ])
    (Structure.empty (Schema.make [ e ]))
    edges

let test_index_is_memoised () =
  let d = db_of_edges [ (1, 2); (2, 3); (1, 1) ] in
  let i1 = Index.get d and i2 = Index.get d in
  Alcotest.(check bool) "same index object" true (i1 == i2);
  Alcotest.(check int) "domain size" 3 (Array.length (Index.domain i1));
  Alcotest.(check int) "all tuples" 3 (Index.rows (Index.sym_index i1 e))

(* |Hom(q, D)| on the leapfrog, enumerated and counted: the two agree. *)
let count_plan p d =
  let n = Nat.to_int (Wcoj.count p d) in
  Alcotest.(check int) "|iter| = count" n (List.length (iter_list p d));
  n

let count q d = count_plan (Wcoj.compile q) d

let test_index_fresh_after_update () =
  let d = db_of_edges [ (1, 2) ] in
  Alcotest.(check int) "one loop... no: zero loops" 0 (count loop_q d);
  let d' = Structure.add_fact d e [ Value.int 5; Value.int 5 ] in
  (* the updated structure must not see the stale index of [d] *)
  Alcotest.(check int) "loop appears after add" 1 (count loop_q d');
  Alcotest.(check int) "original unchanged" 0 (count loop_q d)

let test_uninterpreted_constant_counts_zero () =
  let q = Build.(query [ atom e [ c "z"; v "x" ] ]) in
  let d = db_of_edges [ (1, 2) ] in
  Alcotest.(check int) "no interpretation, no homs" 0 (count q d);
  Alcotest.(check int) "reference agrees" (Solver_ref.count q d) (count q d)

let test_plan_reuse_across_structures () =
  let plan = Wcoj.compile edge_q in
  Alcotest.(check int) "4 edges" 4 (count_plan plan (db_of_edges [ (1, 1); (1, 2); (2, 1); (2, 2) ]));
  Alcotest.(check int) "1 edge" 1 (count_plan plan (db_of_edges [ (7, 8) ]));
  Alcotest.(check int) "empty" 0 (count_plan plan (Structure.empty (Schema.make [ e ])))

let test_cache_invalidated_on_structure_change () =
  let cache = Eval.create_cache () in
  let d = db_of_edges [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "2 edges" true (Nat.equal (Eval.count ~cache edge_q d) (Nat.of_int 2));
  let d' = Structure.add_fact d e [ Value.int 3; Value.int 4 ] in
  Alcotest.(check bool) "3 edges on grown db" true
    (Nat.equal (Eval.count ~cache edge_q d') (Nat.of_int 3));
  Alcotest.(check bool) "2 edges again on the old db" true
    (Nat.equal (Eval.count ~cache edge_q d) (Nat.of_int 2))

(* Prepared through one cache, counted through another: the shared path
   component is counted once per structure (a memo hit on the second
   query), and a new structure flushes it. *)
let test_prepared_memo_per_structure () =
  let path = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
  let preparing = Eval.create_cache () and cache = Eval.create_cache () in
  let p1 = Eval.prepare ~cache:preparing (Query.dconj path loop_q) in
  let p2 = Eval.prepare ~cache:preparing path in
  let d = db_of_edges [ (1, 2); (2, 3); (3, 3) ] and d' = db_of_edges [ (1, 2); (2, 3) ] in
  let count p d = Nat.to_int (Eval.count_prepared ~cache p d) in
  let hits () = (Eval.cache_stats cache).Eval.count_hits in
  Alcotest.(check int) "3 paths x 1 loop" 3 (count p1 d);
  Alcotest.(check int) "no hit yet" 0 (hits ());
  Alcotest.(check int) "3 paths, from the memo" 3 (count p2 d);
  Alcotest.(check int) "one hit" 1 (hits ());
  Alcotest.(check int) "1 path on the new structure" 1 (count p2 d');
  Alcotest.(check int) "flushed: no new hit" 1 (hits ());
  let s = Eval.cache_stats preparing in
  Alcotest.(check (pair int int)) "two plans made, one reused" (2, 1)
    (s.Eval.plan_misses, s.Eval.plan_hits)

let test_neq_between_constants () =
  let q = Build.(query ~neqs:[ (c "a", c "b") ] [ atom e [ v "x"; v "y" ] ]) in
  let d0 = db_of_edges [ (1, 2) ] in
  let d_eq =
    Structure.bind_constant (Structure.bind_constant d0 "a" (Value.int 1)) "b" (Value.int 1)
  in
  let d_ne =
    Structure.bind_constant (Structure.bind_constant d0 "a" (Value.int 1)) "b" (Value.int 2)
  in
  Alcotest.(check int) "a=b kills the query" 0 (count q d_eq);
  Alcotest.(check int) "a<>b leaves it alone" 1 (count q d_ne);
  Alcotest.(check int) "ref agrees on a=b" (Solver_ref.count q d_eq) (count q d_eq);
  Alcotest.(check int) "ref agrees on a<>b" (Solver_ref.count q d_ne) (count q d_ne)

(* ------------------------------------------------------------------ *)
(* Tick pins for the leapfrog                                           *)
(* ------------------------------------------------------------------ *)

(* One fixed structure and one query per access pattern, each count
   checked against the reference and each tick figure pinned, for both
   entry points.  The leapfrog ticks once per seek and once per domain
   value walked.  [count]'s shortcuts replace the seeks that would bind
   the innermost rank with one tick per closed-form leaf, so its figure
   is the smaller here.  A pin moves exactly when a run seeks
   differently. *)
let probe_db =
  let facts sym rows d =
    List.fold_left (fun d r -> Structure.add_fact d sym (List.map Value.int r)) d rows
  in
  Structure.empty (Schema.make [ e; u; t3 ])
  |> facts e [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 1 ]; [ 2; 3 ]; [ 3; 1 ]; [ 3; 3 ] ]
  |> facts u [ [ 1 ]; [ 3 ] ]
  |> facts t3
       [ [ 1; 2; 3 ]; [ 1; 3; 2 ]; [ 2; 1; 1 ]; [ 2; 3; 3 ]; [ 3; 1; 2 ]; [ 3; 3; 1 ]; [ 3; 3; 3 ] ]
  |> fun d -> Structure.bind_constant (Structure.bind_constant d "a" (Value.int 3)) "c" (Value.int 7)

let probe_pin q ~count ~ticks ~count_ticks () =
  let p = Wcoj.compile q in
  let b = Budget.unlimited () in
  let n = ref 0 in
  Wcoj.iter ~budget:b (fun _ -> incr n) p probe_db;
  Alcotest.(check int) "count = reference" (Solver_ref.count q probe_db) !n;
  Alcotest.(check int) "count" count !n;
  Alcotest.(check int) "ticks" ticks (Budget.ticks b);
  let b = Budget.unlimited () in
  Alcotest.(check int) "Wcoj.count" count (Nat.to_int (Wcoj.count ~budget:b p probe_db));
  Alcotest.(check int) "Wcoj.count ticks" count_ticks (Budget.ticks b)

let probe_pins =
  let pin name q ~count ~ticks ~count_ticks =
    Alcotest.test_case name `Quick (probe_pin q ~count ~ticks ~count_ticks)
  in
  Build.
    [
      pin "scan: E(x,y)" (query [ atom e [ v "x"; v "y" ] ]) ~count:6 ~ticks:9 ~count_ticks:6;
      pin "constant at position 1: E(x,'a')" (query [ atom e [ v "x"; c "a" ] ]) ~count:3
        ~ticks:5 ~count_ticks:3;
      pin "constant no tuple holds: E(x,'c')" (query [ atom e [ v "x"; c "c" ] ]) ~count:0
        ~ticks:1 ~count_ticks:1;
      pin "variable at position 1: U(y) & E(x,y)"
        (query [ atom u [ v "y" ]; atom e [ v "x"; v "y" ] ])
        ~count:5 ~ticks:12 ~count_ticks:9;
      pin "variable at position 1 of T: E(x,y) & T(z,x,y)"
        (query [ atom e [ v "x"; v "y" ]; atom t3 [ v "z"; v "x"; v "y" ] ])
        ~count:5 ~ticks:28 ~count_ticks:27;
      pin "variable at position 2 of T: E(x,y) & T(z,w,y)"
        (query [ atom e [ v "x"; v "y" ]; atom t3 [ v "z"; v "w"; v "y" ] ])
        ~count:15 ~ticks:42 ~count_ticks:39;
      pin "membership: E(x,y) & E(y,x)"
        (query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "x" ] ])
        ~count:5 ~ticks:25 ~count_ticks:15;
      pin "inequality-only variable: E(x,y) & x != w"
        (query ~neqs:[ (v "x", v "w") ] [ atom e [ v "x"; v "y" ] ])
        ~count:18 ~ticks:33 ~count_ticks:15;
    ]

(* ------------------------------------------------------------------ *)
(* Planner unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_factor_groups_powers () =
  let theta =
    Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])
  in
  match Decomp.factor (Query.power theta 3) with
  | [ (comp, 3) ] ->
      Alcotest.(check int) "canonical component keeps both atoms" 2
        (Query.num_atoms comp)
  | groups ->
      Alcotest.fail
        (Printf.sprintf "expected one component with multiplicity 3, got %d groups"
           (List.length groups))

let test_classification () =
  let path =
    Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])
  in
  let triangle =
    Build.(
      query
        [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ]; atom e [ v "z"; v "x" ] ])
  in
  let neq = Build.(query ~neqs:[ (v "x", v "y") ] [ atom e [ v "x"; v "y" ] ]) in
  (* a variable occurring only in inequalities ranges over the whole
     domain: the leapfrog binds it at a trailing domain rank *)
  let neq_free =
    Build.(query ~neqs:[ (v "x", v "w") ] [ atom e [ v "x"; v "y" ] ])
  in
  (match Decomp.choose path with
  | Decomp.Dp _ -> ()
  | _ -> Alcotest.fail "path query must run the DP");
  (match Decomp.choose triangle with
  | Decomp.Wcoj _ -> ()
  | _ -> Alcotest.fail "triangle must take the leapfrog kernel");
  (match Decomp.choose neq with
  | Decomp.Wcoj _ -> ()
  | _ -> Alcotest.fail "joined inequalities must ride the leapfrog filters");
  match Decomp.choose neq_free with
  | Decomp.Wcoj _ -> ()
  | _ -> Alcotest.fail "inequality-only variables must take domain ranks"

let test_dp_ticks_budget () =
  let q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ]) in
  let d = db_of_edges [ (1, 2); (2, 3); (3, 1) ] in
  (match Decomp.choose q with
  | Decomp.Dp _ -> ()
  | _ -> Alcotest.fail "expected the DP strategy");
  let b = Budget.create ~fuel:3 () in
  (match Budget.protect b (fun () -> Eval.count ~budget:b q d) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "3 ticks of fuel must not complete the DP");
  let b = Budget.create ~fuel:1_000_000 () in
  match Budget.protect b (fun () -> Eval.count ~budget:b q d) with
  | Ok n -> Alcotest.(check string) "count" "3" (Nat.to_string n)
  | Error _ -> Alcotest.fail "ample fuel must complete"

let global_counter name =
  List.fold_left
    (fun acc (row : Metrics.row) ->
      if row.Metrics.name = name && row.Metrics.labels = [] then
        match row.Metrics.value with Metrics.Counter_v v -> v | _ -> acc
      else acc)
    0 (Metrics.rows Metrics.global)

let selection_counters () =
  List.map global_counter
    [
      "plan_dp_selected"; "plan_wcoj_selected"; "plan_ghd_selected"; "plan_fallback";
    ]

let test_selection_counters_count_cold_plans_only () =
  let q =
    Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])
  in
  let d = db_of_edges [ (1, 2); (2, 3) ] and d' = db_of_edges [ (4, 5); (5, 6) ] in
  let cache = Eval.create_cache () in
  let before = selection_counters () in
  ignore (Eval.count ~cache q d);
  let after_first = selection_counters () in
  Alcotest.(check (list int)) "cold plan bumps exactly the DP counter"
    [ 1; 0; 0; 0 ]
    (List.map2 ( - ) after_first before);
  (* warm plans — same cache, same and different structures — are free *)
  ignore (Eval.count ~cache q d);
  ignore (Eval.count ~cache q d');
  Alcotest.(check (list int)) "cache hits leave the counters alone"
    [ 0; 0; 0; 0 ]
    (List.map2 ( - ) (selection_counters ()) after_first);
  let misses = (Eval.cache_stats cache).Eval.plan_misses in
  Alcotest.(check int) "counters advanced once per plan miss" misses
    (List.fold_left ( + ) 0 (List.map2 ( - ) (selection_counters ()) before))

(* ------------------------------------------------------------------ *)
(* Plans keyed by shape, constants as parameters                       *)
(* ------------------------------------------------------------------ *)

(* A graph whose vertices are named constants: [vK] has out-degree
   [degree K]. *)
let pinned_graph n degree =
  let v k = Value.sym (Printf.sprintf "v%d" k) in
  let d =
    List.fold_left
      (fun d k -> Structure.declare_constant d (Printf.sprintf "v%d" k))
      (Structure.empty (Schema.make [ e ]))
      (List.init n Fun.id)
  in
  List.fold_left
    (fun d k ->
      List.fold_left
        (fun d j -> Structure.add_fact d e [ v k; v ((k + j + 1) mod n) ])
        d
        (List.init (degree k) Fun.id))
    d (List.init n Fun.id)

let pin k = Build.(query [ atom e [ c (Printf.sprintf "v%d" k); v "q" ] ])

(* [E('v1',x) & E('v2',y)] factors into two components of one shape:
   one plan, two memo slots, and the product of the two out-degrees. *)
let test_shape_two_memo_slots () =
  let d = pinned_graph 5 (fun k -> k + 1) in
  let q = Build.(query [ atom e [ c "v1"; v "x" ]; atom e [ c "v2"; v "y" ] ]) in
  let cache = Eval.create_cache () in
  Alcotest.(check int) "deg(v1) * deg(v2)" 6 (Nat.to_int (Eval.count ~cache q d));
  Alcotest.(check int) "reference" 6 (Solver_ref.count q d);
  let s = Eval.cache_stats cache in
  Alcotest.(check (pair int int)) "one plan for the shape" (1, 1)
    (s.Eval.plan_misses, s.Eval.plan_hits);
  Alcotest.(check int) "two memo slots" 2 s.Eval.count_misses

(* 250 pinned vertices through one cache: one plan miss, every count the
   pinned vertex's out-degree. *)
let test_shape_one_plan_for_many_pins () =
  let degree k = 1 + (k mod 4) in
  let d = pinned_graph 250 degree in
  let cache = Eval.create_cache () in
  for k = 0 to 249 do
    Alcotest.(check int) (Printf.sprintf "deg(v%d)" k) (degree k)
      (Nat.to_int (Eval.count ~cache (pin k) d))
  done;
  Alcotest.(check int) "one plan miss" 1 (Eval.cache_stats cache).Eval.plan_misses

(* A constant the structure leaves uninterpreted answers zero before any
   tick, also when its shape's plan is warm. *)
let test_shape_uninterpreted_zero_ticks () =
  let d = pinned_graph 4 (fun _ -> 2) in
  let cache = Eval.create_cache () in
  Alcotest.(check int) "warm the shape" 2 (Nat.to_int (Eval.count ~cache (pin 1) d));
  let b = Budget.unlimited () in
  Alcotest.(check int) "uninterpreted" 0 (Nat.to_int (Eval.count ~budget:b ~cache (pin 9) d));
  Alcotest.(check int) "no tick" 0 (Budget.ticks b)

(* The same query with its constants permuted has the same shape when its
   atoms keep their order: counting both through one cache runs one plan
   with two parameter vectors, and each count equals the reference. *)
let permute_constants q =
  let swap = function
    | Term.Cst "a" -> Term.cst "c"
    | Term.Cst "b" -> Term.cst "a"
    | Term.Cst "c" -> Term.cst "b"
    | t -> t
  in
  Query.make
    ~neqs:(List.map (fun (x, y) -> (swap x, swap y)) (Query.neqs q))
    (List.map (fun a -> Atom.of_array (Atom.sym a) (Array.map swap (Atom.args a))) (Query.atoms q))

let prop_shape_plans_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"shape-keyed plans: Eval.count = reference on permuted constants"
       ~count:1000 gen_wide_pair (fun (q, d) ->
         let cache = Eval.create_cache () in
         List.for_all
           (fun q -> Nat.equal (Eval.count ~cache q d) (Nat.of_int (Solver_ref.count q d)))
           [ q; permute_constants q; permute_constants (permute_constants q); q ]))

(* An atom scan with a constant reads that constant's run: one tick on
   entry and one per row of the run, where the whole relation has six
   rows. *)
let scan_db =
  let d = db_of_edges [ (1, 2); (1, 3); (1, 4); (2, 1); (3, 3); (4, 1) ] in
  Structure.bind_constant (Structure.bind_constant d "k" (Value.int 1)) "m" (Value.int 3)

let scan_pin q ~count ~ticks () =
  (match Decomp.factor q with
  | [ (c, 1) ] -> (
      match Decomp.choose c with
      | Decomp.Dp _ -> ()
      | _ -> Alcotest.fail "an acyclic atom takes the join-tree DP")
  | _ -> Alcotest.fail "one component");
  let b = Budget.unlimited () in
  Alcotest.(check int) "count" count (Nat.to_int (Eval.count ~budget:b q scan_db));
  Alcotest.(check int) "reference" count (Solver_ref.count q scan_db);
  Alcotest.(check int) "ticks" ticks (Budget.ticks b)

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        [
          prop_count_matches_reference;
          prop_enumerate_matches_reference;
          prop_cached_eval_matches_uncached;
          prop_prepared_matches_reference;
          prop_eval_matches_reference;
          prop_choose_never_backtracks;
          prop_power_matches_reference;
          prop_acyclic_dp_matches_reference;
          prop_factor_matches_oracle;
        ] );
      ( "planner",
        [
          Alcotest.test_case "θ↑k factors into one component x k" `Quick
            test_factor_groups_powers;
          Alcotest.test_case "acyclic/cyclic/neq classification" `Quick
            test_classification;
          Alcotest.test_case "DP ticks the budget" `Quick test_dp_ticks_budget;
          Alcotest.test_case "plan_* counters count cold plans only" `Quick
            test_selection_counters_count_cold_plans_only;
        ] );
      ( "plan-and-index",
        [
          Alcotest.test_case "index memoised per structure" `Quick test_index_is_memoised;
          Alcotest.test_case "index fresh after update" `Quick test_index_fresh_after_update;
          Alcotest.test_case "uninterpreted constant" `Quick
            test_uninterpreted_constant_counts_zero;
          Alcotest.test_case "plan reused across structures" `Quick
            test_plan_reuse_across_structures;
          Alcotest.test_case "neq between constants" `Quick test_neq_between_constants;
        ] );
      ("probe-ticks", probe_pins);
      ( "eval-cache",
        [
          Alcotest.test_case "invalidated on structure change" `Quick
            test_cache_invalidated_on_structure_change;
          Alcotest.test_case "prepared: memo per structure" `Quick
            test_prepared_memo_per_structure;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "two components of one shape: two memo slots" `Quick
            test_shape_two_memo_slots;
          Alcotest.test_case "250 pinned vertices: one plan miss" `Quick
            test_shape_one_plan_for_many_pins;
          Alcotest.test_case "uninterpreted constant: zero in zero ticks" `Quick
            test_shape_uninterpreted_zero_ticks;
          prop_shape_plans_match_reference;
          Alcotest.test_case "bound scan: E('k',q) reads the run of k" `Quick
            (scan_pin Build.(query [ atom e [ c "k"; v "q" ] ]) ~count:3 ~ticks:4);
          Alcotest.test_case "bound scan: E(q,'k') reads the run of k" `Quick
            (scan_pin Build.(query [ atom e [ v "q"; c "k" ] ]) ~count:2 ~ticks:3);
          Alcotest.test_case "bound scan: E('k','m') reads the run of k" `Quick
            (scan_pin Build.(query [ atom e [ c "k"; c "m" ] ]) ~count:1 ~ticks:4);
        ] );
    ]
