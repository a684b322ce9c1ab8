open Bagcq_bignum
open Bagcq_cq
module Eval = Bagcq_hom.Eval
module Morphism = Bagcq_hom.Morphism

let set_contains ?budget ~small ~big () =
  if Query.has_neqs small || Query.has_neqs big then
    invalid_arg "Containment.set_contains: inequality-free CQs only";
  (* Chandra–Merlin: the canonical structure of [small] satisfies [small];
     containment holds iff it also satisfies [big] *)
  Eval.satisfies ?budget (Query.canonical_structure small) big

let bag_equivalent ?budget q1 q2 = Morphism.isomorphic ?budget q1 q2

let bag_counts ?budget ?cache ~small ~big d =
  (Eval.count ?budget ?cache small d, Eval.count ?budget ?cache big d)

let bag_violation ?budget ?cache ~small ~big d =
  let cs, cb = bag_counts ?budget ?cache ~small ~big d in
  Nat.compare cs cb > 0

(* UCQ containment.  Set semantics is decidable (Sagiv–Yannakakis); the
   counters are registered eagerly so metric dumps always show the family. *)

module Metrics = Bagcq_obs.Metrics

let ucq_contain_checks = Metrics.counter Metrics.global "ucq_contain_checks"
let ucq_hom_checks = Metrics.counter Metrics.global "ucq_hom_checks"

let ucq_set_contains_counted ?budget ~small ~big () =
  if Ucq.has_neqs small || Ucq.has_neqs big then
    invalid_arg "Containment.ucq_set_contains_counted: inequality-free UCQs only";
  Metrics.incr ucq_contain_checks;
  let checks = ref 0 in
  (* Sagiv–Yannakakis: ∪ᵢ sᵢ ⊆ ∪ⱼ bⱼ iff every sᵢ is Chandra–Merlin
     contained in some bⱼ — each check one budget-ticked kernel run over
     the canonical structure of sᵢ. *)
  let verdict =
    List.for_all
      (fun s ->
        let canon = Query.canonical_structure s in
        List.exists
          (fun b ->
            incr checks;
            Metrics.incr ucq_hom_checks;
            Eval.satisfies ?budget canon b)
          (Ucq.disjuncts big))
      (Ucq.disjuncts small)
  in
  (verdict, !checks)

let ucq_bag_equivalent ?budget u1 u2 =
  (* Chaudhuri–Vardi lifted to unions: equal counts everywhere iff the
     disjuncts pair up into isomorphic couples (multisets of iso classes
     coincide).  Greedy matching is sound because isomorphism is an
     equivalence relation. *)
  let rec extract q = function
    | [] -> None
    | b :: rest when Morphism.isomorphic ?budget q b -> Some rest
    | b :: rest -> Option.map (fun r -> b :: r) (extract q rest)
  in
  let rec match_all l1 l2 =
    match (l1, l2) with
    | [], [] -> true
    | [], _ | _, [] -> false
    | q :: rest1, l2 -> (
        match extract q l2 with
        | None -> false
        | Some rest2 -> match_all rest1 rest2)
  in
  match_all (Ucq.disjuncts u1) (Ucq.disjuncts u2)

let ucq_bag_counts ?budget ?cache ~small ~big d =
  (Eval.count_ucq ?budget ?cache small d, Eval.count_ucq ?budget ?cache big d)

let ucq_bag_violation ?budget ?cache ~small ~big d =
  let cs, cb = ucq_bag_counts ?budget ?cache ~small ~big d in
  Nat.compare cs cb > 0

