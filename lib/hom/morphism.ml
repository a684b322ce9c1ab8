open Bagcq_relational
open Bagcq_cq
module StringMap = Map.Make (String)
module TermSet = Term.Set

type hom = Term.t StringMap.t

let apply h = function
  | Term.Var x as t -> ( match StringMap.find_opt x h with Some t' -> t' | None -> t)
  | Term.Cst _ as t -> t

let orient (a, b) = if Term.compare a b <= 0 then (a, b) else (b, a)

let is_hom h source target =
  let target_atoms = Atom.Set.of_list (Query.atoms target) in
  let atoms_ok =
    List.for_all
      (fun a -> Atom.Set.mem (Atom.substitute (fun x -> StringMap.find_opt x h) a) target_atoms)
      (Query.atoms source)
  in
  let neq_ok (a, b) =
    let a' = apply h a and b' = apply h b in
    match (a', b') with
    | Term.Cst x, Term.Cst y -> not (String.equal x y)
    | _ ->
        List.exists
          (fun p ->
            let x, y = orient p in
            let x', y' = orient (a', b') in
            Term.equal x x' && Term.equal y y')
          (Query.neqs target)
  in
  atoms_ok && List.for_all neq_ok (Query.neqs source)

let terms_of q =
  TermSet.union
    (TermSet.of_list (List.map Term.var (Query.vars q)))
    (TermSet.of_list (List.map Term.cst (Query.constants q)))

let is_onto h source target =
  let image = TermSet.map (apply h) (terms_of source) in
  TermSet.subset (terms_of target) image

let term_of_value = function
  | Value.Sym s when String.length s > 0 && s.[0] = '$' ->
      Term.var (String.sub s 1 (String.length s - 1))
  | Value.Sym s -> Term.cst s
  | v -> Term.var (Value.to_string v)

let hom_of_assignment (a : Wcoj.assignment) : hom = StringMap.map term_of_value a

exception Found of hom

(* The first homomorphism [source → d] (if any) satisfying [accept],
   found on the leapfrog, which stops at the hit. *)
let first ?budget ?(accept = fun _ -> true) source d =
  try
    Wcoj.iter ?budget
      (fun a ->
        let h = hom_of_assignment a in
        if accept h then raise_notrace (Found h))
      (Wcoj.compile source) d;
    None
  with Found h -> Some h

let find_hom source target = first source (Query.canonical_structure target)

let exists_onto_hom source target =
  first ~accept:(fun h -> is_onto h source target) source
    (Query.canonical_structure target)
  <> None

let count_dominates bigger smaller = exists_onto_hom bigger smaller

let multiset_symbols q =
  List.sort compare (List.map (fun a -> Symbol.name (Atom.sym a)) (Query.atoms q))

(* A binary symbol no atom of [q1] or [q2] uses, for their inequalities. *)
let fresh_binary q1 q2 =
  let used = List.map (fun a -> Symbol.name (Atom.sym a)) (Query.atoms q1 @ Query.atoms q2) in
  let rec fresh n = if List.mem n used then fresh (n ^ "'") else n in
  Symbol.make (fresh "!=") 2

(* [q]'s inequalities written as atoms of [sym], one per orientation, so a
   homomorphism must carry each onto an inequality of the target, and a
   variable occurring only in inequalities is bound like any other. *)
let neq_atoms sym q =
  Query.atoms q
  @ List.concat_map (fun (a, b) -> [ Atom.make sym [ a; b ]; Atom.make sym [ b; a ] ]) (Query.neqs q)

let isomorphic ?budget q1 q2 =
  Query.num_vars q1 = Query.num_vars q2
  && Query.num_atoms q1 = Query.num_atoms q2
  && Query.num_neqs q1 = Query.num_neqs q2
  && multiset_symbols q1 = multiset_symbols q2
  && begin
       let vars2 = TermSet.of_list (List.map Term.var (Query.vars q2)) in
       let atoms2 = Atom.Set.of_list (Query.atoms q2) in
       let neqs2 =
         List.sort_uniq compare (List.map (fun p -> orient p) (Query.neqs q2))
       in
       let sym = fresh_binary q1 q2 in
       let d2 = Query.canonical_structure (Query.make (neq_atoms sym q2)) in
       let bijective h =
         let image =
           StringMap.fold (fun _ t acc -> TermSet.add t acc) h TermSet.empty
         in
         TermSet.equal image vars2
       in
       let atoms_onto h =
         let image =
           List.map (Atom.substitute (fun x -> StringMap.find_opt x h)) (Query.atoms q1)
         in
         Atom.Set.equal (Atom.Set.of_list image) atoms2
       in
       let neqs_match h =
         let image =
           List.sort_uniq compare
             (List.map (fun (a, b) -> orient (apply h a, apply h b)) (Query.neqs q1))
         in
         image = neqs2
       in
       (* Only injective maps carrying ≠ onto ≠ are walked: one ≠
          between every two variables of [q1] keeps them apart. *)
       let rec apart = function
         | [] -> []
         | x :: ys -> List.map (fun y -> (Term.var x, Term.var y)) ys @ apart ys
       in
       first ?budget
         ~accept:(fun h -> bijective h && atoms_onto h && neqs_match h)
         (Query.make ~neqs:(apart (Query.vars q1)) (neq_atoms sym q1))
         d2
       <> None
     end

let image_subquery h q =
  Query.make
    (List.map (Atom.substitute (fun x -> StringMap.find_opt x h)) (Query.atoms q))

let retract q =
  if Query.has_neqs q then invalid_arg "Morphism.retract: inequality-free CQs only";
  let n_vars = Query.num_vars q in
  let proper h =
    let image_vars =
      StringMap.fold
        (fun _ t acc ->
          match t with Term.Var x -> TermSet.add (Term.var x) acc | Term.Cst _ -> acc)
        h TermSet.empty
    in
    TermSet.cardinal image_vars < n_vars
  in
  Option.map
    (fun h -> image_subquery h q)
    (first ~accept:proper q (Query.canonical_structure q))

let rec core q = match retract q with None -> q | Some smaller -> core smaller

let set_equivalent q1 q2 =
  Eval.satisfies (Query.canonical_structure q2) q1
  && Eval.satisfies (Query.canonical_structure q1) q2
