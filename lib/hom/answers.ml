open Bagcq_bignum
open Bagcq_relational
open Bagcq_cq
module StringMap = Map.Make (String)
module StringSet = Set.Make (String)

type bag = Nat.t Tuple.Map.t

let empty_bag : bag = Tuple.Map.empty

let add_tuple tup n bag =
  Tuple.Map.update tup
    (function None -> Some n | Some m -> Some (Nat.add m n))
    bag

let answers ~head q d =
  (* head variables absent from the body range over the whole domain: each
     contributes independently, so group body homomorphisms by the bound
     part of the head and distribute the free part afterwards *)
  let body_vars = StringSet.of_list (Query.vars q) in
  let free_head_vars =
    List.filter_map
      (function
        | Term.Var x when not (StringSet.mem x body_vars) -> Some x
        | Term.Var _ | Term.Cst _ -> None)
      head
    |> List.sort_uniq String.compare
  in
  let domain = Value.Set.elements (Structure.domain d) in
  let interp c = Structure.interpretation d c in
  (* enumerate assignments for the free head variables *)
  let rec free_assignments vars acc =
    match vars with
    | [] -> [ acc ]
    | x :: rest ->
        List.concat_map (fun v -> free_assignments rest (StringMap.add x v acc)) domain
  in
  let frees = free_assignments free_head_vars StringMap.empty in
  let project env free =
    (* None when a head constant is uninterpreted *)
    let rec go acc = function
      | [] -> Some (Tuple.make (List.rev acc))
      | Term.Cst c :: rest -> (
          match interp c with Some v -> go (v :: acc) rest | None -> None)
      | Term.Var x :: rest -> (
          match StringMap.find_opt x env with
          | Some v -> go (v :: acc) rest
          | None -> (
              match StringMap.find_opt x free with
              | Some v -> go (v :: acc) rest
              | None -> None))
    in
    go [] head
  in
  let bag = ref empty_bag in
  Wcoj.iter
    (fun env ->
      bag :=
        List.fold_left
          (fun bag free ->
            match project env free with
            | Some tup -> add_tuple tup Nat.one bag
            | None -> bag)
          !bag frees)
    (Wcoj.compile q) d;
  !bag

let cardinal bag = Tuple.Map.fold (fun _ n acc -> Nat.add acc n) bag Nat.zero
let support bag = List.map fst (Tuple.Map.bindings bag)
let multiplicity bag tup = Option.value ~default:Nat.zero (Tuple.Map.find_opt tup bag)

let included small big =
  Tuple.Map.for_all (fun tup n -> Nat.compare n (multiplicity big tup) <= 0) small

let equal a b = Tuple.Map.equal Nat.equal a b

let contained_on ~head_small ~head_big ~small ~big d =
  if List.length head_small <> List.length head_big then
    invalid_arg "Answers.contained_on: head arity mismatch";
  included (answers ~head:head_small small d) (answers ~head:head_big big d)
