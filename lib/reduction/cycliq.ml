open Bagcq_relational
open Bagcq_cq
open Bagcq_bignum

let r_symbol ~p =
  if p < 3 then invalid_arg "Cycliq.r_symbol: p must be >= 3";
  Symbol.make "Rcyc" p

let rotate_terms ts k =
  let n = List.length ts in
  let arr = Array.of_list ts in
  List.init n (fun i -> arr.((i + k) mod n))

let cycliq sym ts =
  if List.length ts <> Symbol.arity sym then invalid_arg "Cycliq.cycliq: arity mismatch";
  let n = List.length ts in
  Query.make (List.init n (fun k -> Atom.make sym (rotate_terms ts k)))

(* [♠,♥,…,♥]: the normal cyclique pinned by the constants in β_s *)
let spade_heart_terms p =
  Term.cst Consts.spade :: List.init (p - 1) (fun _ -> Term.cst Consts.heart)

let heart_terms p = List.init p (fun _ -> Term.cst Consts.heart)

let beta_s ~p =
  let r = r_symbol ~p in
  let free stem = Build.vars stem p in
  Query.conj
    (Query.conj (cycliq r (free "x")) (cycliq r (free "y")))
    (Query.conj (cycliq r (heart_terms p)) (cycliq r (spade_heart_terms p)))

let beta_b ~p =
  let r = r_symbol ~p in
  let xs = Build.vars "x" p and ys = Build.vars "y" p in
  Query.make
    ~neqs:[ (List.hd xs, List.hd ys) ]
    (Query.atoms (Query.conj (cycliq r xs) (cycliq r ys)))

let ratio ~p = Rat.make ((p + 1) * (p + 1)) (2 * p)

let witness ~p =
  let q = Query.conj (cycliq (r_symbol ~p) (heart_terms p)) (cycliq (r_symbol ~p) (spade_heart_terms p)) in
  let d = Query.canonical_structure q in
  let d = Structure.declare_constant d Consts.heart in
  Structure.declare_constant d Consts.spade

type kind =
  | Homogeneous
  | Degenerate
  | Normal

let cyclass tup =
  let n = Tuple.arity tup in
  let shifts = List.init n (fun k -> Tuple.rotate tup k) in
  Tuple.Set.elements (Tuple.Set.of_list shifts)

let classify tup =
  let size = List.length (cyclass tup) in
  if size = 1 then Homogeneous else if size < Tuple.arity tup then Degenerate else Normal

let cycliques d sym =
  List.filter
    (fun tup -> List.for_all (fun shift -> Structure.mem_atom d sym shift) (cyclass tup))
    (Structure.tuples d sym)

let cyclasses d sym =
  let all = Tuple.Set.of_list (cycliques d sym) in
  let rec group seen acc = function
    | [] -> List.rev acc
    | tup :: rest ->
        if Tuple.Set.mem tup seen then group seen acc rest
        else begin
          let cls = List.filter (fun t -> Tuple.Set.mem t all) (cyclass tup) in
          let seen = List.fold_left (fun s t -> Tuple.Set.add t s) seen cls in
          group seen (cls :: acc) rest
        end
  in
  group Tuple.Set.empty [] (Tuple.Set.elements all)

let diff_fraction xs ys =
  let diff =
    List.fold_left
      (fun acc x ->
        List.fold_left
          (fun acc y ->
            if Value.equal (Tuple.get x 0) (Tuple.get y 0) then acc else acc + 1)
          acc ys)
      0 xs
  in
  (diff, List.length xs * List.length ys)

type lemma9_case = {
  label : string;
  diff : int;
  total : int;
  bound_holds : bool;
}

let make_case ~p label xs ys =
  let diff, total = diff_fraction xs ys in
  { label; diff; total; bound_holds = diff * (p + 1) * (p + 1) >= 2 * p * total }

let lemma9_cases ~p d =
  let sym = r_symbol ~p in
  match (Structure.interpretation d Consts.heart, Structure.interpretation d Consts.spade) with
  | Some heart, Some spade when not (Value.equal heart spade) ->
      let heart_tuple = Tuple.make (List.init p (fun _ -> heart)) in
      let spade_tuple =
        Tuple.make (spade :: List.init (p - 1) (fun _ -> heart))
      in
      let all_classes = cyclasses d sym in
      let mem_class tup cls = List.exists (Tuple.equal tup) cls in
      if
        (not (List.exists (mem_class heart_tuple) all_classes))
        || not (List.exists (mem_class spade_tuple) all_classes)
      then None
      else begin
        let h =
          List.concat_map (fun cls -> if List.length cls = 1 then cls else []) all_classes
        in
        let g = List.find (mem_class spade_tuple) all_classes in
        let degenerate cls = classify (List.hd cls) = Degenerate in
        let normal cls = classify (List.hd cls) = Normal in
        let gh = g @ h in
        let cases = ref [] in
        (* (a): X degenerate, Y any cyclass *)
        List.iter
          (fun x ->
            if degenerate x then
              List.iter
                (fun y -> cases := make_case ~p "(a) degenerate" x y :: !cases)
                all_classes)
          all_classes;
        (* (b): X = Y = G ∪ H *)
        cases := make_case ~p "(b) G∪H" gh gh :: !cases;
        (* (c): distinct normal cyclasses *)
        List.iteri
          (fun i x ->
            List.iteri
              (fun j y ->
                if i < j && normal x && normal y then
                  cases := make_case ~p "(c) two normals" x y :: !cases)
              all_classes)
          all_classes;
        (* (d): X normal, X ≠ G, within X ∪ H *)
        List.iter
          (fun x ->
            if normal x && not (x == g) then begin
              let xh = x @ h in
              cases := make_case ~p "(d) X∪H" xh xh :: !cases
            end)
          all_classes;
        Some (List.rev !cases)
      end
  | _ -> None

let lemma9_partition_is_exact ~p d =
  (* count unordered cyclique pairs covered by the four events; they must
     cover each pair exactly once.  Events in unordered terms:
     (a) {c,c'} with min one from a degenerate class (other side any class,
         counted once per unordered pair);
     (b) both in G∪H;
     (c) one in normal X, other in distinct normal Y (neither degenerate);
     (d) both in X∪H for the normal class X ∌ G of the non-H element(s). *)
  let sym = r_symbol ~p in
  match (Structure.interpretation d Consts.heart, Structure.interpretation d Consts.spade) with
  | Some heart, Some spade when not (Value.equal heart spade) -> (
      let spade_tuple = Tuple.make (spade :: List.init (p - 1) (fun _ -> heart)) in
      let all_classes = cyclasses d sym in
      let mem_class tup cls = List.exists (Tuple.equal tup) cls in
      match List.find_opt (mem_class spade_tuple) all_classes with
      | None -> true
      | Some g ->
          let class_of tup = List.find (mem_class tup) all_classes in
          let kind tup = classify tup in
          let in_h tup = kind tup = Homogeneous in
          let in_g tup = mem_class tup g in
          let cycliques_list = List.concat all_classes in
          let covering c1 c2 =
            let deg t = kind t = Degenerate in
            let cases = ref 0 in
            if deg c1 || deg c2 then incr cases;
            if (in_g c1 || in_h c1) && (in_g c2 || in_h c2) then incr cases;
            (* (c): distinct normal classes, neither being... (c) is about
               two distinct normal cyclasses — G is normal too *)
            if
              kind c1 = Normal && kind c2 = Normal
              && not (class_of c1 == class_of c2)
              && not (in_g c1 && in_g c2)
            then begin
              (* exclude pairs already counted by (d)-style grouping:
                 (c) applies when the two classes are distinct normals,
                 except that pairing a normal X≠G with H is case (d) and
                 pairing anything with G's class is (c) or (b) *)
              incr cases
            end;
            (* (d): both in X ∪ H where X is the normal class ≠ G of the
               non-homogeneous member(s) *)
            let d_case =
              if in_h c1 && in_h c2 then false (* that is (b) *)
              else begin
                let xs =
                  List.filter (fun c -> not (in_h c)) [ c1; c2 ]
                  |> List.map class_of
                in
                match xs with
                | [ x ] -> kind (List.hd x) = Normal && not (x == g)
                | [ x; y ] -> x == y && kind (List.hd x) = Normal && not (x == g)
                | _ -> false
              end
            in
            if d_case then incr cases;
            !cases = 1
          in
          List.for_all
            (fun c1 -> List.for_all (fun c2 -> covering c1 c2) cycliques_list)
            cycliques_list)
  | _ -> true
