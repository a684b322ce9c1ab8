(* The seed (pre-compilation) homomorphism kernel, kept verbatim as a
   reference implementation: the differential qcheck properties compare
   every count and enumeration path against it, and the bench rows check
   their counts with it.  Do not optimise this module. *)

open Bagcq_relational
module StringMap = Map.Make (String)
module StringSet = Set.Make (String)

type assignment = Value.t StringMap.t

(* A query argument after resolving constants against D's interpretation. *)
type slot =
  | Fixed of Value.t
  | V of string

exception No_hom
exception Stop

let resolve_term d = function
  | Bagcq_cq.Term.Var x -> V x
  | Bagcq_cq.Term.Cst c -> (
      match Structure.interpretation d c with
      | Some v -> Fixed v
      | None -> raise No_hom)

(* Greedy join order: always process next the atom with the most
   already-determined positions, breaking ties towards fewer candidate
   tuples.  This keeps the backtracking tree close to the join tree of the
   query and is what makes the star-shaped reduction queries cheap. *)
let order_atoms atoms counts =
  let remaining = ref atoms and bound = ref StringSet.empty and plan = ref [] in
  let determined (_, slots) =
    Array.fold_left
      (fun acc s ->
        match s with
        | Fixed _ -> acc + 1
        | V x -> if StringSet.mem x !bound then acc + 1 else acc)
      0 slots
  in
  while !remaining <> [] do
    let best =
      List.fold_left
        (fun best atom ->
          let score = (determined atom, -counts (fst atom)) in
          match best with
          | Some (_, best_score) when best_score >= score -> best
          | _ -> Some (atom, score))
        None !remaining
    in
    match best with
    | None -> assert false
    | Some (((_, slots) as atom), _) ->
        plan := atom :: !plan;
        remaining := List.filter (fun a -> a != atom) !remaining;
        Array.iter (function V x -> bound := StringSet.add x !bound | Fixed _ -> ()) slots
  done;
  List.rev !plan

let fold_internal ?budget (f : assignment -> unit) q d =
  let tick =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Bagcq_guard.Budget.tick b
  in
  try
    let atoms =
      List.map
        (fun a ->
          (Bagcq_cq.Atom.sym a, Array.map (resolve_term d) (Bagcq_cq.Atom.args a)))
        (Bagcq_cq.Query.atoms q)
    in
    let neqs =
      List.map
        (fun (a, b) -> (resolve_term d a, resolve_term d b))
        (Bagcq_cq.Query.neqs q)
    in
      (* an inequality between two fixed values either always holds (drop
         it) or never does (no homomorphisms at all) *)
      let neqs =
        List.filter
          (fun (a, b) ->
            match (a, b) with
            | Fixed x, Fixed y -> if Value.equal x y then raise_notrace No_hom else false
            | _ -> true)
          neqs
      in
      let neqs_of x =
        List.filter_map
          (fun (a, b) ->
            match (a, b) with
            | V y, other when String.equal x y -> Some other
            | other, V y when String.equal x y -> Some other
            | _ -> None)
          neqs
      in
      let atom_vars =
        List.fold_left
          (fun acc (_, slots) ->
            Array.fold_left
              (fun acc s -> match s with V x -> StringSet.add x acc | Fixed _ -> acc)
              acc slots)
          StringSet.empty atoms
      in
      let neq_vars =
        List.fold_left
          (fun acc (a, b) ->
            let add s acc = match s with V x -> StringSet.add x acc | Fixed _ -> acc in
            add a (add b acc))
          StringSet.empty neqs
      in
      let free_vars = StringSet.elements (StringSet.diff neq_vars atom_vars) in
      let plan = order_atoms atoms (fun sym -> Structure.atom_count d sym) in
      let domain = Value.Set.elements (Structure.domain d) in
      let neq_adj = Hashtbl.create 16 in
      StringSet.iter (fun x -> Hashtbl.add neq_adj x (neqs_of x)) neq_vars;
      let neq_ok env x v =
        match Hashtbl.find_opt neq_adj x with
        | None -> true
        | Some others ->
            List.for_all
              (fun other ->
                match other with
                | Fixed w -> not (Value.equal v w)
                | V y -> (
                    match StringMap.find_opt y env with
                    | Some w -> not (Value.equal v w)
                    | None -> true))
              others
      in
      let rec match_tuple slots (tup : Tuple.t) i env acc_new =
        if i = Array.length slots then Some (env, acc_new)
        else begin
          match slots.(i) with
          | Fixed v ->
              if Value.equal v tup.(i) then match_tuple slots tup (i + 1) env acc_new
              else None
          | V x -> (
              match StringMap.find_opt x env with
              | Some v ->
                  if Value.equal v tup.(i) then match_tuple slots tup (i + 1) env acc_new
                  else None
              | None ->
                  let v = tup.(i) in
                  if neq_ok env x v then
                    match_tuple slots tup (i + 1) (StringMap.add x v env) (x :: acc_new)
                  else None)
        end
      in
      let rec assign_free vars env =
        match vars with
        | [] -> f env
        | x :: rest ->
            List.iter
              (fun v ->
                tick ();
                if neq_ok env x v then assign_free rest (StringMap.add x v env))
              domain
      in
      (* when every slot of the atom is already determined, the atom is a
         membership test — crucial for rotation-heavy queries (CYCLIQ),
         where the first atom binds every variable of the component *)
      let determined slots env =
        let n = Array.length slots in
        let tup = Array.make n (Value.int 0) in
        let rec go i =
          if i = n then Some tup
          else begin
            match slots.(i) with
            | Fixed v ->
                tup.(i) <- v;
                go (i + 1)
            | V x -> (
                match StringMap.find_opt x env with
                | Some v ->
                    tup.(i) <- v;
                    go (i + 1)
                | None -> None)
          end
        in
        go 0
      in
      let rec assign_atoms plan env =
        tick ();
        match plan with
        | [] -> assign_free free_vars env
        | (sym, slots) :: rest -> (
            match determined slots env with
            | Some tup -> if Structure.mem_atom d sym tup then assign_atoms rest env
            | None ->
                Tuple.Set.iter
                  (fun tup ->
                    tick ();
                    match match_tuple slots tup 0 env [] with
                    | Some (env', _) -> assign_atoms rest env'
                    | None -> ())
                  (Structure.tuple_set d sym))
      in
      assign_atoms plan StringMap.empty
  with No_hom -> ()

let count ?budget q d =
  let n = ref 0 in
  fold_internal ?budget (fun _ -> incr n) q d;
  !n

let exists ?budget q d =
  try
    fold_internal ?budget (fun _ -> raise_notrace Stop) q d;
    false
  with Stop -> true

let enumerate ?budget ?limit q d =
  let out = ref [] and n = ref 0 in
  (try
     fold_internal ?budget
       (fun env ->
         out := env :: !out;
         incr n;
         match limit with Some l when !n >= l -> raise_notrace Stop | _ -> ())
       q d
   with Stop -> ());
  List.rev !out

let iter ?budget f q d = fold_internal ?budget f q d

let fold ?budget f init q d =
  let acc = ref init in
  fold_internal ?budget (fun env -> acc := f !acc env) q d;
  !acc
