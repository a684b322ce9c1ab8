open Bagcq_relational
module StringSet = Set.Make (String)

type t = { atoms : Atom.t list; neqs : (Term.t * Term.t) list }

(* Inequalities are stored with their two sides in Term order, so that
   syntactic equality is orientation-insensitive. *)
let orient (a, b) = if Term.compare a b <= 0 then (a, b) else (b, a)

let make ?(neqs = []) atoms =
  List.iter
    (fun (a, b) ->
      if Term.equal a b then
        invalid_arg
          (Printf.sprintf "Query.make: reflexive inequality %s != %s" (Term.to_string a)
             (Term.to_string b)))
    neqs;
  let atoms = List.sort_uniq Atom.compare atoms in
  let neqs =
    List.sort_uniq
      (fun (a, b) (c, d) ->
        match Term.compare a c with 0 -> Term.compare b d | cmp -> cmp)
      (List.map orient neqs)
  in
  { atoms; neqs }

let true_query = { atoms = []; neqs = [] }
let atoms q = q.atoms
let neqs q = q.neqs

let var_set q =
  let from_atoms =
    List.fold_left
      (fun acc a -> List.fold_left (fun acc x -> StringSet.add x acc) acc (Atom.vars a))
      StringSet.empty q.atoms
  in
  List.fold_left
    (fun acc (a, b) ->
      let add t acc = match t with Term.Var x -> StringSet.add x acc | Term.Cst _ -> acc in
      add a (add b acc))
    from_atoms q.neqs

let vars q = StringSet.elements (var_set q)

let constants q =
  let from_atoms =
    List.fold_left
      (fun acc a -> List.fold_left (fun acc c -> StringSet.add c acc) acc (Atom.constants a))
      StringSet.empty q.atoms
  in
  let all =
    List.fold_left
      (fun acc (a, b) ->
        let add t acc = match t with Term.Cst c -> StringSet.add c acc | Term.Var _ -> acc in
        add a (add b acc))
      from_atoms q.neqs
  in
  StringSet.elements all

let schema q =
  let syms = List.map Atom.sym q.atoms in
  Schema.make ~constants:(constants q) (List.sort_uniq Symbol.compare syms)

let num_atoms q = List.length q.atoms
let num_vars q = StringSet.cardinal (var_set q)
let num_neqs q = List.length q.neqs
let has_neqs q = q.neqs <> []
let strip_neqs q = { q with neqs = [] }

let conj a b = make ~neqs:(a.neqs @ b.neqs) (a.atoms @ b.atoms)

let rename_vars f q =
  make
    ~neqs:(List.map (fun (a, b) -> (Term.rename f a, Term.rename f b)) q.neqs)
    (List.map (Atom.rename f) q.atoms)

let rename_apart ~avoid q =
  let taken = ref (var_set avoid) in
  let mapping = Hashtbl.create 16 in
  let fresh x =
    match Hashtbl.find_opt mapping x with
    | Some y -> y
    | None ->
        let y =
          if not (StringSet.mem x !taken) then x
          else begin
            let rec try_suffix i =
              let cand = Printf.sprintf "%s~%d" x i in
              if StringSet.mem cand !taken then try_suffix (i + 1) else cand
            in
            try_suffix 1
          end
        in
        taken := StringSet.add y !taken;
        Hashtbl.add mapping x y;
        y
  in
  (* own variables must not collide either: register them as taken lazily by
     walking all vars of q through [fresh] *)
  rename_vars fresh q

let dconj a b = conj a (rename_apart ~avoid:a b)

let power q k =
  if k < 0 then invalid_arg "Query.power: negative exponent";
  let rec go acc k = if k = 0 then acc else go (dconj acc q) (k - 1) in
  go true_query k

let value_of_term = function
  | Term.Var x -> Value.of_var x
  | Term.Cst c -> Value.sym c

let canonical_structure q =
  let base = Structure.empty (schema q) in
  let with_consts = List.fold_left Structure.declare_constant base (constants q) in
  List.fold_left
    (fun acc a ->
      Structure.add_atom acc (Atom.sym a) (Array.map value_of_term (Atom.args a)))
    with_consts q.atoms

let of_structure d =
  (* invert the constant interpretation: an element that is the image of a
     constant becomes that constant; everything else becomes a variable
     named after the element *)
  let const_of =
    List.fold_left
      (fun acc c ->
        match Structure.interpretation d c with
        | Some v -> Value.Map.add v c acc
        | None -> acc)
      Value.Map.empty
      (Schema.constants (Structure.schema d))
  in
  let term_of v =
    match Value.Map.find_opt v const_of with
    | Some c -> Term.cst c
    | None -> (
        match v with
        | Value.Sym s when String.length s > 0 && s.[0] = '$' ->
            Term.var (String.sub s 1 (String.length s - 1))
        | v -> Term.var (Value.to_string v))
  in
  let atoms =
    Structure.fold_atoms
      (fun sym tup acc -> Atom.of_array sym (Array.map term_of tup) :: acc)
      d []
  in
  make atoms

let compare a b =
  match List.compare Atom.compare a.atoms b.atoms with
  | 0 ->
      List.compare
        (fun (x, y) (x', y') ->
          match Term.compare x x' with 0 -> Term.compare y y' | c -> c)
        a.neqs b.neqs
  | c -> c

let equal a b = compare a b = 0

(* Union–find over variables; each atom/inequality merges its variables.
   Then group atoms by the root of (any of) their variables. *)
let components q =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some None -> x
    | Some (Some p) ->
        let r = find p in
        Hashtbl.replace parent x (Some r);
        r
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then Hashtbl.replace parent rx (Some ry)
  in
  let register x = if not (Hashtbl.mem parent x) then Hashtbl.add parent x None in
  let merge_vars = function
    | [] -> ()
    | x :: rest ->
        register x;
        List.iter
          (fun y ->
            register y;
            union x y)
          rest
  in
  List.iter (fun a -> merge_vars (Atom.vars a)) q.atoms;
  List.iter
    (fun (a, b) ->
      let vs =
        List.filter_map (function Term.Var x -> Some x | Term.Cst _ -> None) [ a; b ]
      in
      merge_vars vs)
    q.neqs;
  let groups : (string, t ref) Hashtbl.t = Hashtbl.create 16 in
  let singletons = ref [] in
  let add_to key piece =
    match Hashtbl.find_opt groups key with
    | Some cell -> cell := conj !cell piece
    | None -> Hashtbl.add groups key (ref piece)
  in
  List.iter
    (fun a ->
      match Atom.vars a with
      | [] -> singletons := make [ a ] :: !singletons
      | x :: _ -> add_to (find x) (make [ a ]))
    q.atoms;
  List.iter
    (fun (a, b) ->
      let piece = make ~neqs:[ (a, b) ] [] in
      match
        List.filter_map (function Term.Var x -> Some x | Term.Cst _ -> None) [ a; b ]
      with
      | [] -> singletons := piece :: !singletons
      | x :: _ -> add_to (find x) piece)
    q.neqs;
  let grouped = Hashtbl.fold (fun _ cell acc -> !cell :: acc) groups [] in
  List.sort compare (grouped @ !singletons)

let pp fmt q =
  if q.atoms = [] && q.neqs = [] then Format.pp_print_string fmt "true"
  else begin
    let pp_neq fmt (a, b) = Format.fprintf fmt "%a != %a" Term.pp a Term.pp b in
    let sep fmt () = Format.fprintf fmt " &@ " in
    Format.fprintf fmt "@[<hov>%a" (Format.pp_print_list ~pp_sep:sep Atom.pp) q.atoms;
    if q.atoms <> [] && q.neqs <> [] then sep fmt ();
    Format.fprintf fmt "%a@]" (Format.pp_print_list ~pp_sep:sep pp_neq) q.neqs
  end

(* The flat printer: [pp]'s text with every break a single space, built in
   one buffer with no Format boxes.  It is the one text of a query that
   keys the result memo, the store's registrations and, with constants
   replaced by their slots, the plan map. *)
let add_term b = function
  | Term.Var x -> Buffer.add_string b x
  | Term.Cst c ->
      Buffer.add_char b '\'';
      Buffer.add_string b c;
      Buffer.add_char b '\''

let add_flat ?(term = add_term) b q =
  if q.atoms = [] && q.neqs = [] then Buffer.add_string b "true"
  else begin
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_string b " & " in
    List.iter
      (fun a ->
        sep ();
        Buffer.add_string b (Symbol.name (Atom.sym a));
        Buffer.add_char b '(';
        Array.iteri
          (fun i t ->
            if i > 0 then Buffer.add_char b ',';
            term b t)
          (Atom.args a);
        Buffer.add_char b ')')
      q.atoms;
    List.iter
      (fun (x, y) ->
        sep ();
        term b x;
        Buffer.add_string b " != ";
        term b y)
      q.neqs
  end

let to_string q =
  let b = Buffer.create 64 in
  add_flat b q;
  Buffer.contents b

let constant_slots q =
  let seen = ref [] in
  let add = function
    | Term.Cst c when not (List.mem c !seen) -> seen := c :: !seen
    | Term.Var _ | Term.Cst _ -> ()
  in
  List.iter (fun a -> Array.iter add (Atom.args a)) q.atoms;
  List.iter
    (fun (x, y) ->
      add x;
      add y)
    q.neqs;
  Array.of_list (List.rev !seen)
