open Bagcq_cq
module Metrics = Bagcq_obs.Metrics
module StringSet = Set.Make (String)

(* Resolved once at module initialisation so the cell is present (at zero)
   in every metrics dump — the check.sh contract.  The module is always
   linked: [Decomp.strategy] carries a [Ghd.t].  [ghd_runs] and
   [ghd_bag_rows] belong to the bag join, in [Jtree]. *)
let plans_built = Metrics.counter Metrics.global "ghd_plans_built"

(* One bag of a generalised hypertree decomposition.  [b_chi] is χ(B) —
   the bag's variables, sorted.  [b_cover] is λ(B) — atoms whose variables
   jointly cover χ(B); they may mention variables outside χ(B), which is
   the "generalised" part.  [b_atoms] is the full join the bag
   materialises — λ(B) plus every query atom assigned to this bag — in
   the backtracking join order [bagcq explain] reports.  [b_key] indexes
   into [b_chi]: the positions of χ(B) ∩ χ(parent), the DP interface. *)
type bag = {
  b_chi : string array;
  b_cover : Atom.t array;
  b_atoms : Atom.t array;
  b_key : int array;
  b_children : bag list;
}

type t = { g_root : bag; g_width : int; g_nbags : int; g_dp : Jtree.t }

let width g = g.g_width
let nbags g = g.g_nbags
let root g = g.g_root
let jtree g = g.g_dp
let bag_vars b = Array.to_list b.b_chi
let bag_cover b = Array.to_list b.b_cover
let bag_atoms b = Array.to_list b.b_atoms
let bag_key b = List.map (fun i -> b.b_chi.(i)) (Array.to_list b.b_key)
let bag_children b = b.b_children

(* ------------------------- decomposition search ----------------------- *)

(* The search runs on the query's variable graph — one vertex per
   variable, a clique per atom — through the classic elimination-order
   route: eliminating vertex [v] forms the bag {v} ∪ N(v) and turns N(v)
   into a clique, and the max bag size over the order minus one is the
   width of the resulting tree decomposition.  Every atom is a clique, so
   every atom fits inside some bag; covering each bag's χ with at most
   [max_cover] atoms then yields a GHD whose width is the max cover size.

   For small queries (≤ 8 atoms, and hence a small variable graph) the
   order is *exact*: a Held–Karp-style subset DP over elimination
   prefixes, using the fact that the degree of [v] eliminated after the
   prefix [S] is the number of vertices outside [S ∪ {v}] reachable from
   [v] through [S] — no fill edges need materialising.  Larger queries
   fall back to a greedy min-degree order with a min-fill tiebreak;
   min-degree alone is already exact on treewidth ≤ 2 graphs (a tw≤2
   graph always has a vertex of degree ≤ 2 whose elimination leaves a
   tw≤2 minor), which is the width regime the cost model sends here. *)

let exact_max_vars = 12

(* Exact elimination order by subset DP.  [q_count adj s v] is the degree
   of [v] when eliminated right after the prefix set [s] (a bitmask):
   vertices outside [s], other than [v], reachable from [v] through [s]. *)
let q_count adj n s v =
  let seen = Array.make n false in
  let count = ref 0 in
  let rec visit u =
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          if s land (1 lsl w) <> 0 then visit w
          else incr count
        end)
      adj.(u)
  in
  seen.(v) <- true;
  visit v;
  !count

let exact_order adj n =
  let full = (1 lsl n) - 1 in
  let cost = Array.make (full + 1) 0 in
  let pick = Array.make (full + 1) (-1) in
  for s = 1 to full do
    let best = ref max_int and best_v = ref (-1) in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        let s' = s lxor (1 lsl v) in
        let c = max cost.(s') (q_count adj n s' v) in
        if c < !best then begin
          best := c;
          best_v := v
        end
      end
    done;
    cost.(s) <- !best;
    pick.(s) <- !best_v
  done;
  let order = Array.make n 0 in
  let s = ref full in
  for i = n - 1 downto 0 do
    order.(i) <- pick.(!s);
    s := !s lxor (1 lsl pick.(!s))
  done;
  order

(* Greedy min-degree order, min-fill then vertex index as tiebreaks, on a
   mutable copy of the graph (fill edges are materialised as we go). *)
let greedy_order adj n =
  let nbr = Array.map (fun l -> List.fold_left (fun s w -> s lor (1 lsl w)) 0 l) adj in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  let alive = ref ((1 lsl n) - 1) in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref None in
    for v = 0 to n - 1 do
      if !alive land (1 lsl v) <> 0 then begin
        let ns = nbr.(v) land !alive in
        let deg = popcount ns in
        (* fill edges needed to clique-ify v's live neighbourhood *)
        let fill = ref 0 in
        for u = 0 to n - 1 do
          if ns land (1 lsl u) <> 0 then
            fill := !fill + popcount (ns land lnot nbr.(u) land lnot (1 lsl u))
        done;
        let score = (deg, !fill, v) in
        match !best with
        | Some (_, s) when s <= score -> ()
        | _ -> best := Some (v, score)
      end
    done;
    let v, _ = Option.get !best in
    let ns = nbr.(v) land !alive in
    for u = 0 to n - 1 do
      if ns land (1 lsl u) <> 0 then nbr.(u) <- nbr.(u) lor (ns land lnot (1 lsl u))
    done;
    alive := !alive lxor (1 lsl v);
    order := v :: !order
  done;
  Array.of_list (List.rev !order)

(* A raw decomposition node before cover search: χ as a variable set,
   parent index (or -1 for the root). *)
type raw = { mutable r_chi : StringSet.t; mutable r_parent : int; mutable r_dead : bool }

let max_cover = 3

(* Smallest λ ⊆ atoms with χ ⊆ vars(λ), searched exhaustively over
   singletons, pairs, and triples; among equal sizes, prefer covers
   introducing the fewest variables outside χ (cheaper bag joins), then
   lexicographic atom order for determinism.  None when three atoms do
   not suffice — the planner then refuses the decomposition. *)
let find_cover (atom_sets : (Atom.t * StringSet.t) array) chi =
  let m = Array.length atom_sets in
  let extra cover =
    List.fold_left
      (fun acc (_, s) -> acc + StringSet.cardinal (StringSet.diff s chi))
      0 cover
  in
  let covers cover =
    let u =
      List.fold_left (fun acc (_, s) -> StringSet.union acc s) StringSet.empty cover
    in
    StringSet.subset chi u
  in
  let best = ref None in
  let consider ids =
    let cover = List.map (fun i -> atom_sets.(i)) ids in
    if covers cover then begin
      let score = (List.length cover, extra cover, ids) in
      match !best with
      | Some (_, s) when s <= score -> ()
      | _ -> best := Some (List.map fst cover, score)
    end
  in
  for i = 0 to m - 1 do
    consider [ i ]
  done;
  if !best = None then
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        consider [ i; j ]
      done
    done;
  if !best = None && max_cover >= 3 then
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        for k = j + 1 to m - 1 do
          consider [ i; j; k ]
        done
      done
    done;
  Option.map fst !best

(* Greedy backtracking join order over a bag's atoms: most
   already-determined variables first, ties towards more total variables
   (wider atoms narrow the remainder harder), then atom order. *)
let join_order (atoms : Atom.t list) =
  let remaining = ref atoms and bound = ref StringSet.empty and out = ref [] in
  while !remaining <> [] do
    let score a =
      let vs = Atom.vars a in
      let det = List.length (List.filter (fun x -> StringSet.mem x !bound) vs) in
      (det, List.length vs)
    in
    let best =
      List.fold_left
        (fun best a ->
          match best with
          | Some (_, s) when s >= score a -> best
          | _ -> Some (a, score a))
        None !remaining
    in
    let a, _ = Option.get best in
    out := a :: !out;
    remaining := List.filter (fun a' -> a' != a) !remaining;
    bound := List.fold_left (fun s x -> StringSet.add x s) !bound (Atom.vars a)
  done;
  List.rev !out

let plan (q : Query.t) : t option =
  if Query.has_neqs q then None
  else begin
    let atoms = Array.of_list (Query.atoms q) in
    let atom_sets = Array.map (fun a -> (a, StringSet.of_list (Atom.vars a))) atoms in
    let vars =
      Array.fold_left (fun acc (_, s) -> StringSet.union acc s) StringSet.empty atom_sets
    in
    let vlist = Array.of_list (StringSet.elements vars) in
    let n = Array.length vlist in
    if Array.length atoms < 3 || n < 3 || n > Sys.int_size - 2 then None
    else begin
      let vid = Hashtbl.create 16 in
      Array.iteri (fun i x -> Hashtbl.add vid x i) vlist;
      let edge = Array.make_matrix n n false in
      Array.iter
        (fun (_, s) ->
          let ids = List.map (Hashtbl.find vid) (StringSet.elements s) in
          List.iter
            (fun i -> List.iter (fun j -> if i <> j then edge.(i).(j) <- true) ids)
            ids)
        atom_sets;
      let adj =
        Array.init n (fun i ->
            List.filter (fun j -> edge.(i).(j)) (List.init n Fun.id))
      in
      let order =
        if Array.length atoms <= 8 && n <= exact_max_vars then exact_order adj n
        else greedy_order adj n
      in
      (* Replay the elimination to collect bags: eliminating order.(i)
         forms χ_i = {v_i} ∪ N_i and clique-ifies N_i; the parent of bag i
         is the bag of the earliest-eliminated vertex of N_i. *)
      let pos = Array.make n 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      let nbr = Array.map (fun l -> List.fold_left (fun s w -> StringSet.add vlist.(w) s) StringSet.empty l) adj in
      let raws =
        Array.init n (fun _ -> { r_chi = StringSet.empty; r_parent = -1; r_dead = false })
      in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          let live = StringSet.filter (fun x -> pos.(Hashtbl.find vid x) > i) nbr.(v) in
          raws.(i).r_chi <- StringSet.add vlist.(v) live;
          (* clique-ify the live neighbourhood *)
          StringSet.iter
            (fun x ->
              let xi = Hashtbl.find vid x in
              nbr.(xi) <- StringSet.union nbr.(xi) (StringSet.remove x live))
            live;
          if StringSet.is_empty live then begin
            if i < n - 1 then ok := false (* disconnected: bail out *)
          end
          else begin
            let p =
              StringSet.fold
                (fun x acc -> min acc pos.(Hashtbl.find vid x))
                live max_int
            in
            raws.(i).r_parent <- p
          end)
        order;
      if not !ok then None
      else begin
        (* Absorb bags contained in their parent (projection-only bags
           carry no information and would cost a join each). *)
        for i = 0 to n - 2 do
          let p = raws.(i).r_parent in
          if p >= 0 && StringSet.subset raws.(i).r_chi raws.(p).r_chi then begin
            raws.(i).r_dead <- true;
            for j = 0 to i - 1 do
              if (not raws.(j).r_dead) && raws.(j).r_parent = i then
                raws.(j).r_parent <- p
            done
          end
        done;
        (* ... and the symmetric contraction: a parent contained in one of
           its children (the last few elimination steps produce a chain of
           shrinking root-ward bags).  Contracting the tree edge preserves
           running intersection — everything that routed through the
           parent routes through the child, whose χ is a superset. *)
        let changed = ref true in
        while !changed do
          changed := false;
          for i = 0 to n - 2 do
            if not raws.(i).r_dead then begin
              let p = raws.(i).r_parent in
              if
                p >= 0
                && StringSet.subset raws.(p).r_chi raws.(i).r_chi
              then begin
                raws.(p).r_dead <- true;
                raws.(i).r_parent <- raws.(p).r_parent;
                for j = 0 to n - 1 do
                  if (not raws.(j).r_dead) && j <> i && raws.(j).r_parent = p
                  then raws.(j).r_parent <- i
                done;
                changed := true
              end
            end
          done
        done;
        (* Assign every atom to one live bag containing its variables
           (exists: each atom is a clique, and absorption preserves
           maximal bags).  Highest-indexed container keeps assignments
           close to the root. *)
        let assigned = Array.make n [] in
        let assign_ok = ref true in
        Array.iter
          (fun (a, s) ->
            let home = ref (-1) in
            for i = 0 to n - 1 do
              if (not raws.(i).r_dead) && StringSet.subset s raws.(i).r_chi then
                home := i
            done;
            if !home < 0 then assign_ok := false
            else assigned.(!home) <- a :: assigned.(!home))
          atom_sets;
        if not !assign_ok then None
        else begin
          let width = ref 0 and nbags = ref 0 and cover_ok = ref true in
          let kids = Array.make n [] in
          for i = 0 to n - 1 do
            if (not raws.(i).r_dead) && raws.(i).r_parent >= 0 then
              kids.(raws.(i).r_parent) <- i :: kids.(raws.(i).r_parent)
          done;
          let rec build i =
            let chi = raws.(i).r_chi in
            let chi_arr = Array.of_list (StringSet.elements chi) in
            let cover =
              match find_cover atom_sets chi with
              | Some c -> c
              | None ->
                  cover_ok := false;
                  []
            in
            incr nbags;
            width := max !width (List.length cover);
            let locals =
              List.filter (fun a -> not (List.memq a cover)) (List.rev assigned.(i))
            in
            let key =
              if raws.(i).r_parent < 0 then [||]
              else begin
                let pchi = raws.(raws.(i).r_parent).r_chi in
                let ks = ref [] in
                Array.iteri
                  (fun p x -> if StringSet.mem x pchi then ks := p :: !ks)
                  chi_arr;
                Array.of_list (List.rev !ks)
              end
            in
            {
              b_chi = chi_arr;
              b_cover = Array.of_list cover;
              b_atoms = Array.of_list (join_order (cover @ locals));
              b_key = key;
              b_children = List.map build (List.rev kids.(i));
            }
          in
          let root_ix = ref (n - 1) in
          for i = 0 to n - 1 do
            if (not raws.(i).r_dead) && raws.(i).r_parent < 0 then root_ix := i
          done;
          let g_root = build !root_ix in
          if not !cover_ok then None
          else begin
            Metrics.incr plans_built;
            let view b = (Jtree.Join (b.b_chi, b.b_atoms), bag_key b, b.b_children) in
            let g_dp = Jtree.compile ~consts:(Query.constant_slots q) view g_root in
            Some { g_root; g_width = !width; g_nbags = !nbags; g_dp }
          end
        end
      end
    end
  end

(* ------------------------------ counting ------------------------------ *)

(* Every atom is enforced in exactly one bag and each variable's bags form
   a connected subtree, so the join-tree DP over the bag joins counts
   |Hom(component, D)|.  The engine's one-shot count, kept as a name for
   perfbench's replay. *)
let count ?budget ?params g d = Jtree.count ?budget ?params g.g_dp d

(* ------------------------------ reporting ----------------------------- *)

let render g =
  let atom_list l =
    String.concat " " (List.map (fun a -> Format.asprintf "%a" Atom.pp a) l)
  in
  let lines = ref [ Printf.sprintf "width: %d, bags: %d" g.g_width g.g_nbags ] in
  let rec go depth b =
    let key =
      match bag_key b with
      | [] -> ""
      | ks -> Printf.sprintf " [%s]" (String.concat "," ks)
    in
    lines :=
      Printf.sprintf "%sbag {%s}%s cover: %s | join: %s"
        (String.make (2 * depth) ' ')
        (String.concat "," (Array.to_list b.b_chi))
        key
        (atom_list (bag_cover b))
        (atom_list (bag_atoms b))
      :: !lines;
    List.iter (go (depth + 1)) b.b_children
  in
  go 0 g.g_root;
  List.rev !lines
