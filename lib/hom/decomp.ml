open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Metrics = Bagcq_obs.Metrics
module StringSet = Set.Make (String)

(* Strategy-selection metrics.  Handles resolve once at module initialisation,
   so the family is present (at zero) in every metrics dump whatever the
   traffic — the check.sh contract. *)
let components_seen = Metrics.counter Metrics.global "plan_components"
let dp_selected = Metrics.counter Metrics.global "plan_dp_selected"
let wcoj_selected = Metrics.counter Metrics.global "plan_wcoj_selected"
let ghd_selected = Metrics.counter Metrics.global "plan_ghd_selected"
let fallback_selected = Metrics.counter Metrics.global "plan_fallback"

(* Variables renamed by first occurrence, so that components that differ
   only in variable names share one search per evaluation — queries built
   with ∧̄ and ↑ consist of many such copies, and [rename_apart]'s ~n
   suffixing preserves the relative order of the copies' atoms, so every
   copy lands on the same canonical form. *)
let canonical q =
  let table = Hashtbl.create 8 in
  let next = ref 0 in
  let rename x =
    match Hashtbl.find_opt table x with
    | Some y -> y
    | None ->
        incr next;
        let y = Printf.sprintf "v%d" !next in
        Hashtbl.add table x y;
        y
  in
  Query.rename_vars rename q

let factor q =
  let comps = List.sort Query.compare (List.map canonical (Query.components q)) in
  Metrics.add components_seen (List.length comps);
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
  group comps

(* The GYO join tree, kept for [render], and its DP compiled once. *)
type node = { atom : Atom.t; key : string list; children : node list }
type tree = { shape : node; dp : Jtree.t }

type strategy =
  | Dp of tree
  | Wcoj of Wcoj.plan
  | Ghd of Ghd.t
  | Backtrack

(* GYO reduction.  Repeatedly (1) delete vertices covered by exactly one
   alive hyperedge, (2) absorb a hyperedge whose reduced vertex set is
   contained in another alive edge, recording the witness as its parent.
   Exactly one edge survives iff the hypergraph is α-acyclic, and the
   absorption parents then form a join tree with the running-intersection
   property — the soundness of the join-tree DP. *)
let join_tree (atoms : Atom.t array) : tree option =
  let n = Array.length atoms in
  if n = 0 then None
  else begin
    let orig = Array.map (fun a -> StringSet.of_list (Atom.vars a)) atoms in
    let sets = Array.map (fun s -> ref s) orig in
    let alive = Array.make n true in
    let parent = Array.make n (-1) in
    let alive_count = ref n in
    let changed = ref true in
    while !changed && !alive_count > 1 do
      changed := false;
      let occ = Hashtbl.create 16 in
      Array.iteri
        (fun i s ->
          if alive.(i) then
            StringSet.iter
              (fun v ->
                Hashtbl.replace occ v
                  (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
              !s)
        sets;
      Array.iteri
        (fun i s ->
          if alive.(i) then begin
            let s' = StringSet.filter (fun v -> Hashtbl.find occ v > 1) !s in
            if not (StringSet.equal s' !s) then begin
              s := s';
              changed := true
            end
          end)
        sets;
      for i = 0 to n - 1 do
        if alive.(i) && !alive_count > 1 then begin
          let w = ref (-1) in
          for k = 0 to n - 1 do
            if !w < 0 && k <> i && alive.(k) && StringSet.subset !(sets.(i)) !(sets.(k))
            then w := k
          done;
          if !w >= 0 then begin
            alive.(i) <- false;
            parent.(i) <- !w;
            decr alive_count;
            changed := true
          end
        end
      done
    done;
    if !alive_count > 1 then None
    else begin
      let root = ref 0 in
      Array.iteri (fun i a -> if a then root := i) alive;
      let kids = Array.make n [] in
      for i = n - 1 downto 0 do
        if parent.(i) >= 0 then kids.(parent.(i)) <- i :: kids.(parent.(i))
      done;
      let rec build i =
        {
          atom = atoms.(i);
          (* The edge key on the *original* variable sets: reduction only
             deletes vertices private to one subtree, so the original
             intersection with the parent is the full interface. *)
          key =
            (if parent.(i) < 0 then []
             else StringSet.elements (StringSet.inter orig.(i) orig.(parent.(i))));
          children = List.map build kids.(i);
        }
      in
      let shape = build !root in
      let view n = (Jtree.Scan n.atom, n.key, n.children) in
      Some { shape; dp = Jtree.compile view shape }
    end
  end

(* The GHD cost model, computed on query structure alone ({!choose} runs
   before any structure is seen — [Eval]'s plan cache is keyed by query).
   Leapfrog degrades toward its worst case when many ranks of the chosen
   variable order intersect nothing — each iterator spans its whole
   relation because no earlier binding narrowed it — while a bounded-width
   decomposition pays a bag materialisation up front and then runs the
   linear join-tree DP.  So: count the {e weak} ranks (support ≤ 1, rank 0
   excluded — the outermost rank is always unsupported) and switch to a
   GHD only when the order is weak in ≥ 4 ranks {e and} a width ≤ 2
   decomposition exists.  Short cycles (length ≤ 5) stay on leapfrog:
   their orders have at most three weak ranks and the kernel beats the
   materialisation there. *)
let weak_ranks w =
  let supports = Wcoj.rank_supports w in
  let weak = ref 0 in
  Array.iteri (fun r s -> if r > 0 && s <= 1 then incr weak) supports;
  !weak

let choose q =
  (* Inequalities ride the leapfrog as per-rank filters, and a variable
     occurring only in ≠ atoms as a domain rank. *)
  if Query.has_neqs q then Wcoj (Wcoj.compile q)
  else
    match join_tree (Array.of_list (Query.atoms q)) with
    | Some t -> Dp t
    | None -> (
        let w = Wcoj.compile q in
        if weak_ranks w < 4 then Wcoj w
        else
          match Ghd.plan q with
          | Some g when Ghd.width g <= 2 -> Ghd g
          | _ -> Wcoj w)

(* Strategy counters are bumped here rather than inside {!choose}: [Eval]
   and the store call {!choose} only on plan-cache misses and record the
   choice once, so the [plan_*] family counts cold plans — not every
   cache-hit re-dispatch. *)
let record_choice = function
  | Dp _ -> Metrics.incr dp_selected
  | Wcoj _ -> Metrics.incr wcoj_selected
  | Ghd _ -> Metrics.incr ghd_selected
  | Backtrack -> Metrics.incr fallback_selected

let jtree t = t.dp

(* The engine's one-shot count, kept as a name for perfbench's replay. *)
let count_tree ?budget t d = Jtree.count ?budget t.dp d

(* The one component executor, shared by [Eval] and the store. *)
let count ?budget strategy comp d =
  match strategy with
  | Dp t -> Jtree.count ?budget t.dp d
  | Wcoj w -> Wcoj.count ?budget w d
  | Ghd g -> Jtree.count ?budget (Ghd.jtree g) d
  | Backtrack -> Wcoj.count ?budget (Wcoj.compile comp) d

let render = function
  | Backtrack -> [ "backtracking kernel" ]
  | Wcoj p ->
      let domain = Wcoj.domain_vars p in
      let mark x = if List.mem x domain then x ^ " (domain)" else x in
      [ "variable order: " ^ String.concat " -> " (List.map mark (Wcoj.variable_order p)) ]
  | Ghd g -> Ghd.render g
  | Dp t ->
      let lines = ref [] in
      let rec go depth node =
        let key =
          match node.key with
          | [] -> ""
          | ks -> Printf.sprintf " [%s]" (String.concat "," ks)
        in
        lines :=
          (String.make (2 * depth) ' '
          ^ Format.asprintf "%a" Atom.pp node.atom
          ^ key)
          :: !lines;
        List.iter (go (depth + 1)) node.children
      in
      go 0 t.shape;
      List.rev !lines
