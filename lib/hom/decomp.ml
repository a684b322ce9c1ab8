open Bagcq_relational
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

(* ------------------------------- factor ------------------------------- *)

(* The factor runs over an int-coded copy of the query.  Variables are
   numbered once, in order of first sight; union–find on those numbers
   splits the atoms and inequalities into components; each component's
   variables are then renamed v1, v2, … by first occurrence, exactly as
   [Query.rename_vars] would: atoms in order, each atom's arguments left
   to right, then the inequalities in order, right side first (the order
   in which OCaml builds the renamed pair).  A renamed component is kept
   as its atoms paired with their renamed arguments — a variable's
   number, or 0 at a constant, whose name the atom still holds — and is
   sorted and compared in that form by an order equal to [Query.compare]
   on the renamed query, variable names compared as the strings "v<n>".
   Sorted, equal components are neighbours: they are grouped there, and
   only the first copy of each becomes a [Query.t].

   The per-variable tables are domain-local scratch, grown to the largest
   query seen and reused: an array over 256 words would go straight to
   the major heap on every request, and the server factors one query per
   request on each worker domain.  Everything else sized by the query is
   a list. *)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* One atom, or one inequality, with each variable's number (-1 at a
   constant). *)
type piece = Atom_piece of Atom.t * int array | Neq_piece of (Term.t * int) * (Term.t * int)

(* A renamed term: a variable's n in "v<n>" (≥ 1), or 0 with the term
   itself, a constant. *)
type cterm = int * Term.t

(* A renamed component: its atoms with their renamed arguments (0 at a
   constant, which the atom still holds) and its oriented inequalities,
   each list sorted. *)
type comp = (Atom.t * int array) list * (cterm * cterm) list

type scratch = {
  ids : int Names.t;  (* variable name -> number *)
  mutable parent : int array;  (* union–find over numbers *)
  mutable renamed : int array;  (* number -> its n in "v<n>", 0 before renaming *)
  mutable members : piece list array;  (* root -> its pieces *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { ids = Names.create 64; parent = [||]; renamed = [||]; members = [||] })

(* Decimal strings compare as "v<a>" against "v<b>": "v10" < "v2". *)
let compare_vnum a b =
  if a = b then 0
  else
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let rec shift n k = if k = 0 then n else shift (n / 10) (k - 1) in
    let da = digits a and db = digits b in
    if da = db then Int.compare a b
    else if da < db then if a <= shift b (db - da) then -1 else 1
    else if shift a (da - db) < b then -1
    else 1

(* [Term.compare] on the renamed terms: variables before constants. *)
let compare_cterm n t m u =
  if n > 0 && m > 0 then compare_vnum n m
  else if n > 0 then -1
  else if m > 0 then 1
  else Term.compare t u

let compare_catom (a, ra) (b, rb) =
  match Symbol.compare (Atom.sym a) (Atom.sym b) with
  | 0 ->
      let la = Array.length ra and lb = Array.length rb in
      if la <> lb then Int.compare la lb
      else
        let rec go i =
          if i = la then 0
          else
            match compare_cterm ra.(i) (Atom.arg a i) rb.(i) (Atom.arg b i) with
            | 0 -> go (i + 1)
            | c -> c
        in
        go 0
  | c -> c

let compare_cneq (((n, t), (m, u)) : cterm * cterm) ((n', t'), (m', u')) =
  match compare_cterm n t n' t' with 0 -> compare_cterm m u m' u' | c -> c

let compare_comp ((atoms, neqs) : comp) ((atoms', neqs') : comp) =
  match List.compare compare_catom atoms atoms' with
  | 0 -> List.compare compare_cneq neqs neqs'
  | c -> c

let vname n = "v" ^ string_of_int n

let to_query ((atoms, neqs) : comp) =
  let term ((n, t) : cterm) = if n > 0 then Term.Var (vname n) else t in
  Query.make
    ~neqs:(List.map (fun (x, y) -> (term x, term y)) neqs)
    (List.map
       (fun (a, ra) -> Atom.of_array (Atom.sym a) (Array.mapi (fun i n -> term (n, Atom.arg a i)) ra))
       atoms)

let factor q =
  let s = Domain.DLS.get scratch_key in
  Names.clear s.ids;
  let number = function
    | Term.Var x -> (
        match Names.find_opt s.ids x with
        | Some i -> i
        | None ->
            let i = Names.length s.ids in
            Names.add s.ids x i;
            i)
    | Term.Cst _ -> -1
  in
  let atoms = List.map (fun a -> Atom_piece (a, Array.map number (Atom.args a))) (Query.atoms q) in
  let neqs = List.map (fun (x, y) -> Neq_piece ((x, number x), (y, number y))) (Query.neqs q) in
  let n = Names.length s.ids in
  if Array.length s.parent < n then begin
    let cap = max n (2 * Array.length s.parent) in
    s.parent <- Array.make cap 0;
    s.renamed <- Array.make cap 0;
    s.members <- Array.make cap []
  end;
  let parent = s.parent and renamed = s.renamed and members = s.members in
  for i = 0 to n - 1 do
    parent.(i) <- i;
    renamed.(i) <- 0;
    members.(i) <- []
  done;
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let union i j = if i >= 0 && j >= 0 then parent.(find i) <- find j in
  (* A piece's first variable, -1 when it has none. *)
  let head = function
    | Atom_piece (_, codes) -> Array.fold_left (fun h c -> if h >= 0 then h else c) (-1) codes
    | Neq_piece ((_, i), (_, j)) -> max i j
  in
  let join p =
    let h = head p in
    match p with
    | Atom_piece (_, codes) -> Array.iter (union h) codes
    | Neq_piece ((_, i), (_, j)) -> union i j
  in
  List.iter join atoms;
  List.iter join neqs;
  (* File each piece under its component's root, last first, so every
     list comes out in the query's order; a variable-free piece is a
     component of its own. *)
  let roots = ref [] and comps = ref [] in
  let file p =
    let h = head p in
    if h < 0 then comps := [ p ] :: !comps
    else begin
      let r = find h in
      match members.(r) with
      | [] ->
          roots := r :: !roots;
          members.(r) <- [ p ]
      | ps -> members.(r) <- p :: ps
    end
  in
  List.iter file (List.rev neqs);
  List.iter file (List.rev atoms);
  List.iter
    (fun r ->
      comps := members.(r) :: !comps;
      members.(r) <- [])
    !roots;
  (* Rename one component, whose pieces come in the query's order. *)
  let canonical pieces : comp =
    let next = ref 0 in
    let rename c =
      if c < 0 then 0
      else begin
        if renamed.(c) = 0 then begin
          incr next;
          renamed.(c) <- !next
        end;
        renamed.(c)
      end
    in
    let atoms =
      List.filter_map
        (function Atom_piece (a, codes) -> Some (a, Array.map rename codes) | Neq_piece _ -> None)
        pieces
    in
    let neqs =
      List.filter_map
        (function
          | Neq_piece ((x, i), (y, j)) ->
              let m = rename j in
              let n = rename i in
              Some (if compare_cterm n x m y <= 0 then ((n, x), (m, y)) else ((m, y), (n, x)))
          | Atom_piece _ -> None)
        pieces
    in
    (List.sort compare_catom atoms, List.sort compare_cneq neqs)
  in
  let sorted = List.sort compare_comp (List.map canonical !comps) in
  Metrics.add components_seen (List.length sorted);
  let rec group = function
    | [] -> []
    | c :: rest ->
        let rec span m = function
          | c' :: tl when compare_comp c c' = 0 -> span (m + 1) tl
          | tl -> (m, tl)
        in
        let m, tl = span 1 rest in
        (to_query c, m) :: group tl
  in
  group sorted

(* The same renaming on one query, by name: what perfbench's verifier
   keys its reference counts with. *)
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

type component = { query : Query.t; mult : int; shape : string; constants : string array }

(* The shape: the canonical form printed with each constant as its slot. *)
let components q =
  List.map
    (fun (query, mult) ->
      let constants = Query.constant_slots query in
      let b = Buffer.create 32 in
      let term b = function
        | Term.Cst c ->
            let rec slot i = if String.equal constants.(i) c then i else slot (i + 1) in
            Buffer.add_char b '#';
            Buffer.add_string b (string_of_int (slot 0))
        | Term.Var x -> Buffer.add_string b x
      in
      Query.add_flat ~term b query;
      { query; mult; shape = Buffer.contents b; constants })
    (factor q)

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
let join_tree q : tree option =
  let atoms = Array.of_list (Query.atoms q) in
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
      Some { shape; dp = Jtree.compile ~consts:(Query.constant_slots q) view shape }
    end
  end

(* The GHD cost model, computed on query structure alone ({!choose} runs
   before any structure is seen — [Eval]'s plan cache is keyed by shape).
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
    match join_tree q with
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
let count ?budget ?params strategy comp d =
  match strategy with
  | Dp t -> Jtree.count ?budget ?params t.dp d
  | Wcoj w -> Wcoj.count ?budget ?params w d
  | Ghd g -> Jtree.count ?budget ?params (Ghd.jtree g) d
  | Backtrack -> Wcoj.count ?budget ?params (Wcoj.compile comp) d

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
