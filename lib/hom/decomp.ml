open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module StringSet = Set.Make (String)

(* Plan-selection metrics.  Handles resolve once at module initialisation,
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

type tree = { atom : Atom.t; key : string list; children : tree list }

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
   property — the soundness of {!count_tree}. *)
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
      Some (build !root)
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

module KeyTbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (t : Value.t array) =
    Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 t
end)

exception Unsat_const

(* The join-tree dynamic program.  One bottom-up pass: each node scans its
   relation once, keeps the tuples matching its constants and repeated
   variables, weights every survivor by the product of its children's
   table entries under the shared-variable projection, and aggregates the
   weights by the node's own key projection.  The running-intersection
   property makes the per-edge projections a complete interface, so the
   root's single entry is exactly |Hom(component, D)|.  Weights are [Nat]:
   the DP produces counts exponentially larger than the work computing
   them — the whole point. *)
let count_tree ?budget (t : tree) d =
  let tick =
    match budget with None -> fun () -> () | Some b -> fun () -> Budget.tick b
  in
  let idx = Index.get d in
  let interp c =
    match Structure.interpretation d c with
    | Some v -> v
    | None -> raise_notrace Unsat_const
  in
  let rec pass node =
    tick ();
    let a = node.atom in
    let vars = Atom.vars a in
    let nvars = List.length vars in
    let var_pos = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add var_pos x i) vars;
    let seen = Array.make (max 1 nvars) false in
    let ops =
      Array.map
        (function
          | Term.Cst c -> `Cst (interp c)
          | Term.Var x ->
              let i = Hashtbl.find var_pos x in
              if seen.(i) then `Check i
              else begin
                seen.(i) <- true;
                `Bind i
              end)
        (Atom.args a)
    in
    let children =
      List.map
        (fun child ->
          let tbl = pass child in
          (tbl, Array.of_list (List.map (Hashtbl.find var_pos) child.key)))
        node.children
    in
    let key_pos = Array.of_list (List.map (Hashtbl.find var_pos) node.key) in
    let env = Array.make (max 1 nvars) (Value.int 0) in
    let nops = Array.length ops in
    let tbl = KeyTbl.create 64 in
    Array.iter
      (fun (tup : Tuple.t) ->
        tick ();
        let rec matches i =
          i = nops
          || (match ops.(i) with
             | `Cst v -> Value.equal tup.(i) v
             | `Check j -> Value.equal tup.(i) env.(j)
             | `Bind j ->
                 env.(j) <- tup.(i);
                 true)
             && matches (i + 1)
        in
        if matches 0 then begin
          let w =
            List.fold_left
              (fun acc (ctbl, cpos) ->
                if Nat.is_zero acc then acc
                else
                  match KeyTbl.find_opt ctbl (Array.map (fun p -> env.(p)) cpos) with
                  | Some s -> Nat.mul acc s
                  | None -> Nat.zero)
              Nat.one children
          in
          if not (Nat.is_zero w) then begin
            let key = Array.map (fun p -> env.(p)) key_pos in
            let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt tbl key) in
            KeyTbl.replace tbl key (Nat.add prev w)
          end
        end)
      (Index.all (Index.sym_index idx (Atom.sym a)));
    tbl
  in
  match pass t with
  | tbl -> Option.value ~default:Nat.zero (KeyTbl.find_opt tbl [||])
  | exception Unsat_const -> Nat.zero

(* The one component executor, shared by [Eval] and the store. *)
let count ?budget strategy comp d =
  match strategy with
  | Dp t -> count_tree ?budget t d
  | Wcoj w -> Wcoj.count ?budget w d
  | Ghd g -> Ghd.count ?budget g d
  | Backtrack -> Nat.of_int (Solver.count ?budget comp d)

(* ---------------- materialised DP state (incremental maintenance) ------ *)

(* The same dynamic program as {!count_tree}, but with the per-node weight
   tables kept alive instead of discarded after the bottom-up pass.  A
   registered count holds one of these per acyclic component: a tuple
   insert/delete touches the tables of the nodes carrying the mutated
   symbol with one exact [Nat.add]/[Nat.sub], and the change then climbs
   the tree as a set of per-key deltas: each node keeps, per child, a
   reverse map from the child's join key to the node tuples matching it,
   so an ancestor re-weighs only the tuples that actually join a changed
   key — O(depth × fan-in of the mutated key), never a relation scan. *)

type dp_op = Op_cst of Value.t | Op_check of int | Op_bind of int

type dp_node = {
  dp_sym : Symbol.t;
  dp_ops : dp_op array;
  dp_nvars : int;
  dp_key_pos : int array;
  dp_children : dp_child list;
  mutable dp_table : Nat.t KeyTbl.t;
}

and dp_child = {
  ch_node : dp_node;
  ch_pos : int array;
      (* positions, in the PARENT node's variable frame, of the child's
         key variables — the lookup projection *)
  ch_rev : Tuple.t list KeyTbl.t;
      (* parent tuples matching the parent pattern, grouped by this
         child-key projection — membership is independent of current
         weight (a zero-weight tuple can gain weight when the child's
         table grows at its key, so it must stay reachable) *)
}

type dp = { dp_root : dp_node; dp_syms : Symbol.Set.t }

let dp_tick = function
  | None -> fun () -> ()
  | Some b -> fun () -> Budget.tick b

(* Run the per-position ops against one tuple, filling [env] at the
   binding points; false when a constant or repeated variable mismatches. *)
let node_match node env (tup : Tuple.t) =
  let nops = Array.length node.dp_ops in
  Tuple.arity tup = nops
  &&
  let rec go i =
    i = nops
    || (match node.dp_ops.(i) with
       | Op_cst v -> Value.equal tup.(i) v
       | Op_check j -> Value.equal tup.(i) env.(j)
       | Op_bind j ->
           env.(j) <- tup.(i);
           true)
       && go (i + 1)
  in
  go 0

let node_weight node env =
  List.fold_left
    (fun acc ch ->
      if Nat.is_zero acc then acc
      else
        match
          KeyTbl.find_opt ch.ch_node.dp_table (Array.map (fun p -> env.(p)) ch.ch_pos)
        with
        | Some s -> Nat.mul acc s
        | None -> Nat.zero)
    Nat.one node.dp_children

let node_key node env = Array.map (fun p -> env.(p)) node.dp_key_pos

(* Rebuild the node's weight table — and, as the same pass binds every
   matching tuple anyway, its children's reverse maps. *)
let scan_node tick d node =
  tick ();
  let env = Array.make (max 1 node.dp_nvars) (Value.int 0) in
  let tbl = KeyTbl.create 64 in
  List.iter (fun ch -> KeyTbl.reset ch.ch_rev) node.dp_children;
  Array.iter
    (fun tup ->
      tick ();
      if node_match node env tup then begin
        List.iter
          (fun ch ->
            let k = Array.map (fun p -> env.(p)) ch.ch_pos in
            let prev = Option.value ~default:[] (KeyTbl.find_opt ch.ch_rev k) in
            KeyTbl.replace ch.ch_rev k (tup :: prev))
          node.dp_children;
        let w = node_weight node env in
        if not (Nat.is_zero w) then begin
          let key = node_key node env in
          let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt tbl key) in
          KeyTbl.replace tbl key (Nat.add prev w)
        end
      end)
    (Structure.tuple_array d node.dp_sym);
  tbl

let dp_build ?budget (t : tree) d =
  let tick = dp_tick budget in
  let interp c =
    match Structure.interpretation d c with
    | Some v -> v
    | None -> raise_notrace Unsat_const
  in
  let rec build node =
    let a = node.atom in
    let vars = Atom.vars a in
    let nvars = List.length vars in
    let var_pos = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.add var_pos x i) vars;
    let seen = Array.make (max 1 nvars) false in
    let ops =
      Array.map
        (function
          | Term.Cst c -> Op_cst (interp c)
          | Term.Var x ->
              let i = Hashtbl.find var_pos x in
              if seen.(i) then Op_check i
              else begin
                seen.(i) <- true;
                Op_bind i
              end)
        (Atom.args a)
    in
    let children =
      List.map
        (fun child ->
          {
            ch_node = build child;
            ch_pos = Array.of_list (List.map (Hashtbl.find var_pos) child.key);
            ch_rev = KeyTbl.create 16;
          })
        node.children
    in
    let n =
      {
        dp_sym = Atom.sym a;
        dp_ops = ops;
        dp_nvars = nvars;
        dp_key_pos = Array.of_list (List.map (Hashtbl.find var_pos) node.key);
        dp_children = children;
        dp_table = KeyTbl.create 1;
      }
    in
    n.dp_table <- scan_node tick d n;
    n
  in
  match build t with
  | root ->
      let rec syms acc n =
        List.fold_left
          (fun acc ch -> syms acc ch.ch_node)
          (Symbol.Set.add n.dp_sym acc)
          n.dp_children
      in
      Some { dp_root = root; dp_syms = syms Symbol.Set.empty root }
  | exception Unsat_const -> None

let dp_count dp =
  Option.value ~default:Nat.zero (KeyTbl.find_opt dp.dp_root.dp_table [||])

let dp_mentions dp sym = Symbol.Set.mem sym dp.dp_syms

(* What a subtree reports upward after a delta.  [Dp_deltas] carries the
   per-key magnitude of the change — the direction is the mutation's
   ([~add]), since inserting only grows weights and deleting only shrinks
   them.  [Dp_rebuilt] means the node rescanned (the mutated symbol sat at
   several nodes of the subtree), so per-key deltas are unknown and the
   parent must rescan too. *)
type dp_change =
  | Dp_unchanged
  | Dp_rebuilt
  | Dp_deltas of (Value.t array * Nat.t) list

let dp_delta ?budget dp d sym (tup : Tuple.t) ~add =
  let tick = dp_tick budget in
  let apply_entry node key delta =
    let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt node.dp_table key) in
    let next = if add then Nat.add prev delta else Nat.sub prev delta in
    if Nat.is_zero next then KeyTbl.remove node.dp_table key
    else KeyTbl.replace node.dp_table key next
  in
  (* A node carrying the mutated symbol with an unchanged subtree: update
     its children's reverse maps for the tuple (pattern membership is
     weight-independent), then one exact [Nat.add]/[Nat.sub] on its table.
     The [Nat.sub] on delete cannot underflow: the entry aggregates the
     weights of the node's matching tuples, the deleted tuple was one of
     them, and the child tables it was weighted by are unchanged here. *)
  let own_update node =
    tick ();
    let env = Array.make (max 1 node.dp_nvars) (Value.int 0) in
    if not (node_match node env tup) then Dp_unchanged
    else begin
      List.iter
        (fun ch ->
          let k = Array.map (fun p -> env.(p)) ch.ch_pos in
          let l = Option.value ~default:[] (KeyTbl.find_opt ch.ch_rev k) in
          let l' =
            if add then tup :: l
            else
              let rec drop = function
                | [] -> []
                | t :: rest -> if Tuple.equal t tup then rest else t :: drop rest
              in
              drop l
          in
          if l' = [] then KeyTbl.remove ch.ch_rev k
          else KeyTbl.replace ch.ch_rev k l')
        node.dp_children;
      let w = node_weight node env in
      if Nat.is_zero w then Dp_unchanged
      else begin
        let key = node_key node env in
        apply_entry node key w;
        Dp_deltas [ (key, w) ]
      end
    end
  in
  (* One child's table changed at a known set of keys: re-weigh exactly
     the parent tuples joining those keys (the reverse map), multiplying
     each child-key delta by the unchanged siblings' weights. *)
  let propagate node ch deltas =
    let env = Array.make (max 1 node.dp_nvars) (Value.int 0) in
    let acc = KeyTbl.create 8 in
    List.iter
      (fun (ck, d_ck) ->
        match KeyTbl.find_opt ch.ch_rev ck with
        | None -> ()
        | Some tuples ->
            List.iter
              (fun t ->
                tick ();
                if node_match node env t then begin
                  let siblings =
                    List.fold_left
                      (fun w c ->
                        if c == ch || Nat.is_zero w then w
                        else
                          match
                            KeyTbl.find_opt c.ch_node.dp_table
                              (Array.map (fun p -> env.(p)) c.ch_pos)
                          with
                          | Some s -> Nat.mul w s
                          | None -> Nat.zero)
                      Nat.one node.dp_children
                  in
                  let contrib = Nat.mul siblings d_ck in
                  if not (Nat.is_zero contrib) then begin
                    let key = node_key node env in
                    let prev =
                      Option.value ~default:Nat.zero (KeyTbl.find_opt acc key)
                    in
                    KeyTbl.replace acc key (Nat.add prev contrib)
                  end
                end)
              tuples)
      deltas;
    if KeyTbl.length acc = 0 then Dp_unchanged
    else
      Dp_deltas
        (KeyTbl.fold
           (fun key delta out ->
             apply_entry node key delta;
             (key, delta) :: out)
           acc [])
  in
  let rec update node =
    let changed =
      List.filter_map
        (fun ch ->
          match update ch.ch_node with
          | Dp_unchanged -> None
          | c -> Some (ch, c))
        node.dp_children
    in
    let own = Symbol.equal node.dp_sym sym in
    match changed with
    | [] -> if own then own_update node else Dp_unchanged
    | [ (ch, Dp_deltas ds) ] when not own -> propagate node ch ds
    | _ ->
        (* the mutated symbol reached this node through several paths (or
           a descendant rescanned): per-key propagation would need cross
           terms, so re-aggregate against the updated child tables *)
        node.dp_table <- scan_node tick d node;
        Dp_rebuilt
  in
  if Symbol.Set.mem sym dp.dp_syms then ignore (update dp.dp_root)

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
      go 0 t;
      List.rev !lines
