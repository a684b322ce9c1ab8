open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics

(* Kernel metrics, batched like [Solver]'s: handles resolve at module
   initialisation so the family is present (at zero) in every dump, and the
   hot path bumps a local ref that lands in one atomic add per run. *)
let plans_compiled = Metrics.counter Metrics.global "wcoj_plans_compiled"
let wcoj_runs = Metrics.counter Metrics.global "wcoj_runs"
let wcoj_seeks = Metrics.counter Metrics.global "wcoj_seeks"

(* One occurrence of a join variable in an atom: the trie level binding it,
   plus the count of further consecutive levels repeating the same variable
   (E(x,x) and friends), which filter the matched range instead of joining. *)
type occ = { atom_id : int; level : int; ndups : int }

type atom_plan = {
  sym : Symbol.t;
  order : int array;  (* trie level l reads tuple position order.(l) *)
  const_ids : int array;  (* levels 0..len-1 are pinned to these constants *)
}

(* One compiled inequality, attached to the later of its two ranks (or to
   the variable's own rank for a variable-vs-constant test), checked the
   moment that rank binds a value: [F_var r] is "≠ the code bound at rank
   r" and [F_const i] is "≠ the i-th constant", whose code is resolved per
   structure at count time. *)
type filter = F_var of int | F_const of int

type plan = {
  atoms : atom_plan array;
  occs : occ array array;
      (* per variable rank, in atom order; empty at a domain rank *)
  consts : string array;  (* join and ≠ constants alike *)
  var_order : string array;
  filters : filter array array;  (* per variable rank *)
  neq_const_pairs : (int * int) list;  (* c ≠ c' between two constants *)
}

let variable_order p = Array.to_list p.var_order

let domain_vars p =
  List.filteri (fun r _ -> p.occs.(r) = [||]) (variable_order p)

(* Order quality, for the planner's cost model: how many of a rank's
   iterators sit below an earlier *variable* level of their atom — i.e.
   enter the intersection already narrowed by a binding rather than
   spanning their whole relation.  A rank supported at most once
   intersects nothing: it is the degenerate regime where leapfrog
   degrades to scanning, which is what the GHD route exists to avoid. *)
let rank_supports p =
  Array.map
    (fun entries ->
      Array.fold_left
        (fun acc (o : occ) ->
          if o.level > Array.length p.atoms.(o.atom_id).const_ids then acc + 1
          else acc)
        0 entries)
    p.occs

(* Global variable order, cheapest-first greedy: prefer the variable whose
   atoms are already touched by chosen variables (stay connected, so each
   new level intersects constrained iterators rather than scanning a fresh
   relation), then the variable occurring in the most atoms (highest
   degree intersects hardest, shrinking ranges earliest), ties broken by
   name for determinism — [bagcq explain] pins the result. *)
let choose_var_order (atoms : Atom.t array) =
  let n = Array.length atoms in
  let atoms_of : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (fun x ->
          Hashtbl.replace atoms_of x
            (i :: Option.value ~default:[] (Hashtbl.find_opt atoms_of x)))
        (Atom.vars a))
    atoms;
  let vars =
    List.sort compare (Hashtbl.fold (fun x _ acc -> x :: acc) atoms_of [])
  in
  let touched = Array.make (max 1 n) false in
  let remaining = ref vars and order = ref [] in
  while !remaining <> [] do
    let score x =
      let occ = Hashtbl.find atoms_of x in
      let conn =
        List.fold_left (fun c i -> if touched.(i) then c + 1 else c) 0 occ
      in
      (conn, List.length occ)
    in
    let pick =
      List.fold_left
        (fun best x ->
          match best with
          | None -> Some (x, score x)
          | Some (bx, bs) ->
              let s = score x in
              if s > bs || (s = bs && x < bx) then Some (x, s) else best)
        None !remaining
    in
    let x, _ = Option.get pick in
    order := x :: !order;
    remaining := List.filter (fun y -> y <> x) !remaining;
    List.iter (fun i -> touched.(i) <- true) (Hashtbl.find atoms_of x)
  done;
  Array.of_list (List.rev !order)

let compile q =
  Metrics.incr plans_compiled;
  let atoms = Array.of_list (Query.atoms q) in
  (* Variables occurring only in ≠ atoms have no iterator: they trail the
     joined ones as domain ranks, by name. *)
  let var_order =
    let joined = choose_var_order atoms in
    Array.append joined
      (Array.of_list
         (List.filter (fun x -> not (Array.mem x joined)) (Query.vars q)))
  in
  let rank = Hashtbl.create 16 in
  Array.iteri (fun r x -> Hashtbl.add rank x r) var_order;
  let const_tbl = Hashtbl.create 8 in
  let const_list = ref [] and nconsts = ref 0 in
  let const_id c =
    match Hashtbl.find_opt const_tbl c with
    | Some i -> i
    | None ->
        let i = !nconsts in
        incr nconsts;
        Hashtbl.add const_tbl c i;
        const_list := c :: !const_list;
        i
  in
  let nranks = Array.length var_order in
  let occs = Array.make (max 1 nranks) [] in
  let atom_plans =
    Array.init (Array.length atoms) (fun ai ->
        let a = atoms.(ai) in
        let args = Atom.args a in
        let arity = Array.length args in
        (* Constants descend first (they narrow once, for free), then
           variables in global rank order; repeats of one variable land on
           consecutive levels.  The position component makes the sort key
           total, hence the order deterministic. *)
        let keyed =
          Array.init arity (fun pos ->
              match args.(pos) with
              | Term.Cst c -> ((0, 0, pos), pos, `C (const_id c))
              | Term.Var x -> ((1, Hashtbl.find rank x, pos), pos, `V (Hashtbl.find rank x)))
        in
        Array.sort (fun (k1, _, _) (k2, _, _) -> compare k1 k2) keyed;
        let order = Array.map (fun (_, pos, _) -> pos) keyed in
        let cids =
          Array.of_list
            (List.filter_map
               (function _, _, `C i -> Some i | _ -> None)
               (Array.to_list keyed))
        in
        let l = ref (Array.length cids) in
        while !l < arity do
          let r = match keyed.(!l) with _, _, `V r -> r | _ -> assert false in
          let j = ref (!l + 1) in
          while
            !j < arity
            && (match keyed.(!j) with _, _, `V r' -> r' = r | _ -> false)
          do
            incr j
          done;
          occs.(r) <- { atom_id = ai; level = !l; ndups = !j - !l - 1 } :: occs.(r);
          l := !j
        done;
        { sym = Atom.sym a; order; const_ids = cids })
  in
  (* Inequalities become per-rank filters: a variable-variable test runs
     at the later rank against the earlier binding.  A ≠ constant shares
     the join constants' table: wherever it occurs, an uninterpreted
     constant empties the count. *)
  let filters = Array.make (max 1 nranks) [] in
  let const_pairs = ref [] in
  List.iter
    (fun (t1, t2) ->
      match (t1, t2) with
      | Term.Var x, Term.Var y ->
          let rx = Hashtbl.find rank x and ry = Hashtbl.find rank y in
          let r = max rx ry in
          filters.(r) <- F_var (min rx ry) :: filters.(r)
      | Term.Var x, Term.Cst c | Term.Cst c, Term.Var x ->
          let r = Hashtbl.find rank x in
          filters.(r) <- F_const (const_id c) :: filters.(r)
      | Term.Cst c, Term.Cst c' -> const_pairs := (const_id c, const_id c') :: !const_pairs)
    (Query.neqs q);
  {
    atoms = atom_plans;
    occs =
      Array.init nranks (fun r -> Array.of_list (List.rev occs.(r)));
    consts = Array.of_list (List.rev !const_list);
    var_order;
    filters = Array.init (max 1 nranks) (fun r -> Array.of_list (List.rev filters.(r)));
    neq_const_pairs = List.rev !const_pairs;
  }

(* Galloping search: first index in [lo, hi) whose code is >= v, or [hi].
   Exponential probing brackets the answer in O(log distance), then binary
   search pins it — a seek just past the cursor costs O(1), the property
   leapfrog's complexity argument needs. *)
(* Callers guarantee [0 <= lo] and [hi <= Array.length col], so every
   probe below is in bounds and the reads can skip the bounds check —
   this loop is the single hottest piece of code in a cyclic count. *)
let gallop_geq (col : int array) lo hi v =
  if lo >= hi || Array.unsafe_get col lo >= v then lo
  else begin
    (* col.(lo) < v *)
    let prev = ref lo and cur = ref (lo + 1) and step = ref 1 in
    while !cur < hi && Array.unsafe_get col !cur < v do
      prev := !cur;
      cur := !cur + !step;
      step := !step * 2
    done;
    let a = ref !prev and b = ref (min !cur hi) in
    (* col.(!a) < v; !b = hi or col.(!b) >= v *)
    while !b - !a > 1 do
      let mid = (!a + !b) / 2 in
      if Array.unsafe_get col mid < v then a := mid else b := mid
    done;
    !b
  end

(* Per-atom runtime state: the memoised trie view plus a range stack —
   [alo.(l), ahi.(l))] is the row range matching the values bound to levels
   [0..l-1].  Backtracking never restores: a deeper slot is always
   rewritten before it is read again. *)
type iatom = { levels : int array array; alo : int array; ahi : int array }

type rentry = {
  ia : iatom;
  col : int array;
  level : int;
  ndups : int;
  mutable cur : int;
}

exception Unsat

(* The counting leapfrog.  Differences from textbook LFTJ: (1) the output
   is a bignum count, accumulated in an int and flushed to [Nat] before it
   can overflow; (2) the leaf step is algebraic — when the innermost
   variable occurs in exactly one atom (no repeats), every row of that
   atom's final range extends the current prefix to exactly one
   homomorphism, and distinct rows sharing the full bound prefix must
   differ at the last level, so the whole level contributes [hi - lo]
   without iterating.  One budget tick per seek keeps fuel semantics: a
   fuel-limited run trips mid-intersection. *)
let count ?budget (p : plan) d =
  Metrics.incr wcoj_runs;
  let work = ref 0 in
  let tick =
    match (budget, Metrics.is_enabled ()) with
    | None, false -> fun () -> ()
    | None, true -> fun () -> incr work
    | Some b, _ ->
        fun () ->
          incr work;
          Budget.tick b
  in
  let flush () = Metrics.add wcoj_seeks !work in
  let seek col lo hi v =
    tick ();
    gallop_geq col lo hi v
  in
  let compute () =
    (* An uninterpreted constant admits no homomorphism at all (the
       reference solver's semantics).  Two constants interpreted equal
       refute a c ≠ c' outright. *)
    let idx, ccodes =
      match Index.constants d p.consts with Some r -> r | None -> raise_notrace Unsat
    in
    List.iter
      (fun (i, j) -> if ccodes.(i) = ccodes.(j) then raise_notrace Unsat)
      p.neq_const_pairs;
    let iatoms =
      Array.map
        (fun ap ->
          let si = Index.sym_index idx ap.sym in
          let levels = Index.view si ap.order in
          let nlevels = Array.length ap.order in
          let n = Index.rows si in
          let ia =
            { levels; alo = Array.make (nlevels + 1) 0; ahi = Array.make (nlevels + 1) n }
          in
          Array.iteri
            (fun l cid ->
              let code = ccodes.(cid) in
              let col = levels.(l) in
              let a = seek col ia.alo.(l) ia.ahi.(l) code in
              if a >= ia.ahi.(l) || col.(a) <> code then raise_notrace Unsat;
              let b = seek col a ia.ahi.(l) (code + 1) in
              ia.alo.(l + 1) <- a;
              ia.ahi.(l + 1) <- b)
            ap.const_ids;
          ia)
        p.atoms
    in
    Array.iter
      (fun ia -> if ia.ahi.(0) = 0 then raise_notrace Unsat)
      iatoms;
    let rt_occs =
      Array.map
        (Array.map (fun o ->
             let ia = iatoms.(o.atom_id) in
             {
               ia;
               col = ia.levels.(o.level);
               level = o.level;
               ndups = o.ndups;
               cur = 0;
             }))
        p.occs
    in
    let total = ref Nat.zero and acc = ref 0 in
    let flush_acc () =
      total := Nat.add !total (Nat.of_int !acc);
      acc := 0
    in
    let add n =
      acc := !acc + n;
      if !acc >= 0x2000000000000000 then flush_acc ()
    in
    let nranks = Array.length p.occs in
    (* Does any entry at this rank carry duplicate levels?  Computed once:
       it gates the allocation-free leaf intersection below. *)
    let rank_has_dups =
      Array.map
        (fun entries ->
          Array.exists (fun (e : rentry) -> e.ndups > 0) entries)
        rt_occs
    in
    (* Codes bound at earlier ranks, for the ≠ filters.  Written at every
       [match_found] and domain-rank value — cheap enough to skip gating —
       and read only by deeper ranks' filters, which always run after the
       write because the leaf specialisations fire at the last rank
       alone. *)
    let bound = Array.make (max 1 nranks) (-1) in
    let rank_has_filters = Array.map (fun fs -> Array.length fs > 0) p.filters in
    let filters_pass r v =
      let fs = p.filters.(r) in
      let nf = Array.length fs in
      let rec ok i =
        i = nf
        || (match fs.(i) with
           | F_var r' -> v <> bound.(r')
           | F_const ci -> v <> ccodes.(ci))
           && ok (i + 1)
      in
      ok 0
    in
    (* How many distinct codes rank [r]'s filters forbid.  Each is a
       domain code (a bound value, or an interpreted constant). *)
    let forbidden r =
      let fs = p.filters.(r) in
      let code i = match fs.(i) with F_var r' -> bound.(r') | F_const ci -> ccodes.(ci) in
      let rec fresh i j = j = i || (code j <> code i && fresh i (j + 1)) in
      let n = ref 0 in
      Array.iteri (fun i _ -> if fresh i 0 then incr n) fs;
      !n
    in
    let ndom = Array.length (Index.domain idx) in
    let rec go r =
      if r = nranks then add 1
      else if Array.length rt_occs.(r) = 0 then domain_rank r
      else begin
        let entries = rt_occs.(r) in
        let k = Array.length entries in
        let e0 = Array.unsafe_get entries 0 in
        if r = nranks - 1 && k = 1 && e0.ndups = 0 && not rank_has_filters.(r)
        then begin
          tick ();
          add (e0.ia.ahi.(e0.level) - e0.ia.alo.(e0.level))
        end
        else begin
          let ok = ref true in
          for i = 0 to k - 1 do
            let e = Array.unsafe_get entries i in
            e.cur <- e.ia.alo.(e.level);
            if e.cur >= e.ia.ahi.(e.level) then ok := false
          done;
          if !ok then begin
            let next i = if i + 1 = k then 0 else i + 1 in
            if r = nranks - 1 && (not rank_has_dups.(r)) && not rank_has_filters.(r)
            then begin
              (* Leaf intersection.  Every level here is its atom's last:
                 rows in a value run share the whole bound prefix, so a
                 run has width exactly 1 (tuples are a set).  Each match
                 therefore adds one homomorphism, the matched entry
                 advances with [cur + 1] instead of a seek, and no range
                 narrowing or recursion happens at all. *)
              let rec lf_leaf v i matched =
                let e = Array.unsafe_get entries i in
                let hi = e.ia.ahi.(e.level) in
                e.cur <- seek e.col e.cur hi v;
                if e.cur < hi then begin
                  let v' = Array.unsafe_get e.col e.cur in
                  if v' <> v then lf_leaf v' (next i) 1
                  else if matched + 1 < k then lf_leaf v (next i) (matched + 1)
                  else begin
                    add 1;
                    e.cur <- e.cur + 1;
                    if e.cur < hi then
                      lf_leaf (Array.unsafe_get e.col e.cur) (next i) 1
                  end
                end
              in
              lf_leaf e0.col.(e0.cur) (next 0) 1
            end
            else begin
              let rec leapfrog v i matched =
                if matched = k then match_found v
                else begin
                  let e = Array.unsafe_get entries i in
                  let hi = e.ia.ahi.(e.level) in
                  e.cur <- seek e.col e.cur hi v;
                  if e.cur < hi then begin
                    let v' = Array.unsafe_get e.col e.cur in
                    if v' = v then leapfrog v (next i) (matched + 1)
                    else leapfrog v' (next i) 1
                  end
                end
              and match_found v =
                bound.(r) <- v;
                if rank_has_filters.(r) && not (filters_pass r v) then begin
                  (* filtered out: skip the narrowing pass entirely and
                     resume the intersection past this value *)
                  let hi0 = e0.ia.ahi.(e0.level) in
                  e0.cur <- seek e0.col e0.cur hi0 (v + 1);
                  if e0.cur < hi0 then leapfrog e0.col.(e0.cur) (next 0) 1
                end
                else begin
                let alive = ref true and i = ref 0 in
                while !alive && !i < k do
                  let e = Array.unsafe_get entries !i in
                  let stop = seek e.col e.cur e.ia.ahi.(e.level) (v + 1) in
                  e.ia.alo.(e.level + 1) <- e.cur;
                  e.ia.ahi.(e.level + 1) <- stop;
                  (* Repeated-variable levels filter: the value must
                     reappear at each duplicate level inside the
                     narrowed range. *)
                  let l = ref (e.level + 1) in
                  while !alive && !l <= e.level + e.ndups do
                    let dcol = e.ia.levels.(!l) in
                    let a = seek dcol e.ia.alo.(!l) e.ia.ahi.(!l) v in
                    if a >= e.ia.ahi.(!l) || dcol.(a) <> v then alive := false
                    else begin
                      let b = seek dcol a e.ia.ahi.(!l) (v + 1) in
                      e.ia.alo.(!l + 1) <- a;
                      e.ia.ahi.(!l + 1) <- b
                    end;
                    incr l
                  done;
                  incr i
                done;
                (* entry 0 always ran first, so its post-match stop is on
                   the range stack; deeper ranks only write strictly
                   deeper slots, but read it before recursing anyway. *)
                let stop0 = e0.ia.ahi.(e0.level + 1) in
                if !alive then go (r + 1);
                e0.cur <- stop0;
                if e0.cur < e0.ia.ahi.(e0.level) then
                  leapfrog e0.col.(e0.cur) (next 0) 1
                end
              in
              leapfrog e0.col.(e0.cur) (next 0) 1
            end
          end
        end
      end
    (* A domain rank binds a variable that occurs only in ≠ atoms, so it
       ranges over the whole domain.  Innermost, every code the filters do
       not forbid extends the prefix exactly once: one tick, no walk.
       Further out, it walks the codes, one tick each. *)
    and domain_rank r =
      if r = nranks - 1 then begin
        tick ();
        add (ndom - forbidden r)
      end
      else
        for v = 0 to ndom - 1 do
          tick ();
          if filters_pass r v then begin
            bound.(r) <- v;
            go (r + 1)
          end
        done
    in
    go 0;
    flush_acc ();
    !total
  in
  match compute () with
  | n ->
      flush ();
      n
  | exception Unsat ->
      flush ();
      Nat.zero
  | exception e ->
      flush ();
      raise e
