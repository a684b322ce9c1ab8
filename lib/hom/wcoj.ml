open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics

(* Kernel metrics, batched: handles resolve at module initialisation so
   the family is present (at zero) in every dump, and the hot path bumps a
   local ref that lands in one atomic add per run. *)
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
  consts : string array;  (* join and ≠ constants alike, by slot *)
  var_order : string array;
  nhead : int;  (* the head's ranks, first in the order; 0 without a head *)
  filters : filter array array;  (* per variable rank *)
  neq_const_pairs : (int * int) list;  (* c ≠ c' between two constants *)
  (* Per rank, fixed by the plan, so no run builds them: *)
  has_dups : bool array;  (* an entry repeats its variable on further levels *)
  has_filters : bool array;
  walks : bool array;
      (* one entry, at its atom's last trie level, no repeat, no filter:
         every row of its range is a distinct value *)
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
   name for determinism — [bagcq explain] pins the result.  Variables
   satisfying [first] are all taken before any other; those satisfying
   [skip] get no rank. *)
let choose_var_order ~first ~skip (atoms : Atom.t array) =
  let n = Array.length atoms in
  let atoms_of : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (fun x ->
          if not (skip x) then
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
    let pool = match List.filter first !remaining with [] -> !remaining | xs -> xs in
    let pick =
      List.fold_left
        (fun best x ->
          match best with
          | None -> Some (x, score x)
          | Some (bx, bs) ->
              let s = score x in
              if s > bs || (s = bs && x < bx) then Some (x, s) else best)
        None pool
    in
    let x, _ = Option.get pick in
    order := x :: !order;
    remaining := List.filter (fun y -> y <> x) !remaining;
    List.iter (fun i -> touched.(i) <- true) (Hashtbl.find atoms_of x)
  done;
  Array.of_list (List.rev !order)

let compile ?(head = [||]) q =
  Metrics.incr plans_compiled;
  let atoms = Array.of_list (Query.atoms q) in
  let in_head x = Array.mem x head in
  (* With a head, a variable outside it that occurs once, in no ≠, is
     private: any row reaching its atom's last ranked level extends to it,
     so it gets no rank and its level goes last. *)
  let private_ x =
    let var t = Term.equal t (Term.Var x) in
    let uses a = Array.fold_left (fun n t -> if var t then n + 1 else n) 0 (Atom.args a) in
    head <> [||] && (not (in_head x))
    && Array.fold_left (fun n a -> n + uses a) 0 atoms = 1
    && not (List.exists (fun (s, t) -> var s || var t) (Query.neqs q))
  in
  (* Variables occurring only in ≠ atoms have no iterator: they trail the
     joined ones as domain ranks, by name. *)
  let var_order =
    let joined = choose_var_order ~first:in_head ~skip:private_ atoms in
    Array.append joined
      (Array.of_list
         (List.filter
            (fun x -> not (Array.mem x joined || private_ x))
            (Query.vars q)))
  in
  let nhead = Array.length head in
  if nhead > Array.length var_order || not (Array.for_all in_head (Array.sub var_order 0 nhead))
  then invalid_arg "Wcoj.compile: the head must list distinct variables of the atoms";
  let rank = Hashtbl.create 16 in
  Array.iteri (fun r x -> Hashtbl.add rank x r) var_order;
  (* Constants are numbered by slot, so a parameter vector indexes them. *)
  let consts = Query.constant_slots q in
  let const_id c =
    let rec find i = if String.equal consts.(i) c then i else find (i + 1) in
    find 0
  in
  let nranks = Array.length var_order in
  let occs = Array.make (max 1 nranks) [] in
  let atom_plans =
    Array.init (Array.length atoms) (fun ai ->
        let a = atoms.(ai) in
        let args = Atom.args a in
        let arity = Array.length args in
        (* Constants descend first (they narrow once, for free), then
           variables in global rank order, then private ones, which no
           iterator reaches; repeats of one variable land on consecutive
           levels.  The position component makes the sort key total, hence
           the order deterministic. *)
        let keyed =
          Array.init arity (fun pos ->
              match args.(pos) with
              | Term.Cst c -> ((0, 0, pos), pos, `C (const_id c))
              | Term.Var x -> (
                  match Hashtbl.find_opt rank x with
                  | Some r -> ((1, r, pos), pos, `V r)
                  | None -> ((2, 0, pos), pos, `P)))
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
        while !l < arity && (match keyed.(!l) with _, _, `V _ -> true | _ -> false) do
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
  let occs = Array.init nranks (fun r -> Array.of_list (List.rev occs.(r))) in
  let filters = Array.init (max 1 nranks) (fun r -> Array.of_list (List.rev filters.(r))) in
  let has_filters = Array.map (fun fs -> Array.length fs > 0) filters in
  {
    atoms = atom_plans;
    occs;
    consts;
    var_order;
    nhead;
    filters;
    neq_const_pairs = List.rev !const_pairs;
    has_dups = Array.map (Array.exists (fun o -> o.ndups > 0)) occs;
    has_filters;
    walks =
      Array.mapi
        (fun r -> function
          | [| o |] -> o.ndups = 0 && (not has_filters.(r)) && o.level = Array.length atom_plans.(o.atom_id).order - 1
          | _ -> false)
        occs;
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

(* Raised in rows mode by the first leaf, or existence test, below the
   last head rank, and caught at that rank: the head tuple bound so far
   has an extension. *)
exception Found

module StringMap = Map.Make (String)

type assignment = Value.t StringMap.t

type mode = Count | Iter of (assignment -> unit) | Rows of (int array -> unit)

(* The leapfrog, counting, enumerating or handing on head tuples.
   Differences from textbook LFTJ: (1) the output is a bignum count,
   accumulated in an int and flushed to [Nat] before it can overflow;
   (2) when counting, the leaf step is algebraic — when the innermost
   variable occurs in exactly one atom (no repeats), every row of that
   atom's final range extends the current prefix to exactly one
   homomorphism, and distinct rows sharing the full bound prefix must
   differ at the last level, so the whole level contributes [hi - lo]
   without iterating.  [Iter] binds every variable instead and hands each
   full binding on, decoded.  [Rows] binds the head ranks, runs the rest
   to their first leaf, where the counting shortcuts only test that an
   extension exists, and hands on the codes.  One budget tick per seek
   keeps fuel semantics: a fuel-limited run trips mid-intersection. *)
let run ?budget ?params mode (p : plan) d =
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
      match Index.constants ?params d p.consts with
      | Some r -> r
      | None -> raise_notrace Unsat
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
    (* Codes bound at earlier ranks, for the ≠ filters, the emitted
       binding and the rows handed on.  Written at every [match_found],
       walked row and domain-rank value — cheap enough to skip gating —
       and read only by deeper ranks' filters and the leaf, which always
       run after the write because the counting shortcuts fire at the
       last rank alone. *)
    let bound = Array.make (max 1 nranks) (-1) in
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
    let domain = Index.domain idx in
    let ndom = Array.length domain in
    (* Rows mode is tested with this one bool at the three counting
       shortcuts, where it turns an addition into an existence test, so
       counting pays nothing for it. *)
    let rows = match mode with Rows _ -> true | Count | Iter _ -> false in
    (* The rank where counting adds extensions without binding them: the
       leaf width, the leaf intersection and the innermost domain rank's
       closed form.  Enumeration binds every rank, so it takes none, and
       neither does a head rank. *)
    let shortcut_rank =
      match mode with
      | Count -> nranks - 1
      | Iter _ -> -1
      | Rows _ -> if p.nhead < nranks then nranks - 1 else -1
    in
    (* The last head rank, where rows mode hands each head tuple on; no
       rank otherwise. *)
    let head_last = if rows then p.nhead - 1 else -1 in
    let hand_on = match mode with Rows f -> f | Count | Iter _ -> ignore in
    let leaf =
      match mode with
      | Count -> fun () -> add 1
      | Iter f ->
          fun () ->
            let a = ref StringMap.empty in
            Array.iteri (fun r x -> a := StringMap.add x domain.(bound.(r)) !a) p.var_order;
            f !a
      | Rows _ -> fun () -> raise_notrace Found
    in
    let rec go r =
      if r = nranks then leaf ()
      else if Array.length rt_occs.(r) = 0 then domain_rank r
      else begin
        let entries = rt_occs.(r) in
        let k = Array.length entries in
        let e0 = Array.unsafe_get entries 0 in
        if r = shortcut_rank && k = 1 && e0.ndups = 0 && not p.has_filters.(r)
        then begin
          tick ();
          let w = e0.ia.ahi.(e0.level) - e0.ia.alo.(e0.level) in
          if rows then (if w > 0 then raise_notrace Found) else add w
        end
        else if p.walks.(r) then
          (* The walk.  The rows of the range are distinct values, so each
             binds the rank at once, with the one tick the narrowing seek
             past its run would have cost; no deeper level of the atom
             needs a range. *)
          for i = e0.ia.alo.(e0.level) to e0.ia.ahi.(e0.level) - 1 do
            tick ();
            bound.(r) <- Array.unsafe_get e0.col i;
            if r = head_last then head_row r else go (r + 1)
          done
        else begin
          let ok = ref true in
          for i = 0 to k - 1 do
            let e = Array.unsafe_get entries i in
            e.cur <- e.ia.alo.(e.level);
            if e.cur >= e.ia.ahi.(e.level) then ok := false
          done;
          if !ok then begin
            let next i = if i + 1 = k then 0 else i + 1 in
            if r = shortcut_rank && (not p.has_dups.(r)) && not p.has_filters.(r)
            then begin
              (* Leaf intersection.  Every level here is its atom's last
                 ranked one.  When counting, that is the atom's last: rows
                 in a value run share the whole bound prefix, so a run has
                 width exactly 1 (tuples are a set).  Each match therefore
                 adds one homomorphism, the matched entry advances with
                 [cur + 1] instead of a seek, and no range narrowing or
                 recursion happens at all.  In rows mode the first match
                 is the extension sought. *)
              let rec lf_leaf v i matched =
                let e = Array.unsafe_get entries i in
                let hi = e.ia.ahi.(e.level) in
                e.cur <- seek e.col e.cur hi v;
                if e.cur < hi then begin
                  let v' = Array.unsafe_get e.col e.cur in
                  if v' <> v then lf_leaf v' (next i) 1
                  else if matched + 1 < k then lf_leaf v (next i) (matched + 1)
                  else begin
                    if rows then raise_notrace Found;
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
                if p.has_filters.(r) && not (filters_pass r v) then begin
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
                if !alive then (if r = head_last then head_row r else go (r + 1));
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
       ranges over the whole domain.  Innermost and counting, every code
       the filters do not forbid extends the prefix exactly once: one
       tick, no walk.  Otherwise it walks the codes, one tick each. *)
    and domain_rank r =
      if r = shortcut_rank then begin
        tick ();
        let n = ndom - forbidden r in
        if rows then (if n > 0 then raise_notrace Found) else add n
      end
      else
        for v = 0 to ndom - 1 do
          tick ();
          if filters_pass r v then begin
            bound.(r) <- v;
            if r = head_last then head_row r else go (r + 1)
          end
        done
    (* The head tuple bound through rank [r] is a row at once when no
       rank follows, else when some leaf below it is reached: the first
       one stops the descent. *)
    and head_row r =
      if r + 1 = nranks then hand_on bound
      else match go (r + 1) with () -> () | exception Found -> hand_on bound
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

let headless p = if p.nhead > 0 then invalid_arg "Wcoj: a plan with a head serves only rows"
let count ?budget ?params p d = headless p; run ?budget ?params Count p d
let iter ?budget ?params f p d = headless p; ignore (run ?budget ?params (Iter f) p d)

let rows ?budget ?params f p d =
  if p.nhead = 0 then invalid_arg "Wcoj.rows: a plan without a head";
  ignore (run ?budget ?params (Rows f) p d)
