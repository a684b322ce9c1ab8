open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics

(* The bag-join metrics.  Only a GHD plan compiles bag joins, so the
   [ghd_*] names stay; the handles resolve at module initialisation and
   the module is always linked, so both are present (at zero) in every
   dump. *)
let runs = Metrics.counter Metrics.global "ghd_runs"
let bag_rows = Metrics.counter Metrics.global "ghd_bag_rows"

(* Per tuple position: compare with a constant (by slot), compare with the
   frame slot an earlier position bound, or bind a frame slot. *)
type op = Cst of int | Check of int | Bind of int

(* Where a step reads its candidates: the whole relation; the relation
   deduplicated once per count with the masked (private) positions
   blanked; or the rows of its view holding, at the first level, the code
   of a constant slot or of an already-bound frame slot. *)
type rows = All | Projected of bool array | At_cst of int | At_var of int

(* [order] is the {!Index.view} the step reads — the probed position
   first, otherwise the identity — and [ops.(l)] tests its level [l]. *)
type step = { sym : Symbol.t; order : int array; ops : op array; rows : rows }

type source =
  | Atom_scan of step  (* reads [All], or [At_cst] at its first constant *)
  | Bag_join of int * step array * bool
      (* |χ| — χ fills the frame's first slots — the steps, and whether
         distinct join results always have distinct χ-projections *)

type node = {
  frame : int;
  source : source;
  key : int array;
  children : node array;
  lookups : int array array;  (* per child, its key's slots in this frame *)
}

type t = { root : node; consts : string array; syms : Symbol.Set.t; bags : bool }
type spec = Scan of Atom.t | Join of string array * Atom.t array

(* ------------------------------ compiling ----------------------------- *)

let compile ~consts view top =
  let slot c =
    let rec find k = if String.equal consts.(k) c then k else find (k + 1) in
    find 0
  in
  let syms = ref Symbol.Set.empty and bags = ref false in
  let rec build x =
    let spec, key, kids = view x in
    let pos = Hashtbl.create 8 in
    let add v = if not (Hashtbl.mem pos v) then Hashtbl.add pos v (Hashtbl.length pos) in
    let atoms =
      match spec with
      | Scan a -> [| a |]
      | Join (chi, atoms) ->
          Array.iter add chi;
          atoms
    in
    Array.iter (fun a -> List.iter add (Atom.vars a)) atoms;
    let frame = Hashtbl.length pos in
    let bound = Array.make frame false in
    let ops_of a =
      Array.map
        (function
          | Term.Cst c -> Cst (slot c)
          | Term.Var x ->
              let i = Hashtbl.find pos x in
              if bound.(i) then Check i
              else begin
                bound.(i) <- true;
                Bind i
              end)
        (Atom.args a)
    in
    let identity ops = Array.init (Array.length ops) Fun.id in
    (* A probed step reads the view with the probed position first.  It
       holds a constant or an earlier atom's variable, so no op of the
       atom binds there, and moving it first keeps every Bind ahead of its
       Checks. *)
    let probed sym ops p rows =
      let order = Index.probe_first (Array.length ops) p in
      { sym; order; ops = Array.map (fun q -> ops.(q)) order; rows }
    in
    let source =
      match spec with
      | Scan a ->
          syms := Symbol.Set.add (Atom.sym a) !syms;
          let ops = ops_of a and sym = Atom.sym a in
          let rec first_cst p =
            if p = Array.length ops then
              Atom_scan { sym; order = identity ops; ops; rows = All }
            else
              match ops.(p) with
              | Cst k -> Atom_scan (probed sym ops p (At_cst k))
              | Check _ | Bind _ -> first_cst (p + 1)
          in
          first_cst 0
      | Join (chi, _) ->
          bags := true;
          let steps =
            Array.map
              (fun a ->
                (* only slots bound by an earlier atom can drive a probe: a
                   repeat within this atom is not bound when it runs *)
                let earlier = Array.copy bound in
                let ops = ops_of a in
                let probe = ref None in
                Array.iteri
                  (fun p op ->
                    if !probe = None then
                      match op with
                      | Cst k -> probe := Some (p, At_cst k)
                      | Check i when earlier.(i) -> probe := Some (p, At_var i)
                      | Check _ | Bind _ -> ())
                  ops;
                (Atom.sym a, ops, !probe))
              atoms
          in
          (* A cover atom can carry private variables: outside χ and read
             by no other atom (pure range restrictors, e.g. the v in E(v,x)
             covering only x).  Enumerating them multiplies the join by
             their degree only for the seen-set to fold it away again, so
             an unprobed step with private positions is pre-projected. *)
          let checked = Array.make frame false in
          Array.iter
            (fun (_, ops, _) ->
              Array.iter (function Check j -> checked.(j) <- true | _ -> ()) ops)
            steps;
          let nchi = Array.length chi in
          let steps =
            Array.map
              (fun (sym, ops, probe) ->
                match probe with
                | Some (p, rows) -> probed sym ops p rows
                | None ->
                    let mask =
                      Array.map
                        (function Bind j -> j >= nchi && not checked.(j) | _ -> false)
                        ops
                    in
                    let rows = if Array.exists Fun.id mask then Projected mask else All in
                    { sym; order = identity ops; ops; rows })
              steps
          in
          (* When every slot outside χ is a blanked private one, a frame is
             fixed by its χ codes and each step's row by the frame, so two
             join results never share a χ-projection: no seen-set. *)
          let outside_chi st =
            Array.exists
              (fun l ->
                match (st.ops.(l), st.rows) with
                | Bind j, Projected mask -> j >= nchi && not mask.(l)
                | Bind j, _ -> j >= nchi
                | _ -> false)
              (identity st.ops)
          in
          Bag_join (nchi, steps, not (Array.exists outside_chi steps))
    in
    let slots names = Array.of_list (List.map (Hashtbl.find pos) names) in
    let kids = Array.of_list (List.map build kids) in
    ( {
        frame;
        source;
        key = slots key;
        children = Array.map fst kids;
        lookups = Array.map (fun (_, ck) -> slots ck) kids;
      },
      key )
  in
  let root, _ = build top in
  { root; consts; syms = !syms; bags = !bags }

(* ------------------------------- tables ------------------------------- *)

(* Weights stay [int]s below [limit]: a sum of two then stays below
   [max_int] = 2^62 - 1, so the overflow test follows the addition. *)
let limit = 1 lsl 61

(* The one table type: a map from keys of [width] codes to weights, where
   a zero weight is an absent key.  Dense tables (width ≤ 1) use the code
   itself as the entry, 0 for the root's empty key, and grow when a
   higher code arrives; hashed tables number their entries in order of
   first insertion, keep each entry's codes in [keys], and find them
   through [index], open-addressed with linear probing.  Weights live in
   [small] until one would reach [limit]; the table is then promoted: every
   entry moves to [big], and stays there. *)
type tbl = {
  width : int;
  dense : bool;
  mutable index : int array;  (* hashed: bucket -> entry + 1, 0 if empty *)
  mutable keys : int array;  (* hashed: entry e's codes from [e * width] *)
  mutable len : int;  (* hashed: entries in use *)
  mutable small : int array;
  mutable big : Nat.t array;
  mutable promoted : bool;
}

let capacity t = if t.promoted then Array.length t.big else Array.length t.small

(* Dense when the key has width ≤ 1 and the codes are no more than the
   rows the node reads, or than the eight entries a hashed table starts
   with; a hashed table starts at the rows, rounded up to a power of two. *)
let table ~width ~ncodes ~rows =
  let dense = width = 0 || (width = 1 && ncodes <= max rows 8) in
  let cap =
    if width = 0 then 1
    else if dense then max ncodes 1
    else
      let rec up c = if c >= rows then c else up (2 * c) in
      up 8
  in
  {
    width;
    dense;
    index = (if dense then [||] else Array.make (2 * cap) 0);
    keys = (if dense then [||] else Array.make (cap * width) 0);
    len = 0;
    small = Array.make cap 0;
    big = [||];
    promoted = false;
  }

let mix h c = (h lxor c) * 0x2545F4914F6CDD1D
let bucket t h = (h lxor (h lsr 29)) land (Array.length t.index - 1)

(* The bucket holding, or free for, the key [codes.(slots.(0..width-1))]. *)
let probe t codes slots =
  let h = ref 0 in
  for k = 0 to t.width - 1 do
    h := mix !h codes.(slots.(k))
  done;
  let rec go b =
    let e = t.index.(b) - 1 in
    if e < 0 then b
    else
      let rec same k =
        k = t.width || (t.keys.((e * t.width) + k) = codes.(slots.(k)) && same (k + 1))
      in
      if same 0 then b else go ((b + 1) land (Array.length t.index - 1))
  in
  go (bucket t !h)

(* Room for [cap] entries, keeping the weights (and, hashed, the keys and
   a rebuilt index). *)
let resize t cap =
  let extend a n zero = Array.init n (fun i -> if i < Array.length a then a.(i) else zero) in
  if t.promoted then t.big <- extend t.big cap Nat.zero else t.small <- extend t.small cap 0;
  if not t.dense then begin
    t.keys <- extend t.keys (cap * t.width) 0;
    t.index <- Array.make (2 * cap) 0;
    for e = 0 to t.len - 1 do
      let h = ref 0 in
      for k = 0 to t.width - 1 do
        h := mix !h t.keys.((e * t.width) + k)
      done;
      let rec go b =
        if t.index.(b) = 0 then t.index.(b) <- e + 1 else go ((b + 1) land ((2 * cap) - 1))
      in
      go (bucket t !h)
    done
  end

(* A dense table's entry for the key: its code, 0 for the empty key. *)
let code t codes slots = if t.width = 0 then 0 else codes.(slots.(0))

(* The entry of the key [codes.(slots.(..))], or -1 when it has none. *)
let find t codes slots =
  if t.dense then
    let c = code t codes slots in
    if c < capacity t then c else -1
  else t.index.(probe t codes slots) - 1

(* The entry of the key, inserted (at weight zero) if it has none. *)
let entry t codes slots =
  if t.dense then begin
    let c = code t codes slots in
    if c >= capacity t then resize t (max (c + 1) (2 * capacity t));
    c
  end
  else begin
    if t.len = capacity t then resize t (2 * t.len);
    let b = probe t codes slots in
    if t.index.(b) > 0 then t.index.(b) - 1
    else begin
      let e = t.len in
      for k = 0 to t.width - 1 do
        t.keys.((e * t.width) + k) <- codes.(slots.(k))
      done;
      t.index.(b) <- e + 1;
      t.len <- e + 1;
      e
    end
  end

let promote t =
  t.big <- Array.map Nat.of_int t.small;
  t.small <- [||];
  t.promoted <- true

let nat t e =
  if e < 0 then Nat.zero else if t.promoted then t.big.(e) else Nat.of_int t.small.(e)

(* Add (or, for a delete, subtract) [0 <= w < limit] at entry [e],
   promoting the table when the entry reaches [limit].  A subtraction is
   exact by the caller's guarantee, so it never goes below zero. *)
let add_small t e w ~add =
  if t.promoted then t.big.(e) <- (if add then Nat.add else Nat.sub) t.big.(e) (Nat.of_int w)
  else
    let v = if add then t.small.(e) + w else t.small.(e) - w in
    if v < limit then t.small.(e) <- v
    else begin
      promote t;
      t.big.(e) <- Nat.of_int v
    end

let add_nat t e n ~add =
  if (not t.promoted) && Nat.num_bits n <= 61 then add_small t e (Nat.to_int n) ~add
  else begin
    if not t.promoted then promote t;
    t.big.(e) <- (if add then Nat.add else Nat.sub) t.big.(e) n
  end

(* Set membership on the same table: [true] the first time a key is
   marked. *)
let mark t codes slots =
  let e = entry t codes slots in
  t.small.(e) = 0
  && begin
       t.small.(e) <- 1;
       true
     end

(* Every entry of nonzero weight, with its key. *)
let iter_entries t f =
  let n = if t.dense then capacity t else t.len in
  for e = 0 to n - 1 do
    let w = nat t e in
    if not (Nat.is_zero w) then
      f (if t.dense then Array.make t.width e else Array.sub t.keys (e * t.width) t.width) w
  done

(* -------------------------- the shared steps -------------------------- *)

let ticker = function None -> fun () -> () | Some b -> fun () -> Budget.tick b

let project env slots = Array.map (fun p -> env.(p)) slots

(* The tuple-match loop: run the ops against row [r] of the code columns
   [cols] (column [i] for op [i]) from op [i], binding frame slots as it
   goes. *)
let rec matches ops consts env cols r i =
  i = Array.length ops
  || (let c = cols.(i).(r) in
      match ops.(i) with
      | Cst k -> c = consts.(k)
      | Check j -> c = env.(j)
      | Bind j ->
          env.(j) <- c;
          true)
     && matches ops consts env cols r (i + 1)

(* The child-weight product at the frame's lookup projections, leaving
   out child [skip] (the store's propagation multiplies in that child's
   delta instead): an [int] while every factor is one and the product
   stays below [limit]; otherwise -1, and [weight_big] computes it. *)
let weight ?(skip = -1) node ctbls env =
  let n = Array.length ctbls in
  let rec go i acc over =
    if i = n then if over then -1 else acc
    else if i = skip then go (i + 1) acc over
    else
      let t = ctbls.(i) in
      let e = find t env node.lookups.(i) in
      if e < 0 then 0
      else if t.promoted then if Nat.is_zero t.big.(e) then 0 else go (i + 1) acc true
      else
        let w = t.small.(e) in
        if w = 0 then 0
        else if over then go (i + 1) acc true
        else if acc lor w < 0x40000000 || acc <= (limit - 1) / w then go (i + 1) (acc * w) false
        else go (i + 1) acc true
  in
  go 0 1 false

let weight_big ?(skip = -1) node ctbls env =
  let p = ref Nat.one in
  Array.iteri
    (fun i t -> if i <> skip then p := Nat.mul !p (nat t (find t env node.lookups.(i))))
    ctbls;
  !p

(* Weigh a bound frame by its children and aggregate it at the node's
   key: what every row of every source feeds into. *)
let aggregate node ctbls tbl env =
  match weight node ctbls env with
  | 0 -> ()
  | -1 -> add_nat tbl (entry tbl env node.key) (weight_big node ctbls env) ~add:true
  | w -> add_small tbl (entry tbl env node.key) w ~add:true

let root_entry tbl = nat tbl (find tbl [||] [||])

(* The rows of [\[0, n)] a step reads from its view's columns: all, or
   the run of the probed code. *)
let range st consts env cols n =
  match st.rows with
  | All | Projected _ -> (0, n)
  | At_cst k -> Index.run cols.(0) 0 n consts.(k)
  | At_var i -> Index.run cols.(0) 0 n env.(i)

(* The atom-scan row source: one tick on entry and one per row read. *)
let scan tick consts ops env cols lo hi row =
  tick ();
  for r = lo to hi - 1 do
    tick ();
    if matches ops consts env cols r 0 then row ()
  done

(* ------------------------------ one-shot ------------------------------ *)

(* The bag-join row source, in two stages.  First each step's view; the
   pre-projected steps read theirs, one tick per tuple, into fresh code
   columns of the distinct rows, in order of first occurrence. *)
let preproject tick ncodes steps sis =
  Array.mapi
    (fun s st ->
      let cols = Index.view sis.(s) st.order and n = Index.rows sis.(s) in
      match st.rows with
      | Projected mask ->
          let dedup = table ~width:(Array.length mask) ~ncodes ~rows:n in
          let row = Array.make (Array.length mask) 0 in
          let out = Array.map (fun _ -> Array.make n 0) mask and m = ref 0 in
          for r = 0 to n - 1 do
            tick ();
            Array.iteri (fun p col -> row.(p) <- (if mask.(p) then 0 else col.(r))) cols;
            if mark dedup row st.order then begin
              Array.iteri (fun p c -> out.(p).(!m) <- c) row;
              incr m
            end
          done;
          (Array.map (fun col -> Array.sub col 0 !m) out, !m)
      | All | At_cst _ | At_var _ -> (cols, n))
    steps

(* Then a backtracking join in the compiled step order, one tick per
   candidate: a probed step's candidates are the run of its view holding
   the probed code first.  A bag row asserts only that an extension
   exists, so each distinct χ-projection is counted in [rows] and handed
   to [row] once. *)
let join tick consts ncodes reads nchi steps distinct srcs env rows row =
  let seen = if distinct then None else Some (table ~width:nchi ~ncodes ~rows:reads) in
  let chi = Array.init nchi Fun.id in
  let rec go s =
    if s = Array.length steps then begin
      if match seen with None -> true | Some t -> mark t env chi then begin
        incr rows;
        row ()
      end
    end
    else begin
      let st = steps.(s) in
      let cols, n = srcs.(s) in
      let lo, hi = range st consts env cols n in
      for r = lo to hi - 1 do
        tick ();
        if matches st.ops consts env cols r 0 then go (s + 1)
      done
    end
  in
  go 0

let count ?budget ?params t d =
  if t.bags then Metrics.incr runs;
  match Index.constants ?params d t.consts with
  | None -> Nat.zero
  | Some (idx, consts) -> (
      let ncodes = Array.length (Index.domain idx) in
      let tick = ticker budget in
      let rows = ref 0 in
      let rec pass node =
        let env = Array.make node.frame 0 in
        let width = Array.length node.key in
        match node.source with
        | Atom_scan st ->
            let si = Index.sym_index idx st.sym in
            let cols = Index.view si st.order in
            let lo, hi = range st consts env cols (Index.rows si) in
            let ctbls = Array.map pass node.children in
            let tbl = table ~width ~ncodes ~rows:(hi - lo) in
            scan tick consts st.ops env cols lo hi (fun () -> aggregate node ctbls tbl env);
            tbl
        | Bag_join (nchi, steps, distinct) ->
            let sis = Array.map (fun st -> Index.sym_index idx st.sym) steps in
            let reads = Array.fold_left (fun a si -> a + Index.rows si) 0 sis in
            let srcs = preproject tick ncodes steps sis in
            let ctbls = Array.map pass node.children in
            let tbl = table ~width ~ncodes ~rows:reads in
            join tick consts ncodes reads nchi steps distinct srcs env rows (fun () ->
                aggregate node ctbls tbl env);
            tbl
      in
      match pass t.root with
      | tbl ->
          Metrics.add bag_rows !rows;
          root_entry tbl
      | exception e ->
          Metrics.add bag_rows !rows;
          raise e)

(* ---------------------------- materialised ---------------------------- *)

type live = {
  node : node;
  step : step;
  table : tbl;
  kids : live array;
  rev : (int array, int array list) Hashtbl.t array;
      (* per child: the frames of this node's matching tuples, grouped by
         the child-key projection — membership is independent of weight
         (a zero-weight tuple gains weight when the child's table grows at
         its key, so it must stay reachable) *)
}

type state = {
  codes : Index.interner;
  consts : int array;
  live_syms : Symbol.Set.t;
  top : live;
}

let tables kids = Array.map (fun k -> k.table) kids

(* File a matching tuple's frame [env] in, or take it out of, every
   reverse map of the node. *)
let refile l env ~add =
  if Array.length l.rev > 0 then begin
    let frame = if add then Array.copy env else env in
    Array.iteri
      (fun i rev ->
        let k = project env l.node.lookups.(i) in
        let fs = Option.value ~default:[] (Hashtbl.find_opt rev k) in
        match if add then frame :: fs else List.filter (fun f -> f <> env) fs with
        | [] -> Hashtbl.remove rev k
        | fs -> Hashtbl.replace rev k fs)
      l.rev
  end

let build ?budget (t : t) d =
  let values = Array.map (Structure.interpretation d) t.consts in
  if Array.exists Option.is_none values then None
  else
    let tick = ticker budget in
    let codes = Index.interner () in
    let consts = Array.map (fun v -> Index.intern codes (Option.get v)) values in
    let rec live node =
      match node.source with
      | Bag_join _ -> invalid_arg "Jtree.build: bag-join nodes are not materialised"
      | Atom_scan step ->
          let kids = Array.map live node.children in
          (* the relation as code columns, interning values first seen *)
          let tuples = Structure.tuple_array d step.sym in
          let n = Array.length tuples in
          let cols =
            Array.map
              (fun p -> Array.map (fun (tup : Tuple.t) -> Index.intern codes tup.(p)) tuples)
              step.order
          in
          let table = table ~width:(Array.length node.key) ~ncodes:(Index.interned codes) ~rows:n in
          let l = { node; step; table; kids; rev = Array.map (fun _ -> Hashtbl.create 16) kids } in
          let ctbls = tables kids and env = Array.make node.frame 0 in
          scan tick consts step.ops env cols 0 n (fun () ->
              refile l env ~add:true;
              aggregate node ctbls table env);
          l
    in
    Some { codes; consts; live_syms = t.syms; top = live t.root }

let total st = root_entry st.top.table

(* One walk, children first.  A node's table sums, over the frames of its
   matching tuples, the product of its children's entries at the frame's
   lookups.  Taking the changed children in order, child [i]'s change
   weighed against the new tables of the children before it and the old
   tables of those after it, splits each product's change with no cross
   terms: Π newⱼ − Π oldⱼ = Σᵢ (Π_{j<i} newⱼ)(newᵢ − oldᵢ)(Π_{j>i} oldⱼ).
   A node carrying the mutated symbol then weighs the tuple against the
   new child tables: an inserted tuple's frame is not filed yet, so the
   propagation missed it; a deleted one's still is, so the propagation
   kept it at its current weight, which its own term takes out whole.
   Every term has the mutation's direction (an insert only grows tables,
   a delete only shrinks them), so a node adds up magnitudes in one
   per-key table, applies it with the mutation's sign — exact, never
   below zero — and hands it to its parent. *)
let delta ?budget st sym (tup : Tuple.t) ~add =
  let tick = ticker budget in
  let codes = lazy (Array.map (Index.intern st.codes) tup) in
  let rec update l =
    let key = l.node.key and ctbls = tables l.kids in
    let acc = table ~width:(Array.length key) ~ncodes:(Index.interned st.codes) ~rows:0 in
    let reweigh ?skip env dk =
      let w =
        match weight ?skip l.node ctbls env with
        | -1 -> weight_big ?skip l.node ctbls env
        | w -> Nat.of_int w
      in
      let w = Nat.mul w dk in
      if not (Nat.is_zero w) then add_nat acc (entry acc env key) w ~add:true
    in
    Array.iteri
      (fun i k ->
        iter_entries (update k) (fun ck dk ->
            List.iter
              (fun env ->
                tick ();
                reweigh ~skip:i env dk)
              (Option.value ~default:[] (Hashtbl.find_opt l.rev.(i) ck))))
      l.kids;
    if Symbol.equal l.step.sym sym then begin
      tick ();
      let env = Array.make l.node.frame 0 in
      let row = Array.map (fun p -> [| (Lazy.force codes).(p) |]) l.step.order in
      if matches l.step.ops st.consts env row 0 0 then begin
        reweigh env Nat.one;
        refile l env ~add
      end
    end;
    let ids = Array.init (Array.length key) Fun.id in
    iter_entries acc (fun k dk -> add_nat l.table (entry l.table k ids) dk ~add);
    acc
  in
  if Symbol.Set.mem sym st.live_syms then ignore (update st.top)
