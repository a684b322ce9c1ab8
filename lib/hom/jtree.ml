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

(* Per tuple position: compare with a constant (by slot), compare with the
   frame slot an earlier position bound, or bind a frame slot. *)
type op = Cst of int | Check of int | Bind of int

(* Where a bag-join step reads its candidates: the whole relation; the
   relation deduplicated once per count with the masked (private)
   positions blanked; or the index probe at a position holding a constant
   slot or an already-bound frame slot. *)
type rows = All | Projected of bool array | At_cst of int * int | At_var of int * int
type step = { sym : Symbol.t; ops : op array; rows : rows }

type source =
  | Atom_scan of Symbol.t * op array
  | Bag_join of int * step array  (* |χ| — χ fills the frame's first slots *)

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

let compile view top =
  let consts = Hashtbl.create 4 in
  let slot c =
    match Hashtbl.find_opt consts c with
    | Some k -> k
    | None ->
        let k = Hashtbl.length consts in
        Hashtbl.add consts c k;
        k
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
    let source =
      match spec with
      | Scan a ->
          syms := Symbol.Set.add (Atom.sym a) !syms;
          Atom_scan (Atom.sym a, ops_of a)
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
                      | Cst k -> probe := Some (At_cst (p, k))
                      | Check i when earlier.(i) -> probe := Some (At_var (p, i))
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
          Bag_join
            ( nchi,
              Array.map
                (fun (sym, ops, probe) ->
                  let rows =
                    match probe with
                    | Some r -> r
                    | None ->
                        let mask =
                          Array.map
                            (function Bind j -> j >= nchi && not checked.(j) | _ -> false)
                            ops
                        in
                        if Array.exists Fun.id mask then Projected mask else All
                  in
                  { sym; ops; rows })
                steps )
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
  let names = Array.make (Hashtbl.length consts) "" in
  Hashtbl.iter (fun c k -> names.(k) <- c) consts;
  { root; consts = names; syms = !syms; bags = !bags }

(* -------------------------- the shared steps -------------------------- *)

let ticker = function None -> fun () -> () | Some b -> fun () -> Budget.tick b

(* Constants resolve once per count; [None] when one is uninterpreted —
   no homomorphism can exist. *)
let resolve t d =
  if Array.length t.consts = 0 then Some [||]
  else
    let vs = Array.map (Structure.interpretation d) t.consts in
    if Array.exists Option.is_none vs then None else Some (Array.map Option.get vs)

let fresh_env node = Array.make node.frame (Value.int 0)
let project env slots = Array.map (fun p -> env.(p)) slots

(* The tuple-match loop: run the ops against [tup] from position [i],
   binding frame slots as it goes. *)
let rec matches ops consts env (tup : Tuple.t) i =
  i = Array.length ops
  || (match ops.(i) with
     | Cst k -> Value.equal tup.(i) consts.(k)
     | Check j -> Value.equal tup.(i) env.(j)
     | Bind j ->
         env.(j) <- tup.(i);
         true)
     && matches ops consts env tup (i + 1)

(* The child-weight product at the frame's lookup projections, leaving
   out child [skip] (the store's propagation multiplies in that child's
   delta instead). *)
let weight ?(skip = -1) node ctbls env =
  let n = Array.length ctbls in
  let rec go i acc =
    if i = n then acc
    else if i = skip then go (i + 1) acc
    else
      match KeyTbl.find_opt ctbls.(i) (project env node.lookups.(i)) with
      | Some w -> go (i + 1) (Nat.mul acc w)
      | None -> Nat.zero
  in
  go 0 Nat.one

(* The key aggregation: add (or, for a delete, subtract) [w] at [key],
   keeping only nonzero entries. *)
let bump tbl key w ~add =
  let prev = Option.value ~default:Nat.zero (KeyTbl.find_opt tbl key) in
  let next = if add then Nat.add prev w else Nat.sub prev w in
  if Nat.is_zero next then KeyTbl.remove tbl key else KeyTbl.replace tbl key next

(* Weigh a bound frame by its children and aggregate it at the node's
   key: what every row of every source feeds into. *)
let aggregate node ctbls tbl env =
  let w = weight node ctbls env in
  if not (Nat.is_zero w) then bump tbl (project env node.key) w ~add:true

let root_entry tbl = Option.value ~default:Nat.zero (KeyTbl.find_opt tbl [||])

(* The atom-scan row source: one tick on entry and one per tuple. *)
let scan tick consts ops env tuples row =
  tick ();
  Array.iter
    (fun tup ->
      tick ();
      if matches ops consts env tup 0 then row tup)
    tuples

(* ------------------------------ one-shot ------------------------------ *)

(* The bag-join row source, in two stages.  First the pre-projected steps
   read their relations, one tick per tuple. *)
let preproject tick steps sis =
  let blank = Value.int 0 in
  Array.mapi
    (fun s st ->
      match st.rows with
      | Projected mask ->
          let dedup = KeyTbl.create 64 and out = ref [] in
          Array.iter
            (fun (tup : Tuple.t) ->
              tick ();
              let norm = Array.mapi (fun p v -> if mask.(p) then blank else v) tup in
              if not (KeyTbl.mem dedup norm) then begin
                KeyTbl.add dedup norm ();
                out := norm :: !out
              end)
            (Index.all sis.(s));
          Array.of_list (List.rev !out)
      | All | At_cst _ | At_var _ -> [||])
    steps

(* Then a backtracking join over index probes in the compiled step order,
   one tick per candidate.  A bag row asserts only that an extension
   exists, so each distinct χ-projection is counted in [rows] and handed
   to [row] once. *)
let join tick consts nchi steps sis projected env rows row =
  let seen = KeyTbl.create 64 in
  let rec go s =
    if s = Array.length steps then begin
      let r = Array.sub env 0 nchi in
      if not (KeyTbl.mem seen r) then begin
        KeyTbl.add seen r ();
        incr rows;
        row ()
      end
    end
    else begin
      let st = steps.(s) in
      let tuples =
        match st.rows with
        | Projected _ -> projected.(s)
        | All -> Index.all sis.(s)
        | At_cst (p, k) -> Index.candidates sis.(s) ~pos:p consts.(k)
        | At_var (p, i) -> Index.candidates sis.(s) ~pos:p env.(i)
      in
      Array.iter
        (fun tup ->
          tick ();
          if matches st.ops consts env tup 0 then go (s + 1))
        tuples
    end
  in
  go 0

let count ?budget t d =
  if t.bags then Metrics.incr runs;
  let idx = Index.get d in
  match resolve t d with
  | None -> Nat.zero
  | Some consts -> (
      let tick = ticker budget in
      let rows = ref 0 in
      let rec pass node =
        let env = fresh_env node in
        let tbl = KeyTbl.create 64 in
        (match node.source with
        | Atom_scan (sym, ops) ->
            let ctbls = Array.map pass node.children in
            scan tick consts ops env
              (Index.all (Index.sym_index idx sym))
              (fun _ -> aggregate node ctbls tbl env)
        | Bag_join (nchi, steps) ->
            let sis = Array.map (fun st -> Index.sym_index idx st.sym) steps in
            let projected = preproject tick steps sis in
            let ctbls = Array.map pass node.children in
            join tick consts nchi steps sis projected env rows (fun () ->
                aggregate node ctbls tbl env));
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
  sym : Symbol.t;
  ops : op array;
  table : Nat.t KeyTbl.t;
  kids : live array;
  rev : Tuple.t list KeyTbl.t array;
      (* per child: this node's matching tuples grouped by the child-key
         projection — membership is independent of weight (a zero-weight
         tuple gains weight when the child's table grows at its key, so it
         must stay reachable) *)
}

type state = { values : Value.t array; live_syms : Symbol.Set.t; top : live }

let tables kids = Array.map (fun k -> k.table) kids

(* File a matching tuple (bound in [env]) in, or take it out of, every
   reverse map of the node. *)
let refile l env tup ~add =
  Array.iteri
    (fun i rev ->
      let k = project env l.node.lookups.(i) in
      let ts = Option.value ~default:[] (KeyTbl.find_opt rev k) in
      match
        if add then tup :: ts else List.filter (fun t -> not (Tuple.equal t tup)) ts
      with
      | [] -> KeyTbl.remove rev k
      | ts -> KeyTbl.replace rev k ts)
    l.rev

(* Refill the node's table, and its reverse maps, from the relation. *)
let rescan tick values d l =
  KeyTbl.reset l.table;
  Array.iter KeyTbl.reset l.rev;
  let ctbls = tables l.kids in
  let env = fresh_env l.node in
  scan tick values l.ops env (Structure.tuple_array d l.sym) (fun tup ->
      refile l env tup ~add:true;
      aggregate l.node ctbls l.table env)

let build ?budget t d =
  match resolve t d with
  | None -> None
  | Some values ->
      let tick = ticker budget in
      let rec live node =
        match node.source with
        | Bag_join _ -> invalid_arg "Jtree.build: bag-join nodes are not materialised"
        | Atom_scan (sym, ops) ->
            let kids = Array.map live node.children in
            let l =
              {
                node;
                sym;
                ops;
                table = KeyTbl.create 64;
                kids;
                rev = Array.map (fun _ -> KeyTbl.create 16) kids;
              }
            in
            rescan tick values d l;
            l
      in
      Some { values; live_syms = t.syms; top = live t.root }

let total st = root_entry st.top.table

(* What a subtree reports upward after a delta.  [Deltas] carries the
   per-key magnitude of the change — the direction is the mutation's,
   since an insert only grows weights and a delete only shrinks them.
   [Rebuilt] means the node rescanned, so its per-key deltas are unknown
   and the parent must rescan too. *)
type change = Unchanged | Rebuilt | Deltas of (Value.t array * Nat.t) list

let delta ?budget st d sym (tup : Tuple.t) ~add =
  let tick = ticker budget in
  let values = st.values in
  (* A node carrying the mutated symbol over an unchanged subtree: file
     the tuple in its reverse maps, then one exact add or subtract at its
     key.  The subtraction cannot underflow: the entry aggregates the
     weights of the node's matching tuples, the deleted tuple was one of
     them, and the child tables it was weighed by are unchanged. *)
  let own_update l =
    tick ();
    let env = fresh_env l.node in
    if not (matches l.ops values env tup 0) then Unchanged
    else begin
      refile l env tup ~add;
      let w = weight l.node (tables l.kids) env in
      if Nat.is_zero w then Unchanged
      else begin
        let key = project env l.node.key in
        bump l.table key w ~add;
        Deltas [ (key, w) ]
      end
    end
  in
  (* Child [i]'s table changed at known keys: re-weigh exactly the tuples
     joining those keys (the reverse map), each child-key delta times the
     unchanged siblings' weights. *)
  let propagate l i deltas =
    let env = fresh_env l.node in
    let ctbls = tables l.kids in
    let acc = KeyTbl.create 8 in
    List.iter
      (fun (ck, dk) ->
        List.iter
          (fun t ->
            tick ();
            if matches l.ops values env t 0 then begin
              let w = Nat.mul (weight ~skip:i l.node ctbls env) dk in
              if not (Nat.is_zero w) then bump acc (project env l.node.key) w ~add:true
            end)
          (Option.value ~default:[] (KeyTbl.find_opt l.rev.(i) ck)))
      deltas;
    if KeyTbl.length acc = 0 then Unchanged
    else
      Deltas
        (KeyTbl.fold
           (fun key dl out ->
             bump l.table key dl ~add;
             (key, dl) :: out)
           acc [])
  in
  let rec update l =
    let changed = ref [] in
    Array.iteri
      (fun i k ->
        match update k with Unchanged -> () | c -> changed := (i, c) :: !changed)
      l.kids;
    let own = Symbol.equal l.sym sym in
    match !changed with
    | [] -> if own then own_update l else Unchanged
    | [ (i, Deltas ds) ] when not own -> propagate l i ds
    | _ ->
        (* the symbol reached this node along several paths, or a child
           rescanned: per-key propagation would need cross terms, so
           re-aggregate against the updated child tables *)
        rescan tick values d l;
        Rebuilt
  in
  if Symbol.Set.mem sym st.live_syms then ignore (update st.top)
