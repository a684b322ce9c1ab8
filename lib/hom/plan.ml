open Bagcq_cq

type check = Neq_cst of int | Neq_var of int

type op = Check_cst of int | Check_var of int | Bind of int * check list

type probe = Probe_all | Probe_cst of int | Probe_var of int | Probe_mem

type node = {
  sym : Bagcq_relational.Symbol.t;
  order : int array;
  ops : op array;
  probe : probe;
}

type t = {
  nodes : node array;
  consts : string array;
  cst_cst_neqs : (int * int) list;
  free : (int * check list) array;
  nvars : int;
  var_names : string array;
}

(* Greedy static join order: repeatedly pick the atom with the most
   determined positions (constants + already-bound variables), breaking ties
   towards fewer fresh variables, then input order.  Unlike the seed
   solver's [order_atoms] — which rebuilt the candidate list with
   [List.filter] on every step — selection works over index arrays and the
   determinedness counters are updated incrementally, only for the atoms
   that share a newly-bound variable. *)
let order_atoms atoms =
  let n = Array.length atoms in
  let det = Array.make n 0 in
  let fresh = Array.make n 0 in
  let occs : (string, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      let local = Hashtbl.create 4 in
      Array.iter
        (function
          | Term.Cst _ -> det.(i) <- det.(i) + 1
          | Term.Var x ->
              Hashtbl.replace local x
                (1 + Option.value ~default:0 (Hashtbl.find_opt local x)))
        (Atom.args a);
      Hashtbl.iter
        (fun x m ->
          fresh.(i) <- fresh.(i) + 1;
          Hashtbl.replace occs x
            ((i, m) :: Option.value ~default:[] (Hashtbl.find_opt occs x)))
        local)
    atoms;
  let selected = Array.make n false in
  let bound = Hashtbl.create 16 in
  let order = Array.make n 0 in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_score = ref (min_int, min_int) in
    for i = 0 to n - 1 do
      if not selected.(i) then begin
        let score = (det.(i), -fresh.(i)) in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    done;
    let i = !best in
    selected.(i) <- true;
    order.(step) <- i;
    Array.iter
      (function
        | Term.Cst _ -> ()
        | Term.Var x ->
            if not (Hashtbl.mem bound x) then begin
              Hashtbl.add bound x ();
              List.iter
                (fun (j, m) ->
                  det.(j) <- det.(j) + m;
                  fresh.(j) <- fresh.(j) - 1)
                (Option.value ~default:[] (Hashtbl.find_opt occs x))
            end)
      (Atom.args atoms.(i))
  done;
  order

(* Library-level metric: how many query shapes reached the compiler.
   Handles resolve once at module initialisation; recording is one
   atomic add. *)
let plans_compiled =
  Bagcq_obs.Metrics.counter Bagcq_obs.Metrics.global "hom_plans_compiled"

let compile q =
  Bagcq_obs.Metrics.incr plans_compiled;
  let atoms = Array.of_list (Query.atoms q) in
  let order = order_atoms atoms in
  (* Constants are kept symbolic: they resolve against a structure's
     interpretation at instantiation time. *)
  let const_ids = Hashtbl.create 8 in
  let const_list = ref [] and nconsts = ref 0 in
  let const_id c =
    match Hashtbl.find_opt const_ids c with
    | Some i -> i
    | None ->
        let i = !nconsts in
        incr nconsts;
        Hashtbl.add const_ids c i;
        const_list := c :: !const_list;
        i
  in
  (* Variables are numbered by binding order: first occurrence scanning the
     ordered atoms left to right, then the inequality-only (free) variables
     in name order.  Comparing ids therefore compares binding time. *)
  let var_ids = Hashtbl.create 16 in
  let var_list = ref [] and nvars = ref 0 in
  let var_id x =
    match Hashtbl.find_opt var_ids x with
    | Some v -> v
    | None ->
        let v = !nvars in
        incr nvars;
        Hashtbl.add var_ids x v;
        var_list := x :: !var_list;
        v
  in
  Array.iter
    (fun ai ->
      Array.iter
        (function Term.Var x -> ignore (var_id x) | Term.Cst c -> ignore (const_id c))
        (Atom.args atoms.(ai)))
    order;
  let free_names = List.filter (fun x -> not (Hashtbl.mem var_ids x)) (Query.vars q) in
  let first_free = !nvars in
  List.iter (fun x -> ignore (var_id x)) free_names;
  (* Each inequality becomes one check, attached to the binding point of its
     later-bound endpoint — by then the other endpoint is bound, so the
     runtime check is a plain array read, no map lookups. *)
  let checks = Array.make (max 1 !nvars) [] in
  let cst_cst = ref [] in
  List.iter
    (fun (a, b) ->
      let side = function Term.Var x -> `V (var_id x) | Term.Cst c -> `C (const_id c) in
      match (side a, side b) with
      | `C i, `C j -> cst_cst := (i, j) :: !cst_cst
      | `V v, `C c | `C c, `V v -> checks.(v) <- Neq_cst c :: checks.(v)
      | `V v, `V w ->
          let later = max v w and earlier = min v w in
          checks.(later) <- Neq_var earlier :: checks.(later))
    (Query.neqs q);
  let bound_mark = Array.make (max 1 !nvars) false in
  let nodes =
    Array.map
      (fun ai ->
        let a = atoms.(ai) in
        (* Which variables are bound strictly before this atom: the probe
           may only consult those — a [Check_var] against a variable bound
           earlier in the *same* tuple reads an as-yet-unset slot. *)
        let prev_bound = Array.copy bound_mark in
        let ops =
          Array.map
            (function
              | Term.Cst c -> Check_cst (const_id c)
              | Term.Var x ->
                  let v = Hashtbl.find var_ids x in
                  if bound_mark.(v) then Check_var v
                  else begin
                    bound_mark.(v) <- true;
                    Bind (v, List.rev checks.(v))
                  end)
            (Atom.args a)
        in
        let has_bind = Array.exists (function Bind _ -> true | _ -> false) ops in
        let first, probe =
          if not has_bind then (0, Probe_mem)
          else
            let rec pick pos =
              if pos = Array.length ops then (0, Probe_all)
              else
                match ops.(pos) with
                | Check_cst c -> (pos, Probe_cst c)
                | Check_var v when prev_bound.(v) -> (pos, Probe_var v)
                | Check_var _ | Bind _ -> pick (pos + 1)
            in
            pick 0
        in
        (* The view puts the probed position first; position 0 is the
           identity order.  It holds a constant or an earlier atom's
           variable, so no op binds at it, and moving it first keeps every
           Bind ahead of the checks that read it. *)
        let order = Index.probe_first (Array.length ops) first in
        { sym = Atom.sym a; order; ops = Array.map (fun p -> ops.(p)) order; probe })
      order
  in
  let free =
    Array.init (List.length free_names) (fun k ->
        let v = first_free + k in
        (v, List.rev checks.(v)))
  in
  {
    nodes;
    consts = Array.of_list (List.rev !const_list);
    cst_cst_neqs = !cst_cst;
    free;
    nvars = !nvars;
    var_names = Array.of_list (List.rev !var_list);
  }

let nvars p = p.nvars
let num_nodes p = Array.length p.nodes
