open Bagcq_relational
module StringMap = Map.Make (String)

type assignment = Value.t StringMap.t

exception Stop

(* A plan instantiated against one structure: constants resolved to codes,
   each node's view fetched (and a constant probe's run found), and the
   environment of codes allocated.  [Unsat] signals zero homomorphisms
   discovered statically — an uninterpreted constant or an inequality
   between equally-interpreted constants. *)
exception Unsat

type inst_probe =
  | I_rows of int * int  (* the view's rows [lo, hi) *)
  | I_var of int  (* the run holding this variable's code *)
  | I_mem

type inst_node = {
  ops : Plan.op array;
  cols : int array array;  (* the node's view *)
  rows : int;
  probe : inst_probe;
}

type inst = {
  plan : Plan.t;
  cvals : int array;
  nodes : inst_node array;
  domain : Value.t array;
  env : int array;
}

let instantiate (plan : Plan.t) d =
  let idx, cvals =
    match Index.constants d plan.consts with Some r -> r | None -> raise_notrace Unsat
  in
  List.iter (fun (i, j) -> if cvals.(i) = cvals.(j) then raise_notrace Unsat) plan.cst_cst_neqs;
  let nodes =
    Array.map
      (fun (nd : Plan.node) ->
        let si = Index.sym_index idx nd.sym in
        let cols = Index.view si nd.order and rows = Index.rows si in
        let probe =
          match nd.probe with
          | Plan.Probe_mem -> I_mem
          | Plan.Probe_all -> I_rows (0, rows)
          | Plan.Probe_cst c ->
              let lo, hi = Index.run cols.(0) 0 rows cvals.(c) in
              I_rows (lo, hi)
          | Plan.Probe_var v -> I_var v
        in
        { ops = nd.ops; cols; rows; probe })
      plan.nodes
  in
  { plan; cvals; nodes; domain = Index.domain idx; env = Array.make (max 1 plan.nvars) 0 }

module Metrics = Bagcq_obs.Metrics

(* Kernel metrics are batched: the hot tick closure bumps a local ref and
   one atomic add lands the total when the run finishes (normally or by
   Stop/Exhausted_ unwinding) — per-probe atomics would contend across
   domains and blow the EXP-OBS overhead budget. *)
let solver_runs = Metrics.counter Metrics.global "hom_solver_runs"
let solver_probes = Metrics.counter Metrics.global "hom_solver_probes"

(* The kernel.  Tick discipline mirrors the seed solver: one tick per
   backtracking node entered (including the leaf), one per candidate row
   tried at a node, one per domain value tried for a free variable —
   indexed probes try fewer candidates, so indexed runs also tick less. *)
let run ?budget inst emit =
  Metrics.incr solver_runs;
  let work = ref 0 in
  let tick =
    match (budget, Metrics.is_enabled ()) with
    | None, false -> fun () -> ()
    | None, true -> fun () -> incr work
    | Some b, _ ->
        fun () ->
          incr work;
          Bagcq_guard.Budget.tick b
  in
  let env = inst.env and cvals = inst.cvals in
  let nodes = inst.nodes and free = inst.plan.free in
  let nn = Array.length nodes and nf = Array.length free in
  let ndom = Array.length inst.domain in
  let check_ok checks x =
    List.for_all
      (function Plan.Neq_cst c -> x <> cvals.(c) | Plan.Neq_var w -> x <> env.(w))
      checks
  in
  let rec match_ops ops (cols : int array array) r i =
    i = Array.length ops
    ||
    let x = cols.(i).(r) in
    match ops.(i) with
    | Plan.Check_cst c -> x = cvals.(c) && match_ops ops cols r (i + 1)
    | Plan.Check_var v -> x = env.(v) && match_ops ops cols r (i + 1)
    | Plan.Bind (v, checks) ->
        check_ok checks x
        && begin
             env.(v) <- x;
             match_ops ops cols r (i + 1)
           end
  in
  (* Membership: narrow the rows level by level to the run holding the
     determined code. *)
  let rec mem ops cols lo hi l =
    if l = Array.length ops then lo < hi
    else
      let c =
        match ops.(l) with
        | Plan.Check_cst c -> cvals.(c)
        | Plan.Check_var v -> env.(v)
        | Plan.Bind _ -> assert false
      in
      let lo, hi = Index.run cols.(l) lo hi c in
      mem ops cols lo hi (l + 1)
  in
  let rec free_loop k =
    if k = nf then emit ()
    else begin
      let v, checks = free.(k) in
      for x = 0 to ndom - 1 do
        tick ();
        if check_ok checks x then begin
          env.(v) <- x;
          free_loop (k + 1)
        end
      done
    end
  in
  let rec node_loop k =
    tick ();
    if k = nn then free_loop 0
    else begin
      let nd = nodes.(k) in
      match nd.probe with
      | I_mem -> if mem nd.ops nd.cols 0 nd.rows 0 then node_loop (k + 1)
      | I_rows (lo, hi) -> scan nd k lo hi
      | I_var v ->
          let lo, hi = Index.run nd.cols.(0) 0 nd.rows env.(v) in
          scan nd k lo hi
    end
  and scan nd k r hi =
    if r < hi then begin
      tick ();
      if match_ops nd.ops nd.cols r 0 then node_loop (k + 1);
      scan nd k (r + 1) hi
    end
  in
  let flush () = Metrics.add solver_probes !work in
  (try node_loop 0
   with e ->
     flush ();
     raise e);
  flush ()

let count_plan ?budget plan d =
  match instantiate plan d with
  | exception Unsat -> 0
  | inst ->
      let n = ref 0 in
      run ?budget inst (fun () -> incr n);
      !n

let exists_plan ?budget plan d =
  match instantiate plan d with
  | exception Unsat -> false
  | inst -> (
      try
        run ?budget inst (fun () -> raise_notrace Stop);
        false
      with Stop -> true)

let assignment_of inst =
  let names = inst.plan.Plan.var_names in
  let m = ref StringMap.empty in
  Array.iteri (fun i x -> m := StringMap.add x inst.domain.(inst.env.(i)) !m) names;
  !m

let iter_plan ?budget f plan d =
  match instantiate plan d with
  | exception Unsat -> ()
  | inst -> run ?budget inst (fun () -> f (assignment_of inst))

let count ?budget q d = count_plan ?budget (Plan.compile q) d
let exists ?budget q d = exists_plan ?budget (Plan.compile q) d
let iter ?budget f q d = iter_plan ?budget f (Plan.compile q) d

let enumerate ?budget ?limit q d =
  let out = ref [] and n = ref 0 in
  (try
     iter ?budget
       (fun env ->
         out := env :: !out;
         incr n;
         match limit with Some l when !n >= l -> raise_notrace Stop | _ -> ())
       q d
   with Stop -> ());
  List.rev !out

let fold ?budget f init q d =
  let acc = ref init in
  iter ?budget (fun env -> acc := f !acc env) q d;
  !acc
