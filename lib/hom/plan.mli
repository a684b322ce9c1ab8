(** Query compilation for the homomorphism solver.

    [compile] runs once per query and produces everything the backtracking
    kernel needs that does not depend on the structure: a static greedy join
    order over the atoms, variables numbered into a dense [int] range in
    binding order (so the runtime environment is an [int array] of domain
    codes instead of a string map), a static classification of every atom
    position as a check against an already-bound value or a first-occurrence
    binding, the {!Index.view} each atom reads, and the inequality checks
    precompiled onto the binding point of their later-bound endpoint.
    Constants stay symbolic — {!Solver} resolves them to codes against a
    structure's interpretation when the plan is instantiated.

    The plan depends only on the query, so {!Eval} caches one plan per
    canonical component and reuses it across the thousands of candidate
    databases a hunt sweeps. *)

type check =
  | Neq_cst of int  (** bound value must differ from this constant slot *)
  | Neq_var of int  (** … from this (earlier-bound) variable *)

type op =
  | Check_cst of int  (** position must equal this constant slot *)
  | Check_var of int  (** … this already-bound variable *)
  | Bind of int * check list
      (** first occurrence: bind the variable, then run its checks *)

(** Which rows of the node's view are candidates.  A probe reads the first
    determined position: a constant, or a variable an earlier atom bound. *)
type probe =
  | Probe_all  (** no determined position: scan every row *)
  | Probe_cst of int  (** the run holding this constant slot's code *)
  | Probe_var of int  (** the run holding this variable's code *)
  | Probe_mem  (** every position determined: membership test *)

type node = {
  sym : Bagcq_relational.Symbol.t;
  order : int array;
      (** the attribute order of the {!Index.view} the node reads: the
          probed position first, otherwise the identity *)
  ops : op array;  (** [ops.(l)] tests level [l] of that view *)
  probe : probe;
}

type t = {
  nodes : node array;  (** atoms in execution order *)
  consts : string array;  (** constant names, resolved per structure *)
  cst_cst_neqs : (int * int) list;
      (** inequalities between two constants: unsatisfiable on structures
          interpreting both slots equally *)
  free : (int * check list) array;
      (** inequality-only variables, ranging over the whole domain *)
  nvars : int;
  var_names : string array;  (** variable name of each id *)
}

val compile : Bagcq_cq.Query.t -> t
val nvars : t -> int
val num_nodes : t -> int
