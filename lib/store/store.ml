open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Budget = Bagcq_guard.Budget
module Metrics = Bagcq_obs.Metrics
module Decomp = Bagcq_hom.Decomp
module Jtree = Bagcq_hom.Jtree

(* How a registered count's component reacts to a tuple delta on one of its
   symbols: acyclic inequality-free components keep materialised join-tree
   tables and fold the delta in ([Jtree.delta]); everything else —
   cyclic cores, components with inequalities, components whose constants
   the database does not (yet) interpret — recounts through
   [Decomp.count], but only this component: the siblings' cached counts
   are reused through the factor product. *)
type comp_plan = Maintained of Jtree.state | Recount of Decomp.strategy

type comp_state = {
  c_query : Query.t;
  c_mult : int;
  c_watches : Symbol.t -> bool;  (* deltas that can change the count *)
  mutable c_plan : comp_plan;
  mutable c_count : Nat.t;
}

type registration = {
  r_query : Query.t;
  r_key : string;
  mutable r_comps : comp_state list;
  mutable r_total : Nat.t;
  mutable r_stale : bool;
      (* a budget tripped mid-propagation: the tables may be
         half-propagated, so the state is garbage until rebuilt.  The flag
         flips before any table is touched again and only clears after a
         successful full rebuild — a reader can never observe a
         half-updated count. *)
}

type db = {
  db_name : string;
  mutable db_structure : Structure.t;
  mutable db_version : int;
  db_regs : (string, registration) Hashtbl.t;
}

type shard = { sh_lock : Mutex.t; sh_dbs : (string, db) Hashtbl.t }

type t = {
  shards : shard array;
  on_mutate : string -> unit;
  databases : Metrics.gauge;
  registered : Metrics.gauge;
  creates : Metrics.counter;
  inserts : Metrics.counter;
  deletes : Metrics.counter;
  delta_maintained : Metrics.counter;
  delta_recomputed : Metrics.counter;
  stale_marks : Metrics.counter;
  repairs : Metrics.counter;
}

type 'a reply = Done of 'a | Rejected of string | Exhausted of Budget.reason

type mutation = {
  atoms : int;
  registrations : int;
  maintained : int;
  recomputed : int;
  stale : int;
}

type reg_info = { reg_count : Nat.t; reg_components : int; reg_maintained : int }
type count_row = { cr_query : string; cr_count : Nat.t; cr_maintained : bool }

let default_shards = 16

let create ?(shards = default_shards) ?metrics ?(on_mutate = fun _ -> ()) () =
  if shards < 1 then invalid_arg "Store.create: shards must be >= 1";
  (* Handles resolve once at creation so the store_* family is present (at
     zero) in every dump whatever the traffic — same contract as the
     planner counters. *)
  let counter name =
    match metrics with
    | Some m -> Metrics.counter m name
    | None -> Metrics.fresh_counter ()
  in
  let gauge name =
    match metrics with
    | Some m -> Metrics.gauge m name
    | None -> Metrics.gauge (Metrics.create ()) name
  in
  {
    shards =
      Array.init shards (fun _ ->
          { sh_lock = Mutex.create (); sh_dbs = Hashtbl.create 8 });
    on_mutate;
    databases = gauge "store_databases";
    registered = gauge "store_registered";
    creates = counter "store_creates";
    inserts = counter "store_inserts";
    deletes = counter "store_deletes";
    delta_maintained = counter "store_delta_maintained";
    delta_recomputed = counter "store_delta_recomputed";
    stale_marks = counter "store_stale";
    repairs = counter "store_repairs";
  }

(* Databases shard by name hash: one mutex per shard, so mutations of
   different databases proceed in parallel on different worker domains
   while every operation on one database is serialised — the granularity
   registered-count maintenance needs, since the DP tables mutate in
   place. *)
let shard_of t name = t.shards.(Hashtbl.hash name mod Array.length t.shards)

let locked sh f =
  Mutex.lock sh.sh_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.sh_lock) f

let with_db t name f =
  let sh = shard_of t name in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.sh_dbs name with
      | None -> Rejected (Printf.sprintf "unknown database %S" name)
      | Some db -> f db)

(* ---------------- registration state ---------------- *)

(* A component's count can change on a delta to one of its own symbols —
   or to any symbol when a side of one of its ≠ atoms is a constant or a
   variable outside every atom: the count then reads an interpretation or
   the whole domain, which every insert or delete can move. *)
let watches q =
  let joined = function
    | Term.Var x -> List.exists (fun a -> List.mem x (Atom.vars a)) (Query.atoms q)
    | Term.Cst _ -> false
  in
  if List.for_all (fun (a, b) -> joined a && joined b) (Query.neqs q) then
    let syms = Symbol.Set.of_list (List.map Atom.sym (Query.atoms q)) in
    fun sym -> Symbol.Set.mem sym syms
  else fun _ -> true

let total_of comps =
  let rec go acc = function
    | [] -> acc
    | c :: rest ->
        if Nat.is_zero c.c_count then Nat.zero
        else
          let v =
            if c.c_mult = 1 then c.c_count else Nat.pow c.c_count c.c_mult
          in
          go (Nat.mul acc v) rest
  in
  go Nat.one comps

let build_comp ?budget d (q, mult) =
  let choice = Decomp.choose q in
  (* per-component registration is a cold plan site: the store keeps the
     chosen strategy for the registration's lifetime, so the plan_*
     selection counters advance here, once — never on delta recounts *)
  Decomp.record_choice choice;
  let plan, count =
    match choice with
    | Decomp.Dp tr -> (
        match Jtree.build ?budget (Decomp.jtree tr) d with
        | Some st -> (Maintained st, Jtree.total st)
        | None ->
            (* an uninterpreted constant: the count is zero but a later
               insert can auto-bind the constant, so stay recomputable *)
            (Recount choice, Nat.zero))
    | _ -> (Recount choice, Decomp.count ?budget choice q d)
  in
  { c_query = q; c_mult = mult; c_watches = watches q; c_plan = plan; c_count = count }

let build_registration ?budget d q =
  let comps = List.map (build_comp ?budget d) (Decomp.factor q) in
  {
    r_query = q;
    r_key = Query.to_string q;
    r_comps = comps;
    r_total = total_of comps;
    r_stale = false;
  }

let rebuild ?budget t d r =
  let comps = List.map (build_comp ?budget d) (Decomp.factor r.r_query) in
  r.r_comps <- comps;
  r.r_total <- total_of comps;
  r.r_stale <- false;
  Metrics.incr t.repairs

let reg_info r =
  {
    reg_count = r.r_total;
    reg_components = List.length r.r_comps;
    reg_maintained =
      List.length
        (List.filter (fun c -> match c.c_plan with Maintained _ -> true | _ -> false)
           r.r_comps);
  }

(* Fold one committed tuple delta into a registration.  Returns [true]
   when some touched component had to recompute (cyclic / fallback).
   Any exception — a budget trip mid-propagation above all — leaves the
   registration marked stale first, so a half-propagated table can never
   be read as a count. *)
let apply_delta ?budget t d sym tup ~add r =
  let recomputed = ref false in
  r.r_stale <- true;
  List.iter
    (fun c ->
      if c.c_watches sym then
        match c.c_plan with
        | Maintained st ->
            Jtree.delta ?budget st d sym tup ~add;
            c.c_count <- Jtree.total st;
            Metrics.incr t.delta_maintained
        | Recount how ->
            recomputed := true;
            c.c_count <- Decomp.count ?budget how c.c_query d;
            Metrics.incr t.delta_recomputed)
    r.r_comps;
  r.r_total <- total_of r.r_comps;
  r.r_stale <- false;
  !recomputed

(* ---------------- database operations ---------------- *)

let db_create t ~name d =
  if name = "" then Rejected "database name must be non-empty"
  else begin
    let sh = shard_of t name in
    locked sh (fun () ->
        if Hashtbl.mem sh.sh_dbs name then
          Rejected (Printf.sprintf "database %S already exists" name)
        else begin
          Hashtbl.add sh.sh_dbs name
            { db_name = name; db_structure = d; db_version = 0; db_regs = Hashtbl.create 4 };
          Metrics.incr t.creates;
          Metrics.gauge_add t.databases 1;
          Done (Structure.total_atoms d)
        end)
  end

let registrations_sorted db =
  List.sort
    (fun a b -> compare a.r_key b.r_key)
    (Hashtbl.fold (fun _ r acc -> r :: acc) db.db_regs [])

let mutate ?budget t ~name ~add sym tup =
  with_db t name (fun db ->
      let d = db.db_structure in
      match Schema.find_symbol (Structure.schema d) (Symbol.name sym) with
      | Some s when Symbol.arity s <> Symbol.arity sym ->
          Rejected
            (Printf.sprintf "%s used with arity %d, previously %d"
               (Symbol.name sym) (Symbol.arity sym) (Symbol.arity s))
      | _ ->
          if add && Structure.mem_atom d sym tup then
            Rejected
              (Printf.sprintf "tuple already present: %s"
                 (Encode.fact_to_string sym tup))
          else if (not add) && not (Structure.mem_atom d sym tup) then
            Rejected
              (Printf.sprintf "tuple not present: %s"
                 (Encode.fact_to_string sym tup))
          else begin
            let d' =
              if add then Structure.add_atom d sym tup
              else Structure.remove_atom d sym tup
            in
            (* commit first: the relation is the source of truth, and
               registered counts are repairable views over it *)
            db.db_structure <- d';
            db.db_version <- db.db_version + 1;
            (* release the retired snapshot's derived views (columnar
               index, trie views); anything still evaluating against it
               rebuilds, it can never see post-mutation data *)
            Structure.clear_memo d;
            Metrics.incr (if add then t.inserts else t.deletes);
            let maintained = ref 0 and recomputed = ref 0 and stale = ref 0 in
            List.iter
              (fun r ->
                if r.r_stale then begin
                  (* already garbage from an earlier trip; stays stale
                     until a counts/register repair *)
                  incr stale
                end
                else
                  match apply_delta ?budget t d' sym tup ~add r with
                  | false -> incr maintained
                  | true -> incr recomputed
                  | exception Budget.Exhausted_ _ ->
                      Metrics.incr t.stale_marks;
                      incr stale)
              (registrations_sorted db);
            t.on_mutate name;
            Done
              {
                atoms = Structure.total_atoms d';
                registrations = Hashtbl.length db.db_regs;
                maintained = !maintained;
                recomputed = !recomputed;
                stale = !stale;
              }
          end)

let db_insert ?budget t ~name sym tup = mutate ?budget t ~name ~add:true sym tup
let db_delete ?budget t ~name sym tup = mutate ?budget t ~name ~add:false sym tup

(* ---------------- registrations ---------------- *)

let register ?budget t ~name q =
  with_db t name (fun db ->
      let key = Query.to_string q in
      match Hashtbl.find_opt db.db_regs key with
      | Some r -> (
          if not r.r_stale then Done (reg_info r)
          else
            match rebuild ?budget t db.db_structure r with
            | () -> Done (reg_info r)
            | exception Budget.Exhausted_ reason -> Exhausted reason)
      | None -> (
          match build_registration ?budget db.db_structure q with
          | r ->
              Hashtbl.add db.db_regs key r;
              Metrics.gauge_add t.registered 1;
              Done (reg_info r)
          | exception Budget.Exhausted_ reason -> Exhausted reason))

let unregister t ~name q =
  with_db t name (fun db ->
      let key = Query.to_string q in
      if Hashtbl.mem db.db_regs key then begin
        Hashtbl.remove db.db_regs key;
        Metrics.gauge_add t.registered (-1);
        Done ()
      end
      else Rejected (Printf.sprintf "no registration for %s" key))

let counts ?budget t ~name =
  with_db t name (fun db ->
      match
        List.map
          (fun r ->
            if r.r_stale then rebuild ?budget t db.db_structure r;
            {
              cr_query = r.r_key;
              cr_count = r.r_total;
              cr_maintained =
                List.for_all
                  (fun c -> match c.c_plan with Maintained _ -> true | _ -> false)
                  r.r_comps;
            })
          (registrations_sorted db)
      with
      | rows -> Done rows
      | exception Budget.Exhausted_ reason -> Exhausted reason)

let is_stale t ~name q =
  with_db t name (fun db ->
      match Hashtbl.find_opt db.db_regs (Query.to_string q) with
      | Some r -> Done r.r_stale
      | None -> Rejected (Printf.sprintf "no registration for %s" (Query.to_string q)))

let snapshot t ~name =
  with_db t name (fun db -> Done (db.db_structure, db.db_version))
