open Bagcq_relational
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Pool = Bagcq_parallel.Pool

let max_potential_atoms = 22

(* The orbit test enumerates Sym(n) only while n! stays at most this.
   Under the atom cap that covers every size of a schema with a symbol of
   arity >= 2 (n <= 4); larger sizes, reached by unary-only schemas, keep
   the full-domain rule alone. *)
let max_orbit_perms = 120

let potential_atoms schema ~size =
  let dom = List.init size (fun i -> Value.int (i + 1)) in
  List.concat_map
    (fun sym ->
      List.map
        (fun args -> (sym, Tuple.make args))
        (Generate.all_tuples dom (Symbol.arity sym)))
    (Schema.symbols schema)

let count_space schema ~size = List.length (potential_atoms schema ~size)

exception Stop

(* One domain size [n]: the candidates are the atom masks over the
   potential atoms of {1..n}, crossed with the bindings of [constants].
   Binding [b] reads as [k] base-n digits, the first constant most
   significant, so [(mask, b)] in lexicographic order is the labelled
   enumeration order. *)
type space = {
  size : int;
  atoms : (Symbol.t * Tuple.t) array;
  constants : string array;
  base : Structure.t;
  touches : int array;  (* [touches.(e)]: the mask of atoms mentioning element [e] *)
  perms : (int array * int array array) array;
      (* every non-identity permutation of the elements (0-based), with
         its action on masks as one 256-entry table per byte of mask *)
}

let code = function Value.Int i -> i - 1 | _ -> assert false

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

(* n! <= max_orbit_perms, without overflowing on large n *)
let orbit_fits n =
  let rec go i acc = i > n || (acc * i <= max_orbit_perms && go (i + 1) (acc * i)) in
  go 1 1

let space ~with_constants schema ~size =
  let atoms = Array.of_list (potential_atoms schema ~size) in
  let m = Array.length atoms in
  if m > max_potential_atoms then
    invalid_arg
      (Printf.sprintf "Dbspace: %d potential atoms exceeds the cap of %d" m
         max_potential_atoms);
  let index = Hashtbl.create m in
  Array.iteri (fun i (sym, tup) -> Hashtbl.replace index (Symbol.name sym, Array.map code tup) i) atoms;
  let touches = Array.make size 0 in
  Array.iteri
    (fun i (_, tup) -> Array.iter (fun v -> touches.(code v) <- touches.(code v) lor (1 lsl i)) tup)
    atoms;
  let act img =
    let image (sym, tup) = Hashtbl.find index (Symbol.name sym, Array.map (fun v -> img.(code v)) tup) in
    let aimg = Array.map image atoms in
    Array.init ((m + 7) / 8) (fun c ->
        let table = Array.make 256 0 in
        for byte = 1 to 255 do
          let low = byte land -byte in
          let rec bit j = if 1 lsl j = low then j else bit (j + 1) in
          let i = (8 * c) + bit 0 in
          table.(byte) <- table.(byte lxor low) lor (if i < m then 1 lsl aimg.(i) else 0)
        done;
        table)
  in
  let perms =
    if not (orbit_fits size) then [||]
    else
      permutations (List.init size Fun.id)
      |> List.map Array.of_list
      |> List.filter (fun p -> p <> Array.init size Fun.id)
      |> List.map (fun img -> (img, act img))
      |> Array.of_list
  in
  let constants =
    if with_constants then Array.of_list (Schema.constants schema) else [||]
  in
  { size; atoms; constants; base = Structure.empty schema; touches; perms }

let apply tables mask =
  let r = ref 0 in
  for c = 0 to Array.length tables - 1 do
    r := !r lor tables.(c).((mask lsr (8 * c)) land 255)
  done;
  !r

(* [None] when a permutation maps [mask] below itself, else the element
   images of the permutations that fix it — only those can still map a
   binding of this mask below itself. *)
let stabiliser sp mask =
  let rec go i acc =
    if i = Array.length sp.perms then Some acc
    else
      let img, tables = sp.perms.(i) in
      let m' = apply tables mask in
      if m' < mask then None else go (i + 1) (if m' = mask then img :: acc else acc)
  in
  go 0 []

(* The permutation [img] maps binding [digits] below itself: at the first
   constant it moves, it moves it to a smaller element. *)
let lowers digits img =
  let rec go j =
    j < Array.length digits
    &&
    let v = digits.(j) in
    if img.(v) <> v then img.(v) < v else go (j + 1)
  in
  go 0

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The one mask loop.  Calls [f mask b d] on every candidate with a mask
   in [lo, hi) whose domain (the atoms' elements plus the binding's
   images) is all of {1..n} — at size 1 also on the empty database — and
   that is the least (mask, binding) of its orbit under the permutations
   of {1..n}, in (mask, binding) order.  Both tests run on integers; a
   structure is built only for a candidate that passes them. *)
let scan sp ~lo ~hi f =
  let n = sp.size and k = Array.length sp.constants in
  let full = (1 lsl n) - 1 in
  let bindings = Array.fold_left (fun acc _ -> acc * n) 1 sp.constants in
  let digits = Array.make k 0 in
  for mask = lo to hi - 1 do
    let used = ref 0 in
    for e = 0 to n - 1 do
      if mask land sp.touches.(e) <> 0 then used := !used lor (1 lsl e)
    done;
    let used = !used in
    if n = 1 || popcount (full land lnot used) <= k then
      match stabiliser sp mask with
      | None -> ()
      | Some stab ->
          let d =
            lazy
              (let d = ref sp.base in
               Array.iteri
                 (fun i (sym, tup) ->
                   if mask land (1 lsl i) <> 0 then d := Structure.add_atom !d sym tup)
                 sp.atoms;
               !d)
          in
          Array.fill digits 0 k 0;
          for b = 0 to bindings - 1 do
            if b > 0 then begin
              let j = ref (k - 1) in
              while digits.(!j) = n - 1 do
                digits.(!j) <- 0;
                decr j
              done;
              digits.(!j) <- digits.(!j) + 1
            end;
            let covered = Array.fold_left (fun acc v -> acc lor (1 lsl v)) used digits in
            if (n = 1 || covered = full) && not (List.exists (lowers digits) stab) then begin
              let db = ref (Lazy.force d) in
              Array.iteri
                (fun j c -> db := Structure.bind_constant !db c (Value.int (digits.(j) + 1)))
                sp.constants;
              f mask b !db
            end
          done
  done

type stats = {
  databases_tested : int;
  largest_size_completed : int;
}

type 'w worker = {
  budget : Budget.t;
  state : 'w;
  mutable tested : int;
  (* the first witness this worker saw, with its candidate index
     (mask, binding): the cross-worker minimum is the serial witness *)
  mutable found : ((int * int) * Structure.t) option;
}

type 'w sweep = {
  workers : 'w worker array;
  witness : Structure.t option;
  tripped : Budget.reason option;
  completed : int;
}

(* The sweep behind every entry point: sizes 1..max_size in order, each
   size's masks fanned over [jobs] workers by {!Pool.sweep}, one tick of
   the worker's budget per candidate handed to [test] (true: a witness).
   With [jobs = 1] the caller's budget is ticked directly; otherwise each
   worker draws on a shard, absorbed back before returning.  Early exit on
   a witness is made deterministic with [best_lo]: the chunk-start of the
   best witness so far.  A worker that finds a witness stops (every chunk
   it could still claim is higher-numbered); other workers finish the
   chunk they are on — it may hold an earlier witness — and then skim the
   remaining chunk numbers without doing work.  Exhaustion of a worker's
   budget stops the whole sweep at the next chunk boundaries. *)
let sweep ~budget ~jobs ~with_constants schema ~max_size ~state test =
  if jobs < 1 then invalid_arg "Dbspace: jobs must be >= 1";
  let pool = if jobs = 1 then None else Some (Budget.shard_pool budget) in
  let workers =
    Array.init jobs (fun _ ->
        {
          budget = (match pool with None -> budget | Some p -> Budget.shard p);
          state = state ();
          tested = 0;
          found = None;
        })
  in
  let witness = ref None and tripped = ref None and completed = ref 0 in
  let absorb () =
    if Option.is_some pool then Array.iter (fun w -> Budget.absorb w.budget ~into:budget) workers
  in
  Fun.protect ~finally:absorb (fun () ->
      while !completed < max_size && !witness = None && !tripped = None do
        let sp = space ~with_constants schema ~size:(!completed + 1) in
        let best_lo = Atomic.make max_int in
        let rec lower lo =
          let cur = Atomic.get best_lo in
          if lo < cur && not (Atomic.compare_and_set best_lo cur lo) then lower lo
        in
        let body w lo hi =
          if Atomic.get best_lo <= lo then `Continue
          else
            try
              scan sp ~lo ~hi (fun mask b d ->
                  Budget.tick w.budget;
                  w.tested <- w.tested + 1;
                  if test w d then begin
                    w.found <- Some ((mask, b), d);
                    lower lo;
                    raise_notrace Stop
                  end);
              `Continue
            with
            | Stop -> `Continue (* witness recorded; skim remaining chunks *)
            | Budget.Exhausted_ _ when Budget.tripped w.budget <> None -> `Stop
        in
        Pool.sweep ~n:(1 lsl Array.length sp.atoms) ~workers ~body ();
        Array.iter
          (fun w ->
            (match (w.found, !witness) with
            | Some (i, d), None -> witness := Some (i, d)
            | Some (i, d), Some (j, _) when i < j -> witness := Some (i, d)
            | _ -> ());
            if !tripped = None then tripped := Budget.tripped w.budget)
          workers;
        if !witness = None && !tripped = None then incr completed
      done);
  { workers; witness = Option.map snd !witness; tripped = !tripped; completed = !completed }

let find_guarded ~budget ?(jobs = 1) ?(with_constants = true) schema ~max_size pred =
  let s =
    sweep ~budget ~jobs ~with_constants schema ~max_size ~state:ignore (fun w d ->
        pred ~budget:w.budget d)
  in
  let stats =
    {
      databases_tested = Array.fold_left (fun a w -> a + w.tested) 0 s.workers;
      largest_size_completed = s.completed;
    }
  in
  match (s.witness, s.tripped) with
  | None, Some r -> Outcome.Exhausted (stats, r)
  | w, _ -> Outcome.Complete (w, stats)

let fold ?budget ?(jobs = 1) ?(with_constants = true) schema ~max_size ~worker ~f () =
  let parent = match budget with Some b -> b | None -> Budget.unlimited () in
  let s =
    sweep ~budget:parent ~jobs ~with_constants schema ~max_size ~state:worker
      (fun w d ->
        f ~budget:w.budget w.state d;
        false)
  in
  (match (s.tripped, budget) with
  | Some r, Some _ -> raise_notrace (Budget.Exhausted_ r)
  | _ -> ());
  Array.map (fun w -> w.state) s.workers
