open Bagcq_relational

module ValueTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Index construction is the metric the store's rebuild test watches:
   repeated evals against one structure (a named database between writes)
   must bump this exactly once. *)
let index_builds =
  Bagcq_obs.Metrics.counter Bagcq_obs.Metrics.global "hom_index_builds"

(* One relation, stored column-major over interned codes:
   [cols.(pos).(row)] is the code of the value at [pos] — codes are
   indexes into the structure's sorted domain, so code order is
   [Value.compare] order, and rows follow [Tuple.compare].  [views]
   memoises the re-sorted views, keyed by attribute order; the table is
   mutated under [views_lock] because one structure (and hence one index)
   is shared across worker domains. *)
type sym_index = {
  rows : int;
  cols : int array array;
  views : (int array, int array array) Hashtbl.t;
  views_lock : Mutex.t;
}

type t = {
  by_sym : sym_index Symbol.Map.t;
  domain : Value.t array;
  code_of : int ValueTbl.t;
}

let sym_index_of rows cols =
  { rows; cols; views = Hashtbl.create 4; views_lock = Mutex.create () }

let build d =
  Bagcq_obs.Metrics.incr index_builds;
  let domain = Array.of_list (Value.Set.elements (Structure.domain d)) in
  let code_of = ValueTbl.create (max 16 (Array.length domain)) in
  Array.iteri (fun i v -> ValueTbl.replace code_of v i) domain;
  let by_sym =
    List.fold_left
      (fun acc sym ->
        let tuples = Structure.tuple_array d sym in
        let rows = Array.length tuples in
        let cols =
          Array.init (Symbol.arity sym) (fun pos ->
              Array.init rows (fun r -> ValueTbl.find code_of tuples.(r).(pos)))
        in
        Symbol.Map.add sym (sym_index_of rows cols) acc)
      Symbol.Map.empty
      (Schema.symbols (Structure.schema d))
  in
  (* Symbols present in the atom map but absent from the schema cannot occur
     ([add_atom] extends the schema), so the schema fold is exhaustive. *)
  { by_sym; domain; code_of }

type Structure.memo += Indexed of t

let get d =
  match Structure.memo_find d (function Indexed i -> Some i | _ -> None) with
  | Some i -> i
  | None ->
      let i = build d in
      Structure.memo_store d (Indexed i);
      i

let sym_index idx sym =
  match Symbol.Map.find_opt sym idx.by_sym with
  | Some si -> si
  | None -> sym_index_of 0 (Array.make (Symbol.arity sym) [||])

let rows si = si.rows
let domain idx = idx.domain

(* Parameters as given, or interpretations first: an uninterpreted
   constant fetches no index.  An interpreted one always has a code,
   because the domain folds in every interpretation. *)
let constants ?params d names =
  let code idx v =
    match ValueTbl.find_opt idx.code_of v with
    | Some c -> c
    | None -> invalid_arg "Index.constants: a parameter outside the structure's domain"
  in
  match params with
  | Some values ->
      let idx = get d in
      Some (idx, Array.map (code idx) values)
  | None ->
      let values = Array.map (Structure.interpretation d) names in
      if Array.exists Option.is_none values then None
      else
        let idx = get d in
        Some (idx, Array.map (fun v -> code idx (Option.get v)) values)

(* Codes in order of first sight: the next code is the table's size. *)
type interner = int ValueTbl.t

let interner () = ValueTbl.create 64

let intern t v =
  match ValueTbl.find_opt t v with
  | Some c -> c
  | None ->
      let c = ValueTbl.length t in
      ValueTbl.add t v c;
      c

let interned = ValueTbl.length

let build_view si (order : int array) =
  let depth = Array.length order in
  let rows = Array.init si.rows (fun r -> r) in
  let cmp a b =
    let rec go l =
      if l = depth then 0
      else
        let col = si.cols.(order.(l)) in
        let d = compare col.(a) col.(b) in
        if d <> 0 then d else go (l + 1)
    in
    go 0
  in
  Array.sort cmp rows;
  Array.init depth (fun l ->
      let col = si.cols.(order.(l)) in
      Array.init si.rows (fun r -> col.(rows.(r))))

let memo_view si (order : int array) =
  Mutex.lock si.views_lock;
  match Hashtbl.find_opt si.views order with
  | Some v ->
      Mutex.unlock si.views_lock;
      v
  | None ->
      (* Build under the lock: views are built once per (relation, order)
         and racing builders would only duplicate work, but the Hashtbl
         itself must not be mutated concurrently. *)
      let v =
        match build_view si order with
        | v ->
            Hashtbl.replace si.views (Array.copy order) v;
            v
        | exception e ->
            Mutex.unlock si.views_lock;
            raise e
      in
      Mutex.unlock si.views_lock;
      v

(* Rows are sorted by [Tuple.compare] and codes follow [Value.compare], so
   under the identity order the code columns already are the view: no sort,
   no copy, nothing memoised. *)
let view si (order : int array) =
  let identity = ref true in
  Array.iteri (fun l pos -> if pos <> l then identity := false) order;
  if !identity then si.cols else memo_view si order

let probe_first arity p =
  Array.init arity (fun l -> if l = 0 then p else if l <= p then l - 1 else l)

(* The first row of [lo, hi) whose code is at least [c], or [hi]. *)
let rec lower_bound (col : int array) lo hi c =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if col.(mid) < c then lower_bound col (mid + 1) hi c else lower_bound col lo mid c

let run col lo hi c =
  let lo = lower_bound col lo hi c in
  (lo, lower_bound col lo hi (c + 1))
