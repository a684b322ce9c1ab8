open Bagcq_relational

module ValueTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Index construction is the metric the server dedup test watches: repeated
   evals against one (interned) structure must bump this exactly once. *)
let index_builds =
  Bagcq_obs.Metrics.counter Bagcq_obs.Metrics.global "hom_index_builds"

(* One relation, stored column-major over interned codes.  [tuples] is the
   sorted row store; [cols.(pos).(row)] is the code of the value at
   [pos] — codes are indexes into the structure's sorted domain, so code
   order is [Value.compare] order and every column is a sorted-int problem.
   [by_pos.(pos).(code)] packs the rows holding [code] at [pos] (row order,
   hence [Tuple.compare] order).  [views] memoises the re-sorted trie views
   handed to the leapfrog kernel, keyed by attribute order; the table is
   mutated under [views_lock] because one structure (and hence one index)
   is shared across worker domains. *)
type sym_index = {
  tuples : Tuple.t array;
  cols : int array array;
  by_pos : Tuple.t array array array;
  code_of : int ValueTbl.t;  (* shared with the owning [t] *)
  views : (int array, int array array) Hashtbl.t;
  views_lock : Mutex.t;
}

type t = {
  by_sym : sym_index Symbol.Map.t;
  domain : Value.t array;
  code_of : int ValueTbl.t;
}

let no_tuples : Tuple.t array = [||]

let empty_sym_index arity =
  {
    tuples = no_tuples;
    cols = Array.make arity [||];
    by_pos = Array.make arity [||];
    code_of = ValueTbl.create 1;
    views = Hashtbl.create 1;
    views_lock = Mutex.create ();
  }

let build_sym_index code_of sym tuples =
  let arity = Symbol.arity sym in
  let n = Array.length tuples in
  let cols =
    Array.init arity (fun pos ->
        Array.init n (fun row -> ValueTbl.find code_of tuples.(row).(pos)))
  in
  let by_pos =
    Array.init arity (fun pos ->
        let col = cols.(pos) in
        let top = Array.fold_left max (-1) col in
        let counts = Array.make (top + 1) 0 in
        Array.iter (fun c -> counts.(c) <- counts.(c) + 1) col;
        let groups =
          Array.init (top + 1) (fun c ->
              if counts.(c) = 0 then no_tuples
              else Array.make counts.(c) tuples.(0))
        in
        let fill = Array.make (top + 1) 0 in
        for row = 0 to n - 1 do
          let c = col.(row) in
          groups.(c).(fill.(c)) <- tuples.(row);
          fill.(c) <- fill.(c) + 1
        done;
        groups)
  in
  {
    tuples;
    cols;
    by_pos;
    code_of;
    views = Hashtbl.create 4;
    views_lock = Mutex.create ();
  }

let build d =
  Bagcq_obs.Metrics.incr index_builds;
  let domain = Array.of_list (Value.Set.elements (Structure.domain d)) in
  let code_of = ValueTbl.create (max 16 (Array.length domain)) in
  Array.iteri (fun i v -> ValueTbl.replace code_of v i) domain;
  let by_sym =
    List.fold_left
      (fun acc sym ->
        let tuples = Structure.tuple_array d sym in
        Symbol.Map.add sym (build_sym_index code_of sym tuples) acc)
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
  | None -> empty_sym_index (Symbol.arity sym)

let domain idx = idx.domain
let code idx v = ValueTbl.find_opt idx.code_of v

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

let all si = si.tuples

let candidates (si : sym_index) ~pos v =
  match ValueTbl.find_opt si.code_of v with
  | None -> no_tuples
  | Some c ->
      let groups = si.by_pos.(pos) in
      if c < Array.length groups then groups.(c) else no_tuples

(* [tuples] is sorted by [Tuple.compare]; membership is a binary search. *)
let mem si tup =
  let ts = si.tuples in
  let lo = ref 0 and hi = ref (Array.length ts) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Tuple.compare tup ts.(mid) in
    if c = 0 then found := true
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let build_view si (order : int array) =
  let n = Array.length si.tuples in
  let depth = Array.length order in
  let rows = Array.init n (fun r -> r) in
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
      Array.init n (fun r -> col.(rows.(r))))

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
   under the identity order the column store already is the view: no sort,
   no copy, nothing memoised. *)
let view si (order : int array) =
  let identity = ref true in
  Array.iteri (fun l pos -> if pos <> l then identity := false) order;
  if !identity then si.cols else memo_view si order
