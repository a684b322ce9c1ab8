(* The four request scripts.  Every byte a run sends is generated here
   from the seed, before any server starts, so the timed window does no
   generation and two runs with one seed send identical bytes.

   A script has three parts: [fixtures] (named databases and
   registrations), [warmup] (requests that build indexes, trie views and
   plans, and on eval-inline fill the result memo to its cap) and
   [timed].  Set-up time covers process start through the last warm-up
   answer. *)

module Json = Bagcq_wire.Json

type t = {
  name : string;
  fixtures : string list;
  warmup : string list;
  timed : string array;
  classes : string array;  (* the class of each timed request *)
}

let names = [ "eval-inline"; "eval-named"; "store-churn"; "hunt-contained" ]

(* Timed requests per second of [--seconds]: the seed code serves each
   workload at roughly this rate, so a run's window lasts about
   [--seconds], while the script itself stays fixed for a given
   [--seconds] (peak RSS grows with requests served, so a time-bounded
   window would let speed leak into the memory metric). *)
let rate = function
  | "eval-inline" -> 190
  | "eval-named" -> 170
  | "store-churn" -> 185
  | "hunt-contained" -> 100
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------------- request lines ---------------- *)

let next_id = ref 0

let line op fields =
  incr next_id;
  Json.to_string
    (Json.Obj (("id", Json.Int !next_id) :: ("op", Json.Str op) :: fields))

let str s = Json.Str s
let eval_inline q db = line "eval" [ ("query", str q); ("db", str db) ]
let eval_named q name = line "eval" [ ("query", str q); ("db_name", str name) ]
let db_create name db = line "db_create" [ ("name", str name); ("db", str db) ]
let register name q = line "register" [ ("name", str name); ("query", str q) ]
let insert name fact = line "db_insert" [ ("name", str name); ("fact", str fact) ]
let delete name fact = line "db_delete" [ ("name", str name); ("fact", str fact) ]
let counts name = line "counts" [ ("name", str name) ]

let hunt ~small ~big ~samples ~seed =
  line "hunt"
    [
      ("small", str small);
      ("big", str big);
      ("samples", Json.Int samples);
      ("exhaustive_size", Json.Int 3);
      ("seed", Json.Int seed);
    ]

(* ---------------- shared generators ---------------- *)

(* [edges] distinct directed pairs over [0, vertices), in draw order. *)
let random_edges st ~vertices ~edges =
  let seen = Hashtbl.create edges in
  let rec go acc k =
    if k = edges then List.rev acc
    else
      let e = (Random.State.int st vertices, Random.State.int st vertices) in
      if Hashtbl.mem seen e then go acc k
      else begin
        Hashtbl.add seen e ();
        go (e :: acc) (k + 1)
      end
  in
  go [] 0

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A random [degree]-regular digraph (every vertex has [degree] out- and
   in-edges): the union of [degree] random permutations that share no
   edge.  Walk counts — hence the DP classes' work — are then the same
   for every seed (n·d^k walks of length k), and cyclic counts vary only
   a little, which keeps run-to-run spread low while the seed still
   changes the graph. *)
let regular_edges st ~vertices ~degree =
  let seen = Hashtbl.create (vertices * degree) in
  let rec perm () =
    let p = shuffle st (Array.init vertices Fun.id) in
    if Array.exists Fun.id (Array.mapi (fun v w -> Hashtbl.mem seen (v, w)) p) then perm ()
    else begin
      Array.iteri (fun v w -> Hashtbl.add seen (v, w) ()) p;
      Array.to_list (Array.mapi (fun v w -> (v, w)) p)
    end
  in
  List.concat (List.init degree (fun _ -> perm ()))

(* A named-vertex graph: every vertex is declared a constant, so a query
   can pin one as ['v17']; bare digits in a query are variables. *)
let named_graph st ~vertices ~degree =
  let es = regular_edges st ~vertices ~degree in
  let consts = List.init vertices (Printf.sprintf "const v%d.") in
  let facts = List.map (fun (a, b) -> Printf.sprintf "E(v%d,v%d)." a b) es in
  (String.concat " " consts ^ "\n" ^ String.concat " " facts, es)

(* [k] variable-disjoint copies of a path of [len] edges: θ↑k. *)
let path_power ~len k =
  String.concat " & "
    (List.init k (fun c ->
         String.concat " & "
           (List.init len (fun i -> Printf.sprintf "E(p%d_%d,p%d_%d)" c i c (i + 1)))))

(* [n] class indexes in random order, with exactly [share]% of [n] of
   each class (percent shares summing to 100; rounding goes to the
   first class).  Exact shares keep the mix — and so the mean cost —
   identical from seed to seed. *)
let schedule st shares n =
  let counts = Array.map (fun (_, pct) -> n * pct / 100) shares in
  counts.(0) <- counts.(0) + (n - Array.fold_left ( + ) 0 counts);
  let a = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun c m ->
      for _ = 1 to m do
        a.(!k) <- c;
        incr k
      done)
    counts;
  shuffle st a

(* ---------------- eval-inline ---------------- *)

(* Shapes chosen so each planner strategy runs: the join-tree DP, the
   leapfrog kernel, backtracking (w occurs only in the inequality) and a
   disjoint power (one component, raised by Nat.pow). *)
let inline_queries =
  [|
    (("dp-path2", "E(x,y) & E(y,z)"), 15);
    (("dp-path3", "E(x,y) & E(y,z) & E(z,w)"), 14);
    (("dp-star3", "E(x,y) & E(x,z) & E(x,w)"), 14);
    (("wcoj-triangle", "E(x,y) & E(y,z) & E(z,x)"), 14);
    (("wcoj-cycle4", "E(x,y) & E(y,z) & E(z,w) & E(w,x)"), 14);
    (("backtrack-neq", "E(x,y) & w != y"), 14);
    (("pow-path2x8", path_power ~len:2 8), 15);
  |]

(* [n] random graphs whose sizes are spread evenly over 100..800 facts
   (in random order), on about 3·sqrt(size) vertices. *)
let inline_evals st n =
  let sizes = shuffle st (Array.init n (fun i -> 100 + (700 * ((2 * i) + 1) / (2 * n)))) in
  let classes = schedule st inline_queries n in
  Array.init n (fun i ->
      let size = sizes.(i) in
      let vertices = max 12 (int_of_float (3. *. sqrt (float_of_int size))) in
      let db =
        String.concat " "
          (List.map
             (fun (a, b) -> Printf.sprintf "E(%d,%d)." a b)
             (random_edges st ~vertices ~edges:size))
      in
      let cls, q = fst inline_queries.(classes.(i)) in
      (eval_inline q db, cls))

(* One write in 50 (2 %): p99 then sits inside the write mode, whose
   cost is the result memo's [evict_db] scan over 1,024 inline keys. *)
let eval_inline_script st ~n =
  let w_edges = random_edges st ~vertices:20 ~edges:40 in
  let w_db =
    String.concat " "
      (List.map (fun (a, b) -> Printf.sprintf "E(w%d,w%d)." a b) w_edges)
  in
  let present = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace present e ()) w_edges;
  let fresh_fact () =
    let rec go () =
      let e = (Random.State.int st 20, Random.State.int st 20) in
      if Hashtbl.mem present e then go () else e
    in
    let a, b = go () in
    Printf.sprintf "E(w%d,w%d)" a b
  in
  let fixtures = [ db_create "w" w_db ] in
  let warmup = Array.to_list (Array.map fst (inline_evals st 1024)) in
  let evals = inline_evals st n in
  let pending = ref None in
  let timed =
    Array.init n (fun i ->
        if i mod 50 = 25 then
          match !pending with
          | None ->
              let f = fresh_fact () in
              pending := Some f;
              (insert "w" f, "write")
          | Some f ->
              pending := None;
              (delete "w" f, "write")
        else evals.(i))
  in
  (fixtures, warmup, timed)

(* ---------------- eval-named ---------------- *)

(* Each query is a heavy constant-free component (its plan repeats) and
   a pinned component [E('vK',qJ)] whose (vertex, variable) pair is never
   reused on the same database and class, so no result repeats.  Requests
   visit g0, g1, g2 round-robin, so every request moves evaluation to
   another structure and flushes the shared count memo: the heavy
   component is recounted each time.  The latency modes lie in the order
   wcoj-cycle4 < dp-path4 < pow-path3x150 < backtrack-neq < ghd; the
   shares (percent) put p50 in the middle of the power class's mode (36 %
   of requests are faster, 36 % slower) and p99 in the middle of the 2 %
   hypertree mode, the slowest, rather than on the tail of a larger one. *)
let named_classes =
  [|
    (("dp-path4", "E(x,y) & E(y,z) & E(z,w) & E(w,u)"), 18);
    (("wcoj-cycle4", "E(x,y) & E(y,z) & E(z,w) & E(w,x)"), 18);
    ( ( "ghd-fused-cycle4x2",
        "E(x0,x1) & E(x1,x2) & E(x2,x3) & E(x3,x0) & E(x0,y1) & E(y1,y2) & \
         E(y2,y3) & E(y3,x0)" ),
      2 );
    (("backtrack-neq", "E(x,y) & w != y"), 34);
    (("pow-path3x150", path_power ~len:3 150), 28);
  |]

let named_dbs = 3
let named_vertices = 250
let named_degree = 4

let eval_named_script st ~n =
  let graphs =
    Array.init named_dbs (fun _ ->
        named_graph st ~vertices:named_vertices ~degree:named_degree)
  in
  let fixtures =
    List.init named_dbs (fun g -> db_create (Printf.sprintf "g%d" g) (fst graphs.(g)))
  in
  (* Every vertex has out-edges, so no pinned count is zero (a zero
     would let the evaluator skip the heavy component).  The k-th pin of
     a (database, class) pair is vertex [vs.(k mod 250)] with variable
     [q(k / 250)]: the variable name keeps the result-memo key new once
     every vertex has been pinned, at the same cost, so any --seconds
     works. *)
  let pins =
    Array.init named_dbs (fun _ ->
        Array.init (Array.length named_classes) (fun _ ->
            (ref 0, shuffle st (Array.init named_vertices Fun.id))))
  in
  let request cls g =
    let next, vs = pins.(g).(cls) in
    let k = !next in
    incr next;
    let name, q = fst named_classes.(cls) in
    ( eval_named
        (Printf.sprintf "%s & E('v%d',q%d)" q vs.(k mod named_vertices) (k / named_vertices))
        (Printf.sprintf "g%d" g),
      name )
  in
  let warmup =
    List.concat
      (List.init (Array.length named_classes) (fun cls ->
           List.init named_dbs (fun g -> fst (request cls g))))
  in
  let classes = schedule st named_classes n in
  let timed = Array.init n (fun i -> request classes.(i) (i mod named_dbs)) in
  (fixtures, warmup, timed)

(* ---------------- store-churn ---------------- *)

(* One database with an acyclic registration (maintained through DP
   deltas) and a cyclic one (recounted).  Each cycle inserts a fresh
   edge, reads the registered counts, evaluates by name and deletes the
   edge again, so the database returns to its initial state and the
   workload stays stationary.  A second database would add a second,
   differently shaped graph and split every latency mode in two. *)
let churn_vertices = 200
let churn_degree = 5

(* Evals cost more than a mutation, so p50 falls inside the mutation
   mode (counts < mutations < evals); one eval in twelve (2 % of
   requests) is a heavy hypertree query, so p99 falls inside that mode
   rather than on the tail of the 5-cycle mode. *)
let churn_queries =
  [|
    ("eval-wcoj-cycle5", "E(x,y) & E(y,z) & E(z,w) & E(w,u) & E(u,x)");
    ( "eval-ghd-fused-cycle4x2",
      "E(x0,x1) & E(x1,x2) & E(x2,x3) & E(x3,x0) & E(x0,y1) & E(y1,y2) & \
       E(y2,y3) & E(y3,x0)" );
  |]

let store_churn_script st ~n =
  let db, edges = named_graph st ~vertices:churn_vertices ~degree:churn_degree in
  let fixtures =
    [
      db_create "s0" db;
      register "s0" "E(x,y) & E(y,z) & E(z,w)";
      register "s0" "E(x,y) & E(y,z) & E(z,x)";
    ]
  in
  let present = Hashtbl.create (List.length edges) in
  List.iter (fun e -> Hashtbl.replace present e ()) edges;
  let cycle k =
    let rec fresh () =
      let e = (Random.State.int st churn_vertices, Random.State.int st churn_vertices) in
      if Hashtbl.mem present e then fresh () else e
    in
    let a, b = fresh () in
    let fact = Printf.sprintf "E(v%d,v%d)" a b in
    let cls, q = churn_queries.(if k mod 12 = 6 then 1 else 0) in
    [
      (insert "s0" fact, "insert");
      (counts "s0", "counts");
      (eval_named q "s0", cls);
      (delete "s0" fact, "delete");
    ]
  in
  let warmup = List.map fst (List.concat (List.init 4 cycle)) in
  let timed = Array.of_list (List.concat (List.init ((n + 3) / 4) (fun k -> cycle (k + 4)))) in
  (fixtures, warmup, timed)

(* ---------------- hunt-contained ---------------- *)

(* Bag-contained pairs: no witness exists, so every hunt runs its whole
   exhaustive sweep (domain size 3) and then its random samples.  Each
   pair's sample counts are spread evenly over a range (in random
   order), as eval-inline spreads database sizes: a pair's latencies
   then form a continuum rather than a spike, and the pairs' modes
   overlap into one, so no quantile sits on a gap between two spikes
   (on a shared 2-vCPU KVM guest whose CPUs switch between two speeds
   about 1.6x apart, fixed sample counts split every spike in two and
   p50 jumped between the halves).  The
   4-cycle pair at 2 % draws 600-1,400 samples, which lifts its mode
   above the others' tails, so p99 falls in the middle of that mode. *)
let hunt_pairs =
  [|
    (("loop<=edge", "E(x,x)", "E(x,y)", (16, 208)), 30);
    (("cycle2<=edge", "E(x,y) & E(y,x)", "E(x,y)", (16, 208)), 45);
    (("triangle<=path2", "E(x,y) & E(y,z) & E(z,x)", "E(x,y) & E(y,z)", (16, 208)), 23);
    ( ( "cycle4<=path3",
        "E(x,y) & E(y,z) & E(z,w) & E(w,x)",
        "E(x,y) & E(y,z) & E(z,w)",
        (600, 1400) ),
      2 );
  |]

let hunt_script st ~seed ~n =
  (* Hunt seeds only vary the random phase; distinct seeds keep every
     request key distinct. *)
  let base = (seed land 0xffff) * 1_000_000 in
  let req p samples s =
    let (cls, small, big, _), _ = hunt_pairs.(p) in
    (hunt ~small ~big ~samples ~seed:s, cls)
  in
  let warmup =
    List.concat
      (List.init (Array.length hunt_pairs) (fun p ->
           let (_, _, _, (lo, hi)), _ = hunt_pairs.(p) in
           [ fst (req p lo (base + 900_000 + p)); fst (req p hi (base + 900_100 + p)) ]))
  in
  let pairs = schedule st hunt_pairs n in
  let samples =
    Array.mapi
      (fun p ((_, _, _, (lo, hi)), _) ->
        let m = Array.fold_left (fun acc q -> if q = p then acc + 1 else acc) 0 pairs in
        (ref 0, shuffle st (Array.init m (fun i -> lo + ((hi - lo) * ((2 * i) + 1) / (2 * m))))))
      hunt_pairs
  in
  let timed =
    Array.init n (fun i ->
        let p = pairs.(i) in
        let next, counts = samples.(p) in
        let k = !next in
        incr next;
        req p counts.(k) (base + i))
  in
  ([], warmup, timed)

(* ---------------- entry point ---------------- *)

let make ~workload ~seed ~n =
  next_id := 0;
  let tag = Hashtbl.hash workload in
  let st = Random.State.make [| seed; tag |] in
  let fixtures, warmup, timed =
    match workload with
    | "eval-inline" -> eval_inline_script st ~n
    | "eval-named" -> eval_named_script st ~n
    | "store-churn" -> store_churn_script st ~n
    | "hunt-contained" -> hunt_script st ~seed ~n
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  { name = workload; fixtures; warmup; timed = Array.map fst timed; classes = Array.map snd timed }

let digest t =
  let b = Buffer.create 4096 in
  List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') t.fixtures;
  List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') t.warmup;
  Array.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') t.timed;
  Digest.to_hex (Digest.string (Buffer.contents b))
