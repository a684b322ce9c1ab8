(* Tests for the parallel sweep layer: the Domain pool, budget sharding,
   and the two cross-cutting contracts the hunt relies on —
   (a) determinism: a seeded hunt returns the same witness whatever the
       jobs count, and
   (b) accounting: under a fuel budget, the total ticks absorbed from the
       shards stay within one fuel block per worker of the one-worker
       spend. *)

open Bagcq_relational
open Bagcq_cq
open Bagcq_search
module Pool = Bagcq_parallel.Pool
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Containment = Bagcq_reduction.Containment

let e = Build.sym "E" 2
let edge_q = Build.(query [ atom e [ v "x"; v "y" ] ])
let loop_q = Build.(query [ atom e [ v "x"; v "x" ] ])
let path_q = Build.(query [ atom e [ v "x"; v "y" ]; atom e [ v "y"; v "z" ] ])

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_sweep_covers_range () =
  List.iter
    (fun (n, chunk, jobs) ->
      let workers = Array.init jobs (fun _ -> ref []) in
      let body seen lo hi =
        seen := (lo, hi) :: !seen;
        `Continue
      in
      Pool.sweep ~chunk ~n ~workers ~body ();
      let all =
        List.sort compare (Array.fold_left (fun acc w -> !w @ acc) [] workers)
      in
      let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 all in
      Alcotest.(check int) (Printf.sprintf "n=%d covered" n) n covered;
      (* chunks are disjoint and contiguous *)
      ignore
        (List.fold_left
           (fun expect (lo, hi) ->
             Alcotest.(check int) "contiguous" expect lo;
             hi)
           0 all))
    [ (100, 7, 1); (100, 7, 4); (5, 64, 3); (0, 8, 2); (1, 1, 2) ]

let test_sweep_serial_order_with_one_worker () =
  let seen = ref [] in
  let workers = [| seen |] in
  Pool.sweep ~chunk:16 ~n:100 ~workers
    ~body:(fun seen lo hi ->
      for i = lo to hi - 1 do
        seen := i :: !seen
      done;
      `Continue)
    ();
  Alcotest.(check (list int)) "exact serial order" (List.init 100 Fun.id)
    (List.rev !seen)

let test_sweep_stop_halts () =
  let workers = [| ref 0 |] in
  Pool.sweep ~chunk:10 ~n:1000 ~workers
    ~body:(fun count lo _hi ->
      incr count;
      if lo >= 30 then `Stop else `Continue)
    ();
  Alcotest.(check int) "stopped after the 4th chunk" 4 !(workers.(0))

let test_sweep_propagates_exception () =
  let workers = Array.init 3 (fun _ -> ()) in
  match
    Pool.sweep ~chunk:4 ~n:64 ~workers
      ~body:(fun () lo _ -> if lo = 16 then failwith "boom" else `Continue)
      ()
  with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let test_sweep_rejects_bad_args () =
  let reject f = match f () with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  reject (fun () -> Pool.sweep ~n:10 ~workers:[||] ~body:(fun _ _ _ -> `Continue) ());
  reject (fun () ->
      Pool.sweep ~chunk:0 ~n:10 ~workers:[| () |] ~body:(fun _ _ _ -> `Continue) ())

let test_default_jobs_env () =
  Unix.putenv Pool.jobs_env_var "3";
  Alcotest.(check int) "BAGCQ_JOBS=3" 3 (Pool.default_jobs ());
  Unix.putenv Pool.jobs_env_var "junk";
  (match Pool.default_jobs () with
  | _ -> Alcotest.fail "junk must be rejected"
  | exception Invalid_argument _ -> ());
  Unix.putenv Pool.jobs_env_var "0";
  (match Pool.default_jobs () with
  | _ -> Alcotest.fail "0 must be rejected"
  | exception Invalid_argument _ -> ());
  Unix.putenv Pool.jobs_env_var "1";
  Alcotest.(check int) "BAGCQ_JOBS=1" 1 (Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Budget sharding                                                     *)
(* ------------------------------------------------------------------ *)

let test_shard_and_absorb () =
  let parent = Budget.create ~fuel:1000 () in
  let pool = Budget.shard_pool ~block:64 parent in
  let s1 = Budget.shard pool and s2 = Budget.shard pool in
  for _ = 1 to 100 do Budget.tick s1 done;
  for _ = 1 to 50 do Budget.tick s2 done;
  Budget.absorb s1 ~into:parent;
  Budget.absorb s2 ~into:parent;
  Alcotest.(check int) "ticks summed into parent" 150 (Budget.ticks parent);
  Alcotest.(check bool) "parent not tripped" true (Budget.tripped parent = None)

let test_shards_share_the_fuel () =
  let parent = Budget.create ~fuel:100 () in
  let pool = Budget.shard_pool ~block:8 parent in
  let shards = Array.init 4 (fun _ -> Budget.shard pool) in
  let spent = ref 0 and tripped = ref 0 in
  Array.iter
    (fun s ->
      try
        for _ = 1 to 1000 do
          Budget.tick s;
          incr spent
        done
      with Budget.Exhausted_ Budget.Fuel -> incr tripped)
    shards;
  Alcotest.(check bool) "some shard tripped" true (!tripped >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "spent %d <= 100 total" !spent)
    true (!spent <= 100);
  (* every tick the shards spent is real fuel: nothing is double-drawn *)
  Array.iter (fun s -> Budget.absorb s ~into:parent) shards;
  Alcotest.(check int) "absorbed = spent" !spent (Budget.ticks parent);
  Alcotest.(check bool) "parent marked tripped" true (Budget.tripped parent <> None)

let test_unlimited_pool_never_trips () =
  let parent = Budget.unlimited () in
  let pool = Budget.shard_pool parent in
  let s = Budget.shard pool in
  for _ = 1 to 10_000 do Budget.tick s done;
  Budget.absorb s ~into:parent;
  Alcotest.(check int) "ticks counted" 10_000 (Budget.ticks parent)

let test_resharding_a_shard_rejected () =
  let parent = Budget.create ~fuel:100 () in
  let s = Budget.shard (Budget.shard_pool parent) in
  match Budget.shard_pool s with
  | _ -> Alcotest.fail "sharding a shard must be rejected"
  | exception Invalid_argument _ -> ()

(* Parallel exhaustion accounting: the ticks a parallel sweep leaves in the
   parent budget are the one-worker spend minus at most one fuel block per
   worker (fuel drawn but not spent when the sweep stopped). *)
let test_sharded_tick_totals_near_serial () =
  (* unlimited, this hunt spends 1 998 ticks at any jobs count: the fuel
     must trip every one of them *)
  let fuel = 1500 in
  let base_ticks =
    let budget = Budget.create ~fuel () in
    match
      Hunt.counterexample_guarded ~jobs:1 ~budget ~small:loop_q ~big:edge_q ()
    with
    | Outcome.Exhausted ((_, progress), Budget.Fuel) -> progress.Hunt.ticks_spent
    | _ -> Alcotest.fail "one-worker hunt must exhaust"
  in
  List.iter
    (fun jobs ->
      let budget = Budget.create ~fuel () in
      match
        Hunt.counterexample_guarded ~jobs ~budget ~small:loop_q ~big:edge_q ()
      with
      | Outcome.Exhausted ((_, _), Budget.Fuel) ->
          let par_ticks = Budget.ticks budget in
          let slack = jobs * Budget.default_shard_block in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: %d ticks within %d of one worker's %d" jobs
               par_ticks slack base_ticks)
            true
            (par_ticks <= fuel && par_ticks >= base_ticks - slack);
          Alcotest.(check bool) "budget marked tripped" true
            (Budget.tripped budget = Some Budget.Fuel)
      | _ -> Alcotest.fail "parallel hunt must exhaust too")
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Hunt determinism across jobs counts                                 *)
(* ------------------------------------------------------------------ *)

let witness_string = function
  | None -> "<none>"
  | Some d -> Format.asprintf "%a" Structure.pp d

let hunt_report ~jobs ~strategy ~small ~big =
  let budget = Budget.unlimited () in
  match Hunt.counterexample_guarded ~strategy ~jobs ~budget ~small ~big () with
  | Outcome.Complete (report, _) -> report
  | Outcome.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_witness_independent_of_jobs () =
  (* exhaustive-phase witness (size 1) and a sampler-phase witness
     (exhaustive disabled): in both cases jobs must not change the answer *)
  List.iter
    (fun (name, strategy) ->
      let reference = hunt_report ~jobs:1 ~strategy ~small:path_q ~big:edge_q in
      List.iter
        (fun jobs ->
          let r = hunt_report ~jobs ~strategy ~small:path_q ~big:edge_q in
          Alcotest.(check string)
            (Printf.sprintf "%s: witness at jobs=%d" name jobs)
            (witness_string reference.Hunt.witness)
            (witness_string r.Hunt.witness);
          Alcotest.(check int)
            (Printf.sprintf "%s: tested_random at jobs=%d" name jobs)
            reference.Hunt.tested_random r.Hunt.tested_random)
        [ 2; 4 ])
    [
      ("exhaustive", Hunt.default);
      ( "sampler-only",
        { Hunt.exhaustive_max_size = 0; sampler = { Sampler.default with Sampler.seed = 77 } }
      );
    ]

let test_fold_totals_independent_of_jobs () =
  let schema = Sampler.schema_of_pair path_q edge_q in
  let totals jobs =
    let worker () = (Bagcq_hom.Eval.create_cache (), ref 0) in
    let states =
      Dbspace.fold ~jobs schema ~max_size:2
        ~worker
        ~f:(fun ~budget (cache, viol) d ->
          if Containment.bag_violation ~budget ~cache ~small:path_q ~big:edge_q d then
            incr viol)
        ()
    in
    Array.fold_left (fun acc (_, v) -> acc + !v) 0 states
  in
  let t1 = totals 1 in
  Alcotest.(check int) "jobs=2 same violations" t1 (totals 2);
  Alcotest.(check int) "jobs=4 same violations" t1 (totals 4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "sweep covers the range" `Quick test_sweep_covers_range;
          Alcotest.test_case "one worker, serial order" `Quick
            test_sweep_serial_order_with_one_worker;
          Alcotest.test_case "stop halts the sweep" `Quick test_sweep_stop_halts;
          Alcotest.test_case "exception propagates" `Quick test_sweep_propagates_exception;
          Alcotest.test_case "bad arguments rejected" `Quick test_sweep_rejects_bad_args;
          Alcotest.test_case "BAGCQ_JOBS parsing" `Quick test_default_jobs_env;
        ] );
      ( "budget-sharding",
        [
          Alcotest.test_case "shard and absorb" `Quick test_shard_and_absorb;
          Alcotest.test_case "shards share the fuel" `Quick test_shards_share_the_fuel;
          Alcotest.test_case "unlimited pool" `Quick test_unlimited_pool_never_trips;
          Alcotest.test_case "resharding rejected" `Quick test_resharding_a_shard_rejected;
          Alcotest.test_case "tick totals near serial" `Quick
            test_sharded_tick_totals_near_serial;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "witness independent of jobs" `Quick
            test_witness_independent_of_jobs;
          Alcotest.test_case "fold_par totals" `Quick
            test_fold_totals_independent_of_jobs;
        ] );
    ]
