open Bagcq_relational
open Bagcq_cq
module Budget = Bagcq_guard.Budget
module Outcome = Bagcq_guard.Outcome
module Pool = Bagcq_parallel.Pool

type config = {
  sizes : int list;
  densities : float list;
  samples : int;
  seed : int;
  require_nontrivial : bool;
}

let default =
  {
    sizes = [ 1; 2; 3; 4 ];
    densities = [ 0.15; 0.4; 0.8 ];
    samples = 200;
    seed = 0x5eed;
    require_nontrivial = true;
  }

type outcome = {
  witness : Structure.t option;
  tested : int;
}

let schema_of_pair q1 q2 = Schema.union (Query.schema q1) (Query.schema q2)

(* Samples per RNG: chunk [c] draws samples [16c .. 16c + 15] from one
   generator seeded with (seed, 16c). *)
let chunk = 16

type batch_worker = {
  w_budget : Budget.t;
  mutable w_tested : int;
  mutable w_found : (int * Structure.t) option;  (* global sample index *)
}

(* The one sampling loop.  Each chunk of samples gets its own RNG seeded
   from (seed, chunk start), and the size/density schedule follows the
   global sample index, so sample [i] depends only on the seed and [i]
   whatever the job count.  Only a trip of the worker's own budget stops
   the sweep; a trip of any other budget is the predicate's own failure
   and propagates, after the shards' ticks are absorbed (the rule
   [Dbspace.sweep] follows). *)
let sample_batches_guarded ~budget ?(jobs = 1) config schema pred =
  if jobs < 1 then invalid_arg "Sampler.sample_batches_guarded: jobs must be >= 1";
  let pool = if jobs = 1 then None else Some (Budget.shard_pool budget) in
  let workers =
    Array.init jobs (fun _ ->
        {
          w_budget = (match pool with None -> budget | Some p -> Budget.shard p);
          w_tested = 0;
          w_found = None;
        })
  in
  let sizes = Array.of_list config.sizes in
  let densities = Array.of_list config.densities in
  let best_lo = Atomic.make max_int in
  let body w lo hi =
    if Atomic.get best_lo <= lo then `Continue
    else begin
      try
        let rng = Random.State.make [| config.seed; lo |] in
        (try
           for i = lo to hi - 1 do
             Budget.tick w.w_budget;
             let size = sizes.(i mod Array.length sizes) in
             let density = densities.(i / Array.length sizes mod Array.length densities) in
             let d =
               if config.require_nontrivial then
                 Generate.random_nontrivial ~density rng schema ~size
               else Generate.random ~density rng schema ~size
             in
             w.w_tested <- w.w_tested + 1;
             if pred ~budget:w.w_budget d then begin
               w.w_found <- Some (i, d);
               let rec lower () =
                 let cur = Atomic.get best_lo in
                 if lo < cur && not (Atomic.compare_and_set best_lo cur lo) then lower ()
               in
               lower ();
               raise_notrace Exit
             end
           done
         with Exit -> ());
        `Continue
      with Budget.Exhausted_ _ when Budget.tripped w.w_budget <> None -> `Stop
    end
  in
  let absorb () =
    if Option.is_some pool then
      Array.iter (fun w -> Budget.absorb w.w_budget ~into:budget) workers
  in
  Fun.protect ~finally:absorb (fun () ->
      Pool.sweep ~chunk ~n:config.samples ~workers ~body ());
  let tested = Array.fold_left (fun a w -> a + w.w_tested) 0 workers in
  let witness =
    Array.fold_left
      (fun best w ->
        match (w.w_found, best) with
        | Some (i, d), None -> Some (i, d)
        | Some (i, d), Some (j, _) when i < j -> Some (i, d)
        | _ -> best)
      None workers
  in
  match (witness, Budget.tripped budget) with
  | Some (_, d), _ -> Outcome.Complete { witness = Some d; tested }
  | None, Some r -> Outcome.Exhausted ({ witness = None; tested }, r)
  | None, None -> Outcome.Complete { witness = None; tested }

(* No budget of its own, so nothing stops it but a failing sample. *)
let check_all ?(config = default) ~schema pred =
  match
    sample_batches_guarded ~budget:(Budget.unlimited ()) config schema (fun ~budget:_ d ->
        not (pred d))
  with
  | Outcome.Complete o | Outcome.Exhausted (o, _) -> o
