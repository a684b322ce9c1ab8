let jobs_env_var = "BAGCQ_JOBS"

let default_jobs () =
  match Sys.getenv_opt jobs_env_var with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "%s: expected a positive integer, got %S" jobs_env_var s))

let default_chunk = 64

module Metrics = Bagcq_obs.Metrics
module Clock = Bagcq_obs.Clock

(* Sweep metrics.  Counters are batched per worker (one atomic add when
   the worker retires); the busy/idle split costs two clock reads per
   claimed chunk — amortised over [chunk] items. *)
let sweeps = Metrics.counter Metrics.global "pool_sweeps"
let chunks_claimed = Metrics.counter Metrics.global "pool_chunks_claimed"
let items_swept = Metrics.counter Metrics.global "pool_items"
let worker_busy_ms = Metrics.histogram Metrics.global "pool_worker_busy_ms"
let worker_idle_ms = Metrics.histogram Metrics.global "pool_worker_idle_ms"

(* Spawning a helper domain costs tens of microseconds up front and — far
   worse — a share of every stop-the-world minor collection for as long
   as it lives.  BENCH_PR4/PR5 measured the result on a 1-core container:
   sweeps at jobs=4 ran 3-4x SLOWER than jobs=1.  Two defences:

   - never run more domains than the hardware has cores
     ([Domain.recommended_domain_count]) — extra domains on a CPU-bound
     sweep can only add synchronisation;
   - defer spawning: the calling domain claims chunks inline first, and
     helpers are paid for only once it has burnt
     [spawn_threshold_ms] of real work with chunks still unclaimed.  A
     sweep whose whole work fits under the threshold — the common case
     for request batches and small database sizes — degrades to exactly
     the sequential path, minus one clock read per chunk. *)
let spawn_threshold_ms = 0.5

(* Shared sweep state: [next] hands out chunk numbers, [stop] is polled
   between chunks.  Chunks are claimed in increasing order and each claimed
   chunk runs to completion, which is what makes min-index witnesses
   deterministic across job counts (see [Dbspace.find_guarded]) —
   deferred spawning preserves both properties, because helpers claim
   through the same atomic counter. *)
let sweep ?(chunk = default_chunk) ~n ~workers ~body () =
  let jobs = Array.length workers in
  if jobs < 1 then invalid_arg "Pool.sweep: need at least one worker";
  if chunk < 1 then invalid_arg "Pool.sweep: chunk must be >= 1";
  if n > 0 then begin
    Metrics.incr sweeps;
    let nchunks = ((n - 1) / chunk) + 1 in
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    let run ?(on_chunk_done = fun () -> ()) w =
      let t_start = Clock.now_ms () in
      let busy = ref 0. and claimed = ref 0 and items = ref 0 in
      let retire () =
        Metrics.add chunks_claimed !claimed;
        Metrics.add items_swept !items;
        Metrics.observe_ms worker_busy_ms !busy;
        Metrics.observe_ms worker_idle_ms
          (Float.max 0. (Clock.elapsed_ms t_start -. !busy))
      in
      try
        let continue = ref true in
        while !continue && not (Atomic.get stop) do
          let c = Atomic.fetch_and_add next 1 in
          if c >= nchunks then continue := false
          else begin
            let lo = c * chunk and hi = min n ((c + 1) * chunk) in
            incr claimed;
            items := !items + (hi - lo);
            let t0 = Clock.now_ms () in
            let verdict = body w lo hi in
            busy := !busy +. Clock.elapsed_ms t0;
            (match verdict with
            | `Continue -> ()
            | `Stop ->
                Atomic.set stop true;
                continue := false);
            if !continue then on_chunk_done ()
          end
        done;
        retire ();
        None
      with e ->
        Atomic.set stop true;
        retire ();
        Some e
    in
    (* Never spawn more domains than there are chunks or cores; with one
       worker nothing is spawned and the sweep runs inline on the calling
       domain, in serial chunk order. *)
    let spawnable =
      min (min jobs nchunks) (max 1 (Domain.recommended_domain_count ()))
    in
    let first_exn =
      if spawnable <= 1 then run workers.(0)
      else begin
        let doms = ref [||] in
        let t0 = Clock.now_ms () in
        let maybe_spawn () =
          if
            Array.length !doms = 0
            && Atomic.get next < nchunks
            && Clock.elapsed_ms t0 >= spawn_threshold_ms
          then
            doms :=
              Array.init (spawnable - 1) (fun i ->
                  Domain.spawn (fun () -> run workers.(i + 1)))
        in
        let here = run ~on_chunk_done:maybe_spawn workers.(0) in
        let rest = Array.map Domain.join !doms in
        Array.fold_left
          (fun acc e -> match acc with Some _ -> acc | None -> e)
          here rest
      end
    in
    match first_exn with Some e -> raise e | None -> ()
  end
