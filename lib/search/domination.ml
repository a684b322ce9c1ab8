open Bagcq_relational
open Bagcq_cq
module Nat = Bagcq_bignum.Nat
module Eval = Bagcq_hom.Eval

let log_nat n =
  (* log of a bignum via its decimal representation: exact enough for an
     estimator *)
  let s = Nat.to_string n in
  let head = String.sub s 0 (Stdlib.min 15 (String.length s)) in
  log (float_of_string head) +. (float_of_int (String.length s - String.length head) *. log 10.)

let log_ratio ~small ~big d =
  let cs = Eval.count small d and cb = Eval.count big d in
  if Nat.compare cs Nat.two >= 0 && Nat.compare cb Nat.two >= 0 then
    Some (log_nat cs /. log_nat cb)
  else None

type estimate = {
  lower_bound : float;
  witness : Structure.t option;
  usable : int;
}

let estimate ?(config = Sampler.default) ~small ~big () =
  if Query.has_neqs small || Query.has_neqs big then
    invalid_arg "Domination.estimate: inequality-free CQs only";
  let best = ref 0.0 and witness = ref None and usable = ref 0 in
  (* the sample stream at one job, every sample passing, so it visits all
     of them in order *)
  ignore
    (Sampler.check_all
       ~config:{ config with Sampler.require_nontrivial = false }
       ~schema:(Sampler.schema_of_pair small big)
       (fun d ->
         (match log_ratio ~small ~big d with
         | Some r ->
             incr usable;
             if r > !best then begin
               best := r;
               witness := Some d
             end
         | None -> ());
         true));
  (* powering the best witness leaves the ratio invariant in the limit and
     sharpens it in practice (constants wash out) *)
  (match !witness with
  | Some d ->
      List.iter
        (fun k ->
          match log_ratio ~small ~big (Ops.power d k) with
          | Some r when r > !best -> best := r
          | _ -> ())
        [ 2; 3 ]
  | None -> ());
  { lower_bound = !best; witness = !witness; usable = !usable }

let refutes_containment e = e.lower_bound > 1.0
