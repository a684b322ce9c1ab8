(** The leapfrog plan under its old name.  perfbench's replay is the only
    caller; this alias goes with it (ROADMAP item 1). *)

type t = Wcoj.plan

val compile : Bagcq_cq.Query.t -> t
