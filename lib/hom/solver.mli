(** The leapfrog count under its old name, as an [int].  perfbench's
    replay is the only caller; this alias goes with it (ROADMAP item 1). *)

val count_plan :
  ?budget:Bagcq_guard.Budget.t -> Plan.t -> Bagcq_relational.Structure.t -> int
