(** Builds the global selection problem (paper Equation 1) for a graph and
    turns a solved assignment into a latency / utilization / bandwidth
    report. *)

module Problem = Gcd2_layout.Problem
module Graph = Gcd2_graph.Graph

type t = {
  graph : Graph.t;
  options : Opcost.options;
  plans : Plan.t array array;  (** per node *)
  problem : Problem.t;
}

(** [build ?jobs options g] — enumerate every node's plan table and
    assemble the selection problem.  [jobs] (default 1) sets the worker
    count for the per-node enumeration ({!Gcd2_util.Pool}); it changes
    wall time only — the result is identical for every value. *)
val build : ?jobs:int -> Opcost.options -> Graph.t -> t

(** Assemble the selection problem from already-enumerated plan tables —
    the cheap tail of {!build}, for rebuilding a [t] from a cached
    artifact's stored plans without re-running plan enumeration. *)
val of_plans : Opcost.options -> Graph.t -> Plan.t array array -> t

type node_report = {
  node : Graph.node;
  plan : Plan.t;
  transform_in : float;  (** TC paid on incoming edges, cycles *)
  cycles : float;  (** roofline node time + incoming transforms *)
}

(** Marshaled into compile artifacts: any layout change requires updating
    {!Gcd2_store.Artifact}[.layout], or stale cache entries decode as
    garbage. *)
type report = {
  per_node : node_report array;
  cycles : float;
  compute_cycles : float;  (** vector-unit busy (kernels + transforms) *)
  staging_cycles : float;
  mem_bytes : float;
  macs : int;
  ms : float;
  utilization : float;  (** busy fraction of total time *)
  bandwidth_gbs : float;  (** achieved DDR traffic, GB/s *)
}

(** Evaluate a full plan assignment. *)
val report : t -> int array -> report
