(** The end-to-end GCD2 compiler (paper Figure 6), expressed as an
    instrumented {!Pipeline} of named passes: [validate], the graph
    optimizations ([eliminate-identity-reshapes], [fuse-activations]),
    [build-costs] (plan enumeration — kernel generation, unrolling and
    SDA packing), [select:<strategy>], [report].  Every compile carries
    a {!Gcd2_util.Trace} with per-pass wall time and the counters the
    deeper layers record (fused nodes, partitions, packets, stalls).
    The knobs expose every ablation of the paper's Section V.

    With [?cache_dir] the pipeline gains a [cache-lookup] /
    [cache-store] pair consulting the {!Gcd2_store.Cache}
    content-addressed artifact store.  [cache-lookup] runs right after
    the (cheap) graph optimizations, so the request digest is computed
    over the op universe the expensive passes actually see; a verified
    hit then satisfies every expensive pass ([build-costs], [select] and
    [report] do not run at all) and the compile is reconstructed from
    the stored artifact, bit-identical to the cold compile that stored
    it.  Hits, misses and bytes moved are recorded as [cache-hits] /
    [cache-misses] / [cache-bytes] trace counters; any corrupt or stale
    entry is silently a miss. *)

module Opcost = Gcd2_cost.Opcost
module Graphcost = Gcd2_cost.Graphcost
module Graph = Gcd2_graph.Graph
module Trace = Gcd2_util.Trace

type selection =
  | Local  (** per-operator best plan, transformation costs ignored *)
  | Exhaustive  (** k^n global optimum (tiny graphs only) *)
  | Chain_dp  (** Equation 2; the graph must be a chain *)
  | Optimal_dp  (** exact frontier DP over the whole graph *)
  | Partitioned of int  (** GCD2(k): cost-optimal partitioning, parts <= k *)
  | Pbqp  (** Scholz-Eckstein PBQP reductions *)

val pp_selection : Format.formatter -> selection -> unit

type config = {
  name : string;
  opcost : Opcost.options;
  selection : selection;
  optimize_graph : bool;  (** activation fusion, identity elimination *)
}

(** The full GCD2 configuration: GCD2(13) selection, SDA packing, adaptive
    unrolling, division lookup, targeting
    {!Gcd2_devices.Desc.hexagon698}. *)
val default : config

(** Retarget a configuration to another device: plan enumeration, the
    roofline, layout-transform pricing and the request fingerprint all
    follow the descriptor. *)
val with_device : Gcd2_devices.Desc.t -> config -> config

(** The device a configuration targets. *)
val device : config -> Gcd2_devices.Desc.t

type compiled = {
  config : config;
  graph : Graph.t;  (** graph after optimization passes *)
  cost : Graphcost.t;
  assignment : int array;  (** chosen plan index per node *)
  report : Graphcost.report;
  trace : Trace.t;  (** per-pass wall time and counters of this compile *)
}

(** Pass names of a configuration, in execution order (the [select] pass
    is named after the strategy, e.g. ["select:gcd2(13)"]; with
    [?cache_dir], [cache-lookup] follows the graph optimizations and
    [cache-store] closes the list). *)
val pass_names : ?cache_dir:string -> config -> string list

(** Content-address of the request [(g, config, disable)] — the key
    under which the compile cache stores/finds its artifact
    ({!Gcd2_store.Fingerprint.request}).  [g] is the input graph; the
    digest is computed over its optimized form, the op universe plan
    enumeration and selection actually see.  [disable] (default [[]])
    must match the [?disable] list the compile runs with: an ablated
    compile never shares an entry with a full one. *)
val fingerprint : ?disable:string list -> config -> Graph.t -> string

(** [compile_result ?config ?sink ?disable ?dump_after ?dump_ppf
    ?cache_dir ?jobs ?deadline_ms g] runs the pass pipeline over [g].

    - [sink] streams every closed trace span (default {!Trace.Silent});
    - [disable] skips the named passes (only the optional graph
      optimizations may be disabled safely — disabling a structural
      pass yields an [Invalid_request] diagnostic);
    - [dump_after] prints the artifact after each named pass to
      [dump_ppf] (default stderr);
    - [cache_dir] enables the content-addressed compile cache rooted at
      that directory (created on first store);
    - [jobs] (default [$GCD2_JOBS], else 1) sets the worker count of
      plan enumeration ({!Gcd2_util.Pool}).  Semantically inert: the
      compiled result is identical for every value, and [jobs] is
      deliberately excluded from {!fingerprint}, so compiles at
      different worker counts share cache entries;
    - [deadline_ms] bounds the compile's wall clock: an ambient
      {!Gcd2_util.Deadline} is installed and checked before every pass
      and every plan-enumeration task, and an expired deadline comes
      back as a [Deadline_exceeded] diagnostic.

    Every failure is a typed [Error] ({!Diag.t}) carrying the error
    code, the failing pass, a message and whether a retry can help —
    the pipeline never lets a raw exception cross this boundary. *)
val compile_result :
  ?config:config ->
  ?sink:Trace.sink ->
  ?disable:string list ->
  ?dump_after:string list ->
  ?dump_ppf:Format.formatter ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?deadline_ms:float ->
  Graph.t ->
  (compiled, Diag.t) result

(** The raising face of {!compile_result}: identical behaviour, but a
    failure raises {!Diag.Error} instead of returning [Error]. *)
val compile :
  ?config:config ->
  ?sink:Trace.sink ->
  ?disable:string list ->
  ?dump_after:string list ->
  ?dump_ppf:Format.formatter ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?deadline_ms:float ->
  Graph.t ->
  compiled

(** [lookup ~config ~dir digest] answers a request whose digest
    ({!fingerprint}) is already known straight from its cache entry under
    [dir]: no graph is resolved, rewritten or fingerprinted.  It is the
    lookup the [cache-lookup] pass makes, with the same checks (magic,
    version word, stored digest, length, payload MD5), the same result
    and the same [cache-hits] / [cache-bytes] counters, in a trace of
    one [cache-lookup] span.  [Error quarantined] on a miss for any
    reason — absent, corrupt or stale entry, or an injected [cache-read]
    fault — with the number of corrupt entries it moved aside (0 or 1).
    Never raises. *)
val lookup : config:config -> dir:string -> string -> (compiled, int) result

(** Was this compile answered from the on-disk cache? *)
val from_cache : compiled -> bool

(** Latency in milliseconds. *)
val latency_ms : compiled -> float

(** One line of per-pass compile seconds. *)
val pp_phases : Format.formatter -> compiled -> unit

(** The full trace tree: per-pass and per-sub-span wall time, call
    counts and counters. *)
val pp_trace : Format.formatter -> compiled -> unit

val pp_summary : Format.formatter -> compiled -> unit
