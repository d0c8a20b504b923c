(** The end-to-end GCD2 compiler (paper Figure 6):

    quantized model -> computational graph -> graph optimizations ->
    {b local plan enumeration} -> {b global layout & instruction
    selection} -> SIMD code-generation plan -> kernels packed by the
    {b SDA} scheduler -> latency/utilization report.

    The driver is an explicit {!Pipeline} of named passes — [validate],
    the graph optimizations ([eliminate-identity-reshapes],
    [fuse-activations]), [build-costs] (plan enumeration, which
    generates, unrolls and SDA-packs every candidate kernel),
    [select:<strategy>] and [report] — each timed into the compile
    {!Trace} together with the counters the deeper layers record
    (fused nodes, partitions, packets packed, stalls inserted).

    The [selection] and [opcost] knobs expose every ablation the paper
    evaluates (local vs global selection, sub-graph size bounds,
    soft-dependency treatments, unrolling strategies, division lookup). *)

module Opcost = Gcd2_cost.Opcost
module Graphcost = Gcd2_cost.Graphcost
module Solver = Gcd2_layout.Solver
module Passes = Gcd2_graph.Passes
module Graph = Gcd2_graph.Graph
module Trace = Gcd2_util.Trace
module Artifact = Gcd2_store.Artifact
module Cache = Gcd2_store.Cache
module Fingerprint = Gcd2_store.Fingerprint

type selection =
  | Local  (** per-operator best plan, transformation costs ignored *)
  | Exhaustive  (** k^n global optimum (tiny graphs only) *)
  | Chain_dp  (** Equation 2; graph must be a chain *)
  | Optimal_dp  (** exact frontier DP over the whole graph *)
  | Partitioned of int  (** GCD2(k): cost-optimal partitioning, part size <= k *)
  | Pbqp  (** Scholz-Eckstein PBQP reductions (the paper's discussed alternative) *)

let pp_selection ppf = function
  | Local -> Fmt.string ppf "local"
  | Exhaustive -> Fmt.string ppf "exhaustive"
  | Chain_dp -> Fmt.string ppf "chain-dp"
  | Optimal_dp -> Fmt.string ppf "optimal-dp"
  | Partitioned k -> Fmt.pf ppf "gcd2(%d)" k
  | Pbqp -> Fmt.string ppf "pbqp"

type config = {
  name : string;
  opcost : Opcost.options;
  selection : selection;
  optimize_graph : bool;  (** activation fusion, identity elimination *)
}

(** The full GCD2 configuration (GCD2(13) selection, SDA packing,
    adaptive unrolling, division lookup). *)
let default =
  { name = "gcd2"; opcost = Opcost.gcd2; selection = Partitioned 13; optimize_graph = true }

(** Retarget a configuration to another device: plan enumeration, the
    roofline, layout-transform pricing and the request fingerprint all
    follow the descriptor. *)
let with_device device config =
  { config with opcost = { config.opcost with Opcost.device } }

(** The device a configuration targets. *)
let device config = config.opcost.Opcost.device

type compiled = {
  config : config;
  graph : Graph.t;  (** graph after optimization passes *)
  cost : Graphcost.t;
  assignment : int array;  (** chosen plan index per node *)
  report : Graphcost.report;
  trace : Trace.t;  (** per-pass wall time and counters of this compile *)
}

let solve selection (cost : Graphcost.t) =
  match selection with
  | Local -> Solver.local cost.Graphcost.problem
  | Exhaustive -> Solver.exhaustive cost.Graphcost.problem
  | Chain_dp -> Solver.chain_dp cost.Graphcost.problem
  | Optimal_dp -> Solver.optimal cost.Graphcost.problem
  | Partitioned k -> Solver.partitioned ~max_size:k cost.Graphcost.problem
  | Pbqp -> Gcd2_layout.Pbqp.solve cost.Graphcost.problem

(* ------------------------------------------------------------------ *)
(* The pass pipeline                                                   *)

(** The artifact flowing through the pipeline: fields fill in as the
    passes run. *)
type artifact = {
  art_graph : Graph.t;
  art_cost : Graphcost.t option;
  art_solved : Solver.result option;
  art_report : Graphcost.report option;
  art_digest : string option;  (** request content-address, set by [cache-lookup] *)
  art_cached : bool;  (** filled from a verified cache entry *)
}

let empty_artifact g =
  {
    art_graph = g;
    art_cost = None;
    art_solved = None;
    art_report = None;
    art_digest = None;
    art_cached = false;
  }

let require what = function
  | Some x -> x
  | None -> invalid_arg (Fmt.str "Compiler: the %S pass did not run" what)

let dump_graph ppf a = Graph.pp ppf a.art_graph

let dump_costs ppf a =
  let cost = require "build-costs" a.art_cost in
  Fmt.pf ppf "%-4s %-26s %s@\n" "id" "operator" "plans";
  Graph.iter
    (fun node ->
      Fmt.pf ppf "%-4d %-26s %a@\n" node.Graph.id
        (Gcd2_graph.Op.name node.Graph.op)
        Fmt.(list ~sep:(any " | ") Gcd2_cost.Plan.pp)
        (Array.to_list cost.Graphcost.plans.(node.Graph.id)))
    a.art_graph

let dump_assignment ppf a =
  let cost = require "build-costs" a.art_cost in
  let solved = require "select" a.art_solved in
  Fmt.pf ppf "cost %.0f@\n" solved.Solver.cost;
  Graph.iter
    (fun node ->
      let v = node.Graph.id in
      Fmt.pf ppf "%-4d %-26s -> %a@\n" v
        (Gcd2_graph.Op.name node.Graph.op)
        Gcd2_cost.Plan.pp
        cost.Graphcost.plans.(v).(solved.Solver.plans.(v)))
    a.art_graph

let dump_report ppf a =
  let r = require "report" a.art_report in
  Fmt.pf ppf "%.2f ms, %.0f cycles, util %.1f%%, %.2f GB/s" r.Graphcost.ms
    r.Graphcost.cycles
    (100.0 *. r.Graphcost.utilization)
    r.Graphcost.bandwidth_gbs

(* Passes already satisfied by a verified cache entry: everything the
   stored artifact carries (the optimized graph, plan tables, assignment
   and report) is skipped outright on a hit. *)
let cached a = a.art_cached

(* The optional graph-rewrite passes, shared between the pipeline and
   [fingerprint] so both always agree on the graph the expensive phases
   consume: (pass name, removed-nodes counter, rewrite). *)
let graph_rewrites config =
  if not config.optimize_graph then []
  else
    [
      ("eliminate-identity-reshapes", "reshapes-eliminated", Passes.eliminate_identity_reshapes);
      ( "fuse-activations",
        "fused-nodes",
        fun g ->
          let g = Passes.fuse_activations g in
          Graph.validate g;
          g );
    ]

(* The graph the selection phases see: the input graph after every
   optimization pass that [disable] leaves enabled. *)
let optimized ~disable config g =
  List.fold_left
    (fun g (name, _, rewrite) -> if List.mem name disable then g else rewrite g)
    g (graph_rewrites config)

(* One graph-rewrite pass, recording how many nodes it removed. *)
let graph_pass (name, counter, rewrite) =
  Pipeline.pass ~dump:dump_graph name (fun _ a ->
      let before = Graph.size a.art_graph in
      let g = rewrite a.art_graph in
      Trace.count counter (before - Graph.size g);
      { a with art_graph = g })

let select_pass_name config = Fmt.str "select:%a" pp_selection config.selection

(* ------------------------------------------------------------------ *)
(* The compile cache                                                    *)

(* Digest of a request whose graph is already optimized — what the
   cache passes compute in the middle of the pipeline, where [g] is the
   artifact's current (post-rewrite) graph. *)
let post_opt_fingerprint ~disable (config : config) (g : Graph.t) =
  Fingerprint.request
    ~selection:(Fmt.str "%a" pp_selection config.selection)
    ~optimize_graph:config.optimize_graph ~disable ~options:config.opcost g

(** Content-address of the request [(g, config, disable)] — the cache
    key.  [g] is the input graph; the digest is computed over its
    optimized form (the op universe plan enumeration and selection
    actually see), so the extensional [supported] bitmap also covers
    fused/rewritten ops. *)
let fingerprint ?(disable = []) (config : config) (g : Graph.t) =
  post_opt_fingerprint ~disable config (optimized ~disable config g)

(* The one digest-keyed cache lookup, shared by the [cache-lookup] pass
   and {!lookup}.  {!Cache.lookup} checks the entry's magic, version
   word, stored digest, length and payload MD5; a verified hit then
   satisfies the whole downstream pipeline: the cost tables are rebuilt
   from the stored plans (cheap — plan enumeration is what the cache
   exists to skip) under the live config's options.  Any corrupt, stale
   or mismatching entry is a miss, never an error. *)
let cached_artifact (config : config) ~dir digest =
  Cache.lookup ~dir digest
  |> Option.map (fun (art, bytes) ->
         Trace.count "cache-hits" 1;
         Trace.count "cache-bytes" bytes;
         {
           art_graph = art.Artifact.graph;
           art_cost = Some (Graphcost.of_plans config.opcost art.Artifact.graph art.Artifact.plans);
           art_solved =
             Some { Solver.plans = art.Artifact.assignment; cost = art.Artifact.objective };
           art_report = Some art.Artifact.report;
           art_digest = Some digest;
           art_cached = true;
         })

(* Consult the on-disk cache for the digest of the rewritten graph. *)
let cache_lookup_pass ~disable dir =
  Pipeline.pass "cache-lookup" (fun (config : config) a ->
      let digest = post_opt_fingerprint ~disable config a.art_graph in
      match cached_artifact config ~dir digest with
      | Some hit -> hit
      | None ->
        Trace.count "cache-misses" 1;
        { a with art_digest = Some digest })

(* Persist the finished compile under its request digest (skipped when
   the compile itself came from the cache; recomputed when [cache-lookup]
   itself was disabled). *)
let cache_store_pass ~disable dir =
  Pipeline.pass ~skip:cached "cache-store" (fun (config : config) a ->
      let digest =
        match a.art_digest with
        | Some d -> d
        | None -> post_opt_fingerprint ~disable config a.art_graph
      in
      let cost = require "build-costs" a.art_cost in
      let solved = require "select" a.art_solved in
      let report = require "report" a.art_report in
      let artifact =
        {
          Artifact.digest;
          graph = a.art_graph;
          plans = cost.Graphcost.plans;
          assignment = solved.Solver.plans;
          objective = solved.Solver.cost;
          report;
          programs =
            Lazy.from_val
              (Artifact.programs_of ~options:config.opcost a.art_graph cost.Graphcost.plans
                 solved.Solver.plans);
        }
      in
      Trace.count "cache-bytes" (Cache.store ~dir artifact);
      a)

(* [jobs] parallelizes plan enumeration only (the one long pass); it is
   deliberately absent from [Fingerprint.request] — worker count cannot
   change the artifact, so compiles at different [jobs] share cache
   entries. *)
let passes ?cache_dir ?(disable = []) ?(jobs = 1) config =
  [ Pipeline.pass "validate" (fun _ a ->
        Graph.validate a.art_graph;
        a) ]
  @ List.map graph_pass (graph_rewrites config)
  (* [cache-lookup] sits after the (cheap) graph rewrites so the digest —
     in particular its extensional [supported] bitmap — covers the op
     universe the expensive passes below actually see. *)
  @ (match cache_dir with Some dir -> [ cache_lookup_pass ~disable dir ] | None -> [])
  @ [
      Pipeline.pass ~dump:dump_costs ~skip:cached "build-costs" (fun (config : config) a ->
          { a with art_cost = Some (Graphcost.build ~jobs config.opcost a.art_graph) });
      Pipeline.pass ~dump:dump_assignment ~skip:cached (select_pass_name config)
        (fun config a ->
          let cost = require "build-costs" a.art_cost in
          { a with art_solved = Some (solve config.selection cost) });
      Pipeline.pass ~dump:dump_report ~skip:cached "report" (fun _ a ->
          let cost = require "build-costs" a.art_cost in
          let solved = require "select" a.art_solved in
          { a with art_report = Some (Graphcost.report cost solved.Solver.plans) });
    ]
  @ match cache_dir with Some dir -> [ cache_store_pass ~disable dir ] | None -> []

(** Pass names of a configuration, in execution order. *)
let pass_names ?cache_dir config = Pipeline.names (passes ?cache_dir config)

(* The compile a finished pipeline artifact describes. *)
let compiled_of config trace art =
  let cost = require "build-costs" art.art_cost in
  let solved = require "select" art.art_solved in
  let report = require "report" art.art_report in
  {
    config;
    graph = art.art_graph;
    cost;
    assignment = solved.Solver.plans;
    report;
    trace;
  }

let compile_exn ?(config = default) ?(sink = Trace.Silent) ?(disable = []) ?(dump_after = [])
    ?dump_ppf ?cache_dir ?jobs ?deadline_ms (g : Graph.t) =
  let jobs = match jobs with Some j -> j | None -> Gcd2_util.Pool.default_jobs () in
  let trace = Trace.create ~sink "compile" in
  let disable = List.sort_uniq String.compare disable in
  let passes =
    List.filter
      (fun p -> not (List.mem p.Pipeline.name disable))
      (passes ?cache_dir ~disable ~jobs config)
  in
  let deadline = Option.map (fun ms -> Trace.now () +. (ms /. 1000.0)) deadline_ms in
  let run_passes () =
    Trace.with_ambient trace @@ fun () ->
    Trace.run_root trace @@ fun () ->
    Pipeline.run ~trace
      ~dump_after:(fun n -> List.mem n dump_after)
      ?dump_ppf passes config (empty_artifact g)
  in
  let art =
    match deadline with
    | Some _ -> Gcd2_util.Deadline.with_deadline deadline run_passes
    | None -> run_passes ()
  in
  compiled_of config trace art

(** Result-typed compile: every failure — malformed request, cache I/O,
    injected fault, expired deadline, plain bug — comes back as a typed
    {!Diag.t} instead of an exception. *)
let compile_result ?config ?sink ?disable ?dump_after ?dump_ppf ?cache_dir ?jobs
    ?deadline_ms (g : Graph.t) =
  match compile_exn ?config ?sink ?disable ?dump_after ?dump_ppf ?cache_dir ?jobs ?deadline_ms g with
  | c -> Ok c
  | exception Diag.Error d -> Error d
  | exception exn -> Error (Diag.of_exn exn)

(** The raising face of {!compile_result}: raises {!Diag.Error}. *)
let compile ?config ?sink ?disable ?dump_after ?dump_ppf ?cache_dir ?jobs ?deadline_ms g =
  match compile_result ?config ?sink ?disable ?dump_after ?dump_ppf ?cache_dir ?jobs ?deadline_ms g with
  | Ok c -> c
  | Error d -> raise (Diag.Error d)

(** A request whose digest is already known, answered straight from its
    cache entry: no graph, no rewrites, no fingerprint.  The trace holds
    one [cache-lookup] span with the counters the pass records.  A miss
    for any reason, an injected [cache-read] fault included, is
    [Error quarantined], counting the entries it moved aside. *)
let lookup ~config ~dir digest =
  let trace = Trace.create "compile" in
  match
    Trace.with_ambient trace @@ fun () ->
    Trace.run_root trace @@ fun () ->
    Trace.with_span trace "cache-lookup" (fun () -> cached_artifact config ~dir digest)
  with
  | Some hit -> Ok (compiled_of config trace hit)
  | None -> Error (Trace.counter trace "cache-quarantined")
  | exception _ -> Error 0

(** Was this compile answered from the on-disk cache? *)
let from_cache c = Trace.counter c.trace "cache-hits" > 0

(** Latency in milliseconds of a compiled model. *)
let latency_ms c = c.report.Graphcost.ms

let pp_phases ppf c =
  Fmt.pf ppf "compile %.3fs (%a)" (Trace.total_seconds c.trace)
    Fmt.(list ~sep:(any ", ") (fun ppf (n, s) -> pf ppf "%s %.3fs" n s))
    (Trace.top_spans c.trace)

let pp_trace ppf c = Trace.pp ppf c.trace

(* One "cache: ..." line, only when the compile consulted a cache. *)
let pp_cache ppf c =
  let hits = Trace.counter c.trace "cache-hits" in
  let misses = Trace.counter c.trace "cache-misses" in
  if hits + misses > 0 then
    Fmt.pf ppf "@\n  cache: %s, %d bytes"
      (if hits > 0 then "hit" else "miss")
      (Trace.counter c.trace "cache-bytes")

let pp_summary ppf c =
  let r = c.report in
  Fmt.pf ppf
    "%s: %d ops, %.2f ms (%.0f cycles), util %.1f%%, %.2f GB/s, %.2f effective TOPS@\n  %a%a"
    c.config.name (Graph.size c.graph) r.Graphcost.ms r.Graphcost.cycles
    (100.0 *. r.Graphcost.utilization)
    r.Graphcost.bandwidth_gbs
    (Gcd2_devices.Desc.tops (device c.config) ~macs:r.Graphcost.macs
       ~cycles:r.Graphcost.cycles)
    pp_phases c pp_cache c
