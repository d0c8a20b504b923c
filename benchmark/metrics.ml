(* The benchmark's workloads and metrics: the list BENCHMARK.json must
   match (the self-tests compare the two) and every run prints.

   End-to-end metrics are measured with tracing off and are defined on
   every workload.  Per-layer metrics come from a separate traced run
   and have no bound.  Every per-layer metric in seconds or
   milliseconds is measured on every workload: each traced run compiles
   its own models cold into a fresh cache and warm from it.  A layer
   only some workloads exercise (the VM, the daemon, the autotuner)
   reports shares, ratios and counts instead, which read 0 where the
   layer does no work.  README.md says which end-to-end metric each one
   should move. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let run_seconds = 15

let workloads =
  [
    ( "compile",
      "every zoo model compiled cold into a fresh cache, then warm from it, plus two tuned \
       compiles: the whole compile path; never runs the VM or the daemon" );
    ( "infer-cnn",
      "MobileNet-V3 inference on the simulated DSP: conv and matmul kernels and the VM \
       dominate; no batched-matmul or row-op kernels" );
    ( "infer-attn",
      "TinyBERT and Conformer at seq 64: per-slice batched-matmul regeneration, softmax and \
       layer-norm row kernels, many host reshapes" );
    ( "serve-zipf",
      "a 2-worker daemon: 20 cold compile-and-store writes queued at once, then open-loop \
       Poisson load over zipf keys on the warm cache; never runs the VM" );
  ]

let workload_names = List.map fst workloads

let e2e name unit_ bound = { name; unit_; better = Lower; bound = Some bound }

let end_to_end =
  [ e2e "latency_ms" "ms" 0.25; e2e "setup_s" "s" 0.25; e2e "peak_rss_mb" "MB" 0.15 ]

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

(* Units of time: a per-layer metric in one of these must be measured
   on every workload, never filled in as 0. *)
let time_units = [ "s"; "ms" ]

(* Operator kinds with their own share of an inference; the rest is
   "other". *)
let kinds =
  [ "conv2d"; "dwconv"; "matmul"; "bmm"; "add"; "mul"; "softmax"; "layer_norm"; "transpose";
    "reshape"; "other" ]

let per_layer =
  [
    (* models and store: graph construction, the cache key *)
    layer "models.build_ms" "ms";
    layer "store.fingerprint_ms" "ms";
    (* core: the pass pipeline, per cold compile (lookup: per warm) *)
    layer "pass.graph_s" "s";
    layer "pass.build_costs_s" "s";
    layer "pass.select_s" "s";
    layer "pass.cache_store_ms" "ms";
    layer "pass.cache_lookup_ms" "ms";
    layer "store.warm_compile_ms" "ms";
    (* codegen, sched, layout, util, cost inside a cold compile *)
    layer "codegen.emit_s" "s";
    layer "sched.pack_s" "s";
    layer "sched.packets" "count";
    layer "sched.stalls" "count";
    layer "layout.partitions" "count";
    layer ~better:Higher "util.memo_hit_ratio" "ratio";
    layer "store.artifact_bytes" "bytes";
    layer "cost.model_mcycles" "Mcycles";
    (* the autotuner, per tuned compile *)
    layer "codegen.tune_slowdown" "ratio";
    layer "codegen.tune_candidates" "count";
    layer "codegen.tune_costed" "count";
    layer ~better:Higher "codegen.tune_pruned_ratio" "ratio";
    (* the runtime replay: shares of an inference *)
    layer "runtime.host_pct" "%";
    layer "tensor.stage_pct" "%";
    layer "codegen.generate_pct" "%";
    layer "sched.pack_pct" "%";
    layer "vm.run_pct" "%";
    layer "tensor.unstage_pct" "%";
    layer "codegen.rowops_pct" "%";
  ]
  @ List.map (fun k -> layer ("runtime.kind." ^ k ^ "_pct") "%") kinds
  @ [
      layer "vm.mcycles" "Mcycles";
      layer ~better:Higher "vm.mcycles_per_s" "Mcycles/s";
      layer ~better:Higher "runtime.vm_nodes" "count";
      layer "runtime.host_nodes" "count";
      layer "runtime.replay_coverage" "ratio";
      (* serve: shares of a request's latency, from the client's and the
         daemon's clocks, and the daemon's own counters *)
      layer "loadgen.late_pct" "%";
      layer "daemon.queue_wait_pct" "%";
      layer "daemon.service_pct" "%";
      layer "daemon.tail_service_pct" "%";
      layer "daemon.cold_service_pct" "%";
      layer "serve.tail_to_median" "ratio";
      layer ~better:Higher "serve.slo_ratio" "ratio";
      layer ~better:Higher "daemon.hit_ratio" "ratio";
      layer "daemon.compiles" "count";
    ]

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m.unit_
  | None -> invalid_arg ("Metrics.unit_of: unknown metric " ^ name)
