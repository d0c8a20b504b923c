(* Compile-time benchmark ("compile"): per zoo model, the cold compile
   wall time at jobs:1, split into total and the build-costs pass that
   dominates it; the same-process warm recompile that kernel-cost
   memoization makes a distinct population; then a store into a fresh
   artifact cache and the verified hit that serves the recompile from
   it (lib/store), with the artifact's size on disk.  Writes
   BENCH_compile.json. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Trace = Gcd2_util.Trace
module Memo = Gcd2_util.Memo
module Stats = Gcd2_util.Stats

type row = {
  name : string;
  cold_s : float;
  build_costs_s : float;
  warm_s : float;
  hit_s : float;
  artifact_bytes : int;
  memo_hits : int;
  memo_misses : int;
  latency_ms : float;
}

let measure ~cache_dir (e : Zoo.entry) =
  (* cold = process-cold: memo tables cleared, no artifact cache.
     Earlier models in the loop warm the memo tables for shared kernel
     specs, which would make "cold" silently measure a part-warm
     compile. *)
  Memo.clear_all ();
  let cold, cold_s = Report.timed (fun () -> Compiler.compile (e.Zoo.build ())) in
  (* warm = same process, memo tables kept: what a repeat request costs
     inside one serve process even without the artifact cache *)
  let _, warm_s = Report.timed (fun () -> Compiler.compile (e.Zoo.build ())) in
  let stored = Compiler.compile ~cache_dir (e.Zoo.build ()) in
  let hit, hit_s = Report.timed (fun () -> Compiler.compile ~cache_dir (e.Zoo.build ())) in
  if not (Compiler.from_cache hit) then failwith (e.Zoo.name ^ ": recompile missed the cache");
  {
    name = e.Zoo.name;
    cold_s;
    build_costs_s = Trace.span_seconds cold.Compiler.trace "build-costs";
    warm_s;
    hit_s;
    artifact_bytes = Trace.counter stored.Compiler.trace "cache-bytes";
    memo_hits = Trace.counter cold.Compiler.trace "memo-hits";
    memo_misses = Trace.counter cold.Compiler.trace "memo-misses";
    latency_ms = Compiler.latency_ms cold;
  }

let run () =
  let cache_dir = Filename.temp_file "gcd2-bench-cache" "" in
  Sys.remove cache_dir;
  Report.header "compile: per-model compile wall time (jobs:1) and artifact cache";
  Printf.printf
    "   (cold = memo tables cleared first; warm = same-process recompile;\n\
    \    hit = verified artifact-cache hit)\n\n";
  Printf.printf "   %-18s %10s %14s %10s %10s %10s %7s %7s\n" "model" "cold (s)"
    "build-costs" "warm (s)" "hit (s)" "artifact" "hits" "misses";
  let rows = List.map (measure ~cache_dir) Zoo.all in
  Report.rm_rf cache_dir;
  List.iter
    (fun r ->
      Printf.printf "   %-18s %10.3f %14.3f %10.4f %10.4f %7d KB %7d %7d\n" r.name r.cold_s
        r.build_costs_s r.warm_s r.hit_s (r.artifact_bytes / 1024) r.memo_hits
        r.memo_misses)
    rows;
  Printf.printf "\n   geomean cold/hit speedup %.0fx\n"
    (Stats.geomean (List.map (fun r -> r.cold_s /. Float.max r.hit_s 1e-9) rows));
  Report.write ~experiment:"compile" "BENCH_compile.json"
    [
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ("cold_s", Float r.cold_s);
              ("build_costs_s", Float r.build_costs_s);
              ("warm_s", Float r.warm_s);
              ("hit_s", Float r.hit_s);
              ("artifact_bytes", Int r.artifact_bytes);
              ("memo_hits", Int r.memo_hits);
              ("memo_misses", Int r.memo_misses);
              ("latency_ms", Float r.latency_ms);
            ])
          rows );
    ]
