(* Compile benchmark ("compile"): per zoo model, the cold compile's memo
   hit and miss counts and modeled latency, then a store into a fresh
   artifact cache and a recompile that must be served from it
   (lib/store), with the artifact's size on disk.  Writes
   BENCH_compile.json.  Compile wall time, cold and from the cache, is
   the benchmark's compile workload's to measure. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Trace = Gcd2_util.Trace
module Memo = Gcd2_util.Memo

type row = {
  name : string;
  artifact_bytes : int;
  memo_hits : int;
  memo_misses : int;
  latency_ms : float;
}

let measure ~cache_dir (e : Zoo.entry) =
  (* memo tables cleared, no artifact cache: earlier models in the loop
     warm the memo tables for shared kernel specs, which would make the
     counts a part-warm compile's *)
  Memo.clear_all ();
  let cold = Compiler.compile (e.Zoo.build ()) in
  let stored = Compiler.compile ~cache_dir (e.Zoo.build ()) in
  let hit = Compiler.compile ~cache_dir (e.Zoo.build ()) in
  if not (Compiler.from_cache hit) then failwith (e.Zoo.name ^ ": recompile missed the cache");
  {
    name = e.Zoo.name;
    artifact_bytes = Trace.counter stored.Compiler.trace "cache-bytes";
    memo_hits = Trace.counter cold.Compiler.trace "memo-hits";
    memo_misses = Trace.counter cold.Compiler.trace "memo-misses";
    latency_ms = Compiler.latency_ms cold;
  }

let run () =
  let cache_dir = Filename.temp_file "gcd2-bench-cache" "" in
  Sys.remove cache_dir;
  Report.header "compile: memo counts (jobs:1) and artifact cache";
  Printf.printf
    "   (memo tables cleared first; wall time: sh benchmark/run.sh --workload compile)\n\n";
  Printf.printf "   %-18s %10s %7s %7s %12s\n" "model" "artifact" "hits" "misses"
    "latency (ms)";
  let rows = List.map (measure ~cache_dir) Zoo.all in
  Report.rm_rf cache_dir;
  List.iter
    (fun r ->
      Printf.printf "   %-18s %7d KB %7d %7d %12.2f\n" r.name (r.artifact_bytes / 1024)
        r.memo_hits r.memo_misses r.latency_ms)
    rows;
  Report.write ~experiment:"compile" "BENCH_compile.json"
    [
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ("artifact_bytes", Int r.artifact_bytes);
              ("memo_hits", Int r.memo_hits);
              ("memo_misses", Int r.memo_misses);
              ("latency_ms", Float r.latency_ms);
            ])
          rows );
    ]
