(* compile: every zoo model, one worker, in a seeded order per round.

   Set-up (three times, median reported): build every graph and compile
   each once without a cache, so the timed compiles run in a warm
   process.  Per model: clear the memo tables, compile cold into a fresh
   cache directory (miss plus store), then compile again from it (hit
   plus decode).  The first round always completes; after it, models
   compile until the time is up, about three rounds.  A traced run then
   makes cold tuned compiles (default budget) of TinyBERT and WDSR-b.

   Tuned compiles stay out of the timed run: two of them take 12 s, so a
   run that held them would time each model once, and one slow moment
   would move the result.

   Checks: the warm compile is a cache hit whose assignment and [%h]
   latency equal the cold compile's, and (traced) a tuned compile's
   modeled latency is at most the untuned one's. *)

open Common

let tuned_models = [ "TinyBERT"; "WDSR-b" ]

let tuned_config =
  let tune = Some Gcd2_codegen.Autotune.default in
  let opcost = { Compiler.default.Compiler.opcost with Gcd2_cost.Opcost.tune } in
  { Compiler.default with Compiler.name = "gcd2-tuned"; opcost }

let run ~seed ~seconds ~spans =
  let r = result () in
  let dir = scratch_dir "compile" in
  let layers = layers () in
  let setup () =
    Memo.clear_all ();
    let graphs = List.map (fun m -> (m, build ~spans ~layers m)) Zoo.names in
    List.iter (fun (_, g) -> ignore (Compiler.compile ~jobs:1 g)) graphs;
    graphs
  in
  let setups = List.init setup_reps (fun _ -> timed setup) in
  let graphs = fst (List.hd setups) in
  let fresh_cache =
    let n = ref 0 in
    fun () ->
      incr n;
      Filename.concat dir (string_of_int !n)
  in
  (* each model's cold and warm wall times, and its untuned compile *)
  let cold = Hashtbl.create 16 and warm = Hashtbl.create 16 and untuned = Hashtbl.create 16 in
  let add tbl m v =
    Hashtbl.replace tbl m (v :: Option.value ~default:[] (Hashtbl.find_opt tbl m))
  in
  let compile m =
    let g = List.assoc m graphs in
    let c, s, sw = cold_then_warm r ~spans ~layers ~tag:m ~cache_dir:(fresh_cache ()) g in
    add cold m s;
    add warm m sw;
    Hashtbl.replace untuned m (Compiler.latency_ms c, s)
  in
  let order round = Seeded.shuffle (Seeded.rng ~seed (Printf.sprintf "order-%d" round)) in
  let models = Array.of_list Zoo.names in
  let deadline = now () +. seconds in
  Array.iter compile (order 0 models);
  let round = ref 1 in
  while now () < deadline do
    Array.iter (fun m -> if now () < deadline then compile m) (order !round models);
    incr round
  done;
  let tuned m =
    Memo.clear_all ();
    let cache_dir = fresh_cache () in
    let g = List.assoc m graphs in
    let once () = Compiler.compile ~config:tuned_config ~jobs:1 ~cache_dir g in
    let c, s = timed (fun () -> Spans.with_span ~tag:m spans "compile.tuned" once) in
    rm_rf cache_dir;
    let limit, cold_s = Hashtbl.find untuned m in
    List.iter
      (fun (k, v) -> push layers ~tag:m k v)
      [
        ("codegen.tune_slowdown", s /. cold_s);
        ("codegen.tune_candidates", count c "tune-candidates");
        ("codegen.tune_costed", count c "tune-costed");
        ("tune-pruned", count c "tune-pruned");
      ];
    let lat = Compiler.latency_ms c in
    check r (lat <= limit) "%s: tuned latency %h above untuned %h" m lat limit
  in
  if spans <> None then List.iter tuned tuned_models;
  rm_rf dir;
  let all tbl = Hashtbl.fold (fun _ xs acc -> xs @ acc) tbl [] in
  note r "cold_s" (summary (all cold));
  note r "warm_s" (summary (all warm));
  (match spans with
  | None ->
    let medians = Hashtbl.fold (fun _ xs acc -> (1000.0 *. Sample.median xs) :: acc) cold [] in
    metric r "latency_ms" (Sample.geomean medians);
    metric r "setup_s" (Sample.median (List.map snd setups));
    metric r "peak_rss_mb" (peak_rss_mb ())
  | Some _ ->
    compile_path_metrics r layers;
    List.iter
      (fun k -> metric r k (mean layers k))
      [ "codegen.tune_slowdown"; "codegen.tune_candidates"; "codegen.tune_costed" ];
    metric r "codegen.tune_pruned_ratio"
      (mean layers "tune-pruned" /. mean layers "codegen.tune_candidates"));
  r
