(* What every workload shares: the clock, the result record, seeded
   inputs, scratch directories, the process's peak memory, and the
   compile path's per-layer metrics. *)

module Json = Gcd2_benchmark.Json
module Sample = Gcd2_benchmark.Sample
module Spans = Gcd2_benchmark.Spans
module Seeded = Gcd2_benchmark.Seeded
module Metrics = Gcd2_benchmark.Metrics
module T = Gcd2_tensor.Tensor
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Memo = Gcd2_util.Memo
module Trace = Gcd2_util.Trace

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Set-ups per run; [setup_s] is their median (infer adds one warm-up). *)
let setup_reps = 3

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float) list;  (** end-to-end, or per-layer when traced *)
  mutable detail : (string * Json.t) list;  (** sample counts and tails, for the record *)
}

let result () = { attempted = 0; failed = 0; metrics = []; detail = [] }

let metric r name v = r.metrics <- r.metrics @ [ (name, v) ]
let note r key v = r.detail <- r.detail @ [ (key, v) ]

(* One operation attempted; [ok = false] counts it failed and says why. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        prerr_endline ("benchmark: check failed: " ^ msg)
      end)
    fmt

(* Median, the highest percentile with at least ten samples beyond it,
   and the sample count, as one detail entry. *)
let summary xs =
  let n = float_of_int (List.length xs) in
  Json.Obj
    ([ ("n", Json.Num n); ("median", Json.Num (Sample.median xs)) ]
    @
    match Sample.tail xs with
    | Some (p, v) -> [ ("tail_pct", Json.Num p); ("tail", Json.Num v) ]
    | None -> [])

(* Random inputs for every input node of [g]. *)
let inputs_of ~rng g =
  let acc = ref [] in
  Graph.iter
    (fun node ->
      match node.Graph.op with
      | Op.Input { shape } -> acc := (node.Graph.id, T.random rng shape) :: !acc
      | _ -> ())
    g;
  List.rev !acc

(* Scratch space inside the checkout, ignored by git. *)
let out_root = Filename.concat "benchmark" "_out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* A fresh private directory for one workload process. *)
let scratch_dir name =
  let dir = Filename.concat out_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  dir

(* VmHWM of [pid] (default: this process) in MB, from /proc. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM in " ^ path)

(* Seconds of the spans in a program trace whose name satisfies [p]; a
   matching span's own subtree is not searched again. *)
let trace_seconds (root : Trace.span) p =
  let rec go acc (s : Trace.span) =
    if p s.Trace.span_name then acc +. s.Trace.seconds
    else List.fold_left go acc s.Trace.children
  in
  go 0.0 root

(* ---------------- the compile path, on every workload ---------------- *)

(* Per-layer samples of one run, keyed by metric and by the model (or
   request) they came from.  A metric is the mean over models of each
   model's mean, so a count repeats exactly however often a run got
   round to each model. *)
type layers = (string * string, float list) Hashtbl.t

let layers () : layers = Hashtbl.create 64

let push (l : layers) ~tag k v =
  Hashtbl.replace l (k, tag) (v :: Option.value ~default:[] (Hashtbl.find_opt l (k, tag)))

let mean (l : layers) k =
  Sample.mean
    (Hashtbl.fold (fun (k', _) xs acc -> if k' = k then Sample.mean xs :: acc else acc) l [])

(* Zoo model [name], built inside a [models.build] span. *)
let build ~spans ~layers ?seq name =
  let build () = Zoo.build ?seq name in
  let g, s = timed (fun () -> Spans.with_span ~tag:name spans "models.build" build) in
  push layers ~tag:name "models.build_ms" (1000.0 *. s);
  g

let seconds_of (c : Compiler.compiled) p = trace_seconds (Trace.root c.Compiler.trace) p
let count (c : Compiler.compiled) key = float_of_int (Trace.counter c.Compiler.trace key)
let named names s = List.mem s names

(* Compile [g] from cleared memo tables cold into the fresh cache
   directory [cache_dir] (miss plus store), then warm from it (hit plus
   decode), and record both compiles' layers, read from their own
   traces.  Checks that the warm compile is a hit whose assignment and
   [%h] latency equal the cold compile's.  Returns the cold compile and
   the two wall times. *)
let cold_then_warm r ~spans ~layers ?(config = Compiler.default) ~tag ~cache_dir g =
  Memo.clear_all ();
  if spans <> None then begin
    let fingerprint () = Compiler.fingerprint config g in
    let _, s = timed (fun () -> Spans.with_span ~tag spans "store.fingerprint" fingerprint) in
    push layers ~tag "store.fingerprint_ms" (1000.0 *. s)
  end;
  let once () = Compiler.compile ~config ~jobs:1 ~cache_dir g in
  let c, s = timed (fun () -> Spans.with_span ~tag spans "compile.cold" once) in
  let w, sw = timed (fun () -> Spans.with_span ~tag spans "compile.warm" once) in
  rm_rf cache_dir;
  List.iter
    (fun (k, v) -> push layers ~tag k v)
    [
      ( "pass.graph_s",
        seconds_of c
          (named [ "validate"; "eliminate-identity-reshapes"; "fuse-activations" ]) );
      ("pass.build_costs_s", seconds_of c (named [ "build-costs" ]));
      ("pass.select_s", seconds_of c (String.starts_with ~prefix:"select:"));
      ("pass.cache_store_ms", 1000.0 *. seconds_of c (named [ "cache-store" ]));
      ("pass.cache_lookup_ms", 1000.0 *. seconds_of w (named [ "cache-lookup" ]));
      ("store.warm_compile_ms", 1000.0 *. sw);
      ("codegen.emit_s", seconds_of c (named [ "matmul-emit"; "eltwise-emit" ]));
      ("sched.pack_s", seconds_of c (named [ "pack" ]));
      ("sched.packets", count c "packets");
      ("sched.stalls", count c "stalls");
      ("layout.partitions", count c "partitions");
      ("store.artifact_bytes", count c "cache-bytes");
      ("cost.model_mcycles", c.Compiler.report.Gcd2_cost.Graphcost.cycles /. 1e6);
      ("memo-hits", count c "memo-hits");
      ("memo-misses", count c "memo-misses");
    ];
  let lat = Compiler.latency_ms c and wlat = Compiler.latency_ms w in
  check r
    ((not (Compiler.from_cache c)) && Compiler.from_cache w)
    "%s: cold compile hit or warm compile missed" tag;
  check r (c.Compiler.assignment = w.Compiler.assignment) "%s: warm assignment differs" tag;
  check r
    (Printf.sprintf "%h" lat = Printf.sprintf "%h" wlat)
    "%s: warm latency %h differs from cold %h" tag wlat lat;
  (c, s, sw)

(* The compile path's per-layer metrics, which every workload reports. *)
let compile_path_metrics r layers =
  List.iter
    (fun k -> metric r k (mean layers k))
    [ "models.build_ms"; "store.fingerprint_ms"; "pass.graph_s"; "pass.build_costs_s";
      "pass.select_s"; "pass.cache_store_ms"; "pass.cache_lookup_ms"; "store.warm_compile_ms";
      "codegen.emit_s"; "sched.pack_s"; "sched.packets"; "sched.stalls"; "layout.partitions";
      "store.artifact_bytes"; "cost.model_mcycles" ];
  let hits = mean layers "memo-hits" in
  metric r "util.memo_hit_ratio" (hits /. (hits +. mean layers "memo-misses"))
