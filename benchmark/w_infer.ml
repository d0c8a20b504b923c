(* infer-cnn and infer-attn: whole-model inference on the simulated DSP.

   Set-up: clear the memo tables, build each model, give it seeded
   random weights and compile it (three times, median reported), then
   run one warm-up inference per model, whose time [setup_s] adds to
   that median.  Then [Runtime.run_with_stats] runs round-robin
   over the models until the time is up, at least three times each,
   with no forced collection in between, as a process serving
   repeated inferences runs them.  A traced run first compiles each model cold
   into a fresh cache and warm from it, for the compile path's layers,
   and follows each inference with a {!Replay} of it, checked
   bit-identical to it node by node.

   Checks: every inference of a model gives the same outputs, and each
   node's output equals [Interp.eval_node] on the inputs the runtime
   gave it.  One difference is tolerated, a known defect: the
   batched-matmul kernel rounds a rare requantization result one step
   away from the reference.  A bmm node passes with at most 1 in 1000
   elements off by one; the run's detail counts them as
   [bmm_lsb_mismatches]. *)

open Common
module Runtime = Gcd2.Runtime
module Interp = Gcd2_kernels.Interp

let models = function
  | "infer-cnn" -> [ ("MobileNet-V3", None) ]
  | "infer-attn" -> [ ("TinyBERT", Some 64); ("Conformer", Some 64) ]
  | w -> invalid_arg ("W_infer.models: " ^ w)

type model = { name : string; compiled : Compiler.compiled; inputs : (int * T.t) list }

let graph ~seed ~spans ~layers (name, seq) =
  let weights = Hashtbl.hash (seed, "weights", name) in
  Zoo.with_random_weights ~seed:weights (build ~spans ~layers ?seq name)

let prepare ~seed ~spans ~layers ((name, _) as model) =
  let compiled = Compiler.compile ~jobs:1 (graph ~seed ~spans ~layers model) in
  let inputs = inputs_of ~rng:(Seeded.rng ~seed ("inputs-" ^ name)) compiled.Compiler.graph in
  { name; compiled; inputs }

let same_outputs a b = Array.length a = Array.length b && Array.for_all2 T.equal_data a b

(* At most 1 in 1000 elements off by exactly one: how many. *)
let off_by_one (got : T.t) (want : T.t) =
  if got.T.dims <> want.T.dims then None
  else
    let off = ref 0 and far = ref false in
    Array.iteri
      (fun i v ->
        match abs (v - want.T.data.(i)) with 0 -> () | 1 -> incr off | _ -> far := true)
      got.T.data;
    if !far || !off * 1000 > Array.length got.T.data then None else Some !off

(* Per-node differential against the reference; returns the number of
   off-by-one bmm elements it tolerated. *)
let verify r m outs =
  let lsb = ref 0 in
  Graph.iter
    (fun node ->
      match node.Graph.op with
      | Op.Input _ -> ()
      | op ->
        let got = outs.(node.Graph.id) in
        let want = Interp.eval_node node (List.map (fun i -> outs.(i)) node.Graph.inputs) in
        let ok =
          T.equal_data got want
          ||
          match (op, off_by_one got want) with
          | Op.Batch_matmul _, Some off ->
            lsb := !lsb + off;
            true
          | _ -> false
        in
        check r ok "%s: node %d (%s) differs from the reference" m.name node.Graph.id
          (Op.name op))
    m.compiled.Compiler.graph;
  !lsb

(* Node time per operator kind, from the "id:kind" tag of node spans. *)
let kind_seconds sp =
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (s : Spans.span) ->
      match String.split_on_char ':' s.Spans.tag with
      | [ _; kind ] when s.Spans.name = "runtime.node" && kind <> "input" ->
        let kind = if List.mem kind Metrics.kinds then kind else "other" in
        let sum = Option.value ~default:0.0 (Hashtbl.find_opt kinds kind) in
        Hashtbl.replace kinds kind (sum +. s.Spans.stop -. s.Spans.start)
      | _ -> ())
    (Spans.spans sp);
  fun k -> Option.value ~default:0.0 (Hashtbl.find_opt kinds k)

let run ~workload ~seed ~seconds ~spans =
  let r = result () in
  let layers = layers () in
  if spans <> None then begin
    let dir = scratch_dir workload in
    List.iteri
      (fun i ((name, _) as model) ->
        let cache_dir = Filename.concat dir (string_of_int i) in
        let g = graph ~seed ~spans ~layers model in
        ignore (cold_then_warm r ~spans ~layers ~tag:name ~cache_dir g))
      (models workload);
    rm_rf dir
  end;
  let setup () =
    Memo.clear_all ();
    List.map (prepare ~seed ~spans ~layers) (models workload)
  in
  let setups = List.init setup_reps (fun _ -> timed setup) in
  let ms = fst (List.nth setups (setup_reps - 1)) in
  (* once, not per set-up: a few seconds each, which three times over
     would crowd out the timed inferences *)
  let warm_up () =
    List.iter (fun m -> ignore (Runtime.run_with_stats m.compiled ~inputs:m.inputs)) ms
  in
  let (), warm_up_s = timed warm_up in
  let samples = Hashtbl.create 2 and first = Hashtbl.create 2 in
  let replays = ref 0 and replay_s = ref 0.0 and runtime_s = ref 0.0 in
  let vm_nodes = ref 0 and host_nodes = ref 0 and run_cycles = ref 0 in
  let lib_trace = Trace.create "replay" in
  let replay m outs (stats : Runtime.stats) s sp =
    let before = Spans.total sp "runtime.node" in
    let routs, rst =
      Trace.with_ambient lib_trace (fun () -> Replay.run sp m.compiled ~inputs:m.inputs)
    in
    check r
      (same_outputs routs outs
      && rst.Replay.vm_nodes = stats.Runtime.vm_nodes
      && rst.Replay.host_nodes = stats.Runtime.host_nodes
      && rst.Replay.vm_cycles = stats.Runtime.vm_cycles)
      "%s: the replay differs from Runtime.run" m.name;
    incr replays;
    replay_s := !replay_s +. (Spans.total sp "runtime.node" -. before);
    runtime_s := !runtime_s +. s;
    run_cycles := !run_cycles + rst.Replay.run_cycles;
    vm_nodes := !vm_nodes + rst.Replay.vm_nodes;
    host_nodes := !host_nodes + rst.Replay.host_nodes
  in
  let infer m =
    let run () = Runtime.run_with_stats m.compiled ~inputs:m.inputs in
    let (outs, stats), s = timed run in
    let prev = Option.value ~default:[] (Hashtbl.find_opt samples m.name) in
    Hashtbl.replace samples m.name (s :: prev);
    (match Hashtbl.find_opt first m.name with
    | None -> Hashtbl.replace first m.name (outs, stats.Runtime.vm_cycles)
    | Some (o, _) -> check r (same_outputs o outs) "%s: outputs changed between runs" m.name);
    Option.iter (replay m outs stats s) spans
  in
  (* round-robin over the models until the time is up, three rounds at least *)
  let deadline = now () +. seconds in
  let rec rounds i =
    if i < 3 || now () < deadline then begin
      List.iter infer ms;
      rounds (i + 1)
    end
  in
  rounds 0;
  let outputs m = fst (Hashtbl.find first m.name) in
  let cycles m = snd (Hashtbl.find first m.name) in
  let lsb = List.fold_left (fun acc m -> acc + verify r m (outputs m)) 0 ms in
  note r "bmm_lsb_mismatches" (Json.Num (float_of_int lsb));
  List.iter (fun m -> note r (m.name ^ "_s") (summary (Hashtbl.find samples m.name))) ms;
  let geomean f = Sample.geomean (List.map f ms) in
  (match spans with
  | None ->
    metric r "latency_ms"
      (geomean (fun m -> 1000.0 *. Sample.median (Hashtbl.find samples m.name)));
    metric r "setup_s" (Sample.median (List.map snd setups) +. warm_up_s);
    metric r "peak_rss_mb" (peak_rss_mb ())
  | Some sp ->
    compile_path_metrics r layers;
    let n = float_of_int !replays in
    let pct seconds = 100.0 *. seconds /. !replay_s in
    let share name = pct (Spans.total sp name) in
    metric r "runtime.host_pct" (share "runtime.host");
    metric r "tensor.stage_pct" (share "tensor.stage");
    metric r "codegen.generate_pct" (share "codegen.generate");
    let pack = trace_seconds (Trace.root lib_trace) (String.equal "pack") in
    metric r "sched.pack_pct" (pct pack);
    metric r "vm.run_pct" (share "vm.run");
    metric r "tensor.unstage_pct" (share "tensor.unstage");
    metric r "codegen.rowops_pct" (share "codegen.rowops");
    let kind = kind_seconds sp in
    List.iter (fun k -> metric r ("runtime.kind." ^ k ^ "_pct") (pct (kind k))) Metrics.kinds;
    metric r "vm.mcycles" (geomean (fun m -> float_of_int (cycles m) /. 1e6));
    metric r "vm.mcycles_per_s" (float_of_int !run_cycles /. 1e6 /. Spans.total sp "vm.run");
    metric r "runtime.vm_nodes" (float_of_int !vm_nodes /. n);
    metric r "runtime.host_nodes" (float_of_int !host_nodes /. n);
    metric r "runtime.replay_coverage" (!replay_s /. !runtime_s));
  r
