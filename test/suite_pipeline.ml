(* Tests for the instrumented pass pipeline: stable pass names, trace
   accounting, dump/sink transparency, pass toggling, and a golden test
   pinning the refactor to the pre-pipeline compiler's exact outputs. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Trace = Gcd2_util.Trace
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Simd = Gcd2_codegen.Simd
module Packer = Gcd2_sched.Packer

let desc = Gcd2_devices.Desc.hexagon698
open Gcd2_graph
module B = Graph.Builder

let weight_q = Q.make (1.0 /. 64.0)

(* Same residual CNN as suite_core: the golden values below were captured
   from this graph with the pre-pipeline compiler. *)
let weighted_cnn seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 8; 8; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 8 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:8 in
  let r1 = B.add b Op.Relu [ c1 ] in
  let w2 = T.random ~quant:weight_q rng [| 1; 1; 8; 8 |] in
  let c2 = B.conv2d ~weight:w2 b r1 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:8 in
  let s = B.add b Op.Add [ r1; c2 ] in
  let t = B.add b Op.Tanh [ s ] in
  let flat = B.add b (Op.Reshape { shape = [| 64; 8 |] }) [ t ] in
  let w3 = T.random ~quant:weight_q rng [| 8; 10 |] in
  let m = B.matmul ~weight:w3 b flat ~cout:10 in
  let _ = B.add b Op.Softmax [ m ] in
  B.finish b

let test_pass_names_stable () =
  Alcotest.(check (list string))
    "default pass list"
    [
      "validate";
      "eliminate-identity-reshapes";
      "fuse-activations";
      "build-costs";
      "select:gcd2(13)";
      "report";
    ]
    (Compiler.pass_names Compiler.default);
  Alcotest.(check (list string))
    "no graph optimization"
    [ "validate"; "build-costs"; "select:local"; "report" ]
    (Compiler.pass_names
       { Compiler.default with Compiler.optimize_graph = false; selection = Compiler.Local })

let test_trace_accounts_for_total () =
  let c = Compiler.compile (weighted_cnn 1) in
  let tr = c.Compiler.trace in
  let total = Trace.total_seconds tr in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Trace.top_spans tr) in
  Alcotest.(check bool) "total positive" true (total > 0.0);
  Alcotest.(check bool) "passes within total" true (sum <= total +. 1e-6);
  (* the pipeline driver adds only negligible time of its own *)
  Alcotest.(check bool) "passes cover the total" true (total -. sum < 0.05);
  Alcotest.(check (list string))
    "one top span per pass"
    (Compiler.pass_names Compiler.default)
    (List.map fst (Trace.top_spans tr))

let test_dumps_and_sinks_do_not_change_output () =
  let g = weighted_cnn 2 in
  let silent = Compiler.compile g in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let noisy =
    Compiler.compile ~sink:(Trace.Text ppf)
      ~dump_after:(Compiler.pass_names Compiler.default)
      ~dump_ppf:ppf g
  in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "dumps and sink produced text" true (Buffer.length buf > 0);
  Alcotest.(check (float 0.0))
    "same latency" (Compiler.latency_ms silent) (Compiler.latency_ms noisy);
  Alcotest.(check (array int)) "same assignment" silent.Compiler.assignment
    noisy.Compiler.assignment

let test_disabling_fusion_matches_no_opt_config () =
  let g = weighted_cnn 3 in
  let disabled =
    Compiler.compile ~disable:[ "eliminate-identity-reshapes"; "fuse-activations" ] g
  in
  let no_opt =
    Compiler.compile
      ~config:{ Compiler.default with Compiler.optimize_graph = false }
      g
  in
  Alcotest.(check (float 0.0))
    "same latency" (Compiler.latency_ms no_opt) (Compiler.latency_ms disabled);
  Alcotest.(check (array int)) "same assignment" no_opt.Compiler.assignment
    disabled.Compiler.assignment;
  Alcotest.(check int) "same node count"
    (Graph.size no_opt.Compiler.graph)
    (Graph.size disabled.Compiler.graph)

let test_counters_recorded () =
  (* The deep-layer counters (packets, stalls) are only recorded when
     kernels are actually generated, i.e. on a cold compile — a memo-warm
     one reuses every costing.  Earlier tests compile the same graph, so
     restore a cold state first. *)
  Gcd2_util.Memo.clear_all ();
  let c = Compiler.compile (weighted_cnn 1) in
  let tr = c.Compiler.trace in
  Alcotest.(check bool) "fused-nodes > 0" true (Trace.counter tr "fused-nodes" > 0);
  Alcotest.(check bool) "partitions > 0" true (Trace.counter tr "partitions" > 0);
  Alcotest.(check bool) "packets > 0" true (Trace.counter tr "packets" > 0);
  Alcotest.(check bool) "stalls counter present" true
    (List.mem "stalls" (Trace.counter_names tr))

(* Golden values captured from the pre-pipeline compiler on this exact
   graph (seed 1, default config).  The refactor must be
   behaviour-preserving: latency, assignment and the packed program's
   static cycles are bit-identical.  Latency/cycles re-pinned when the
   transformer kernels re-priced the softmax node; assignment and the
   packed matmul program stayed put. *)
let test_golden_behaviour_preserved () =
  let c = Compiler.compile (weighted_cnn 1) in
  Alcotest.(check (float 0.0)) "latency_ms" 0.10545493333333333 (Compiler.latency_ms c);
  Alcotest.(check (float 0.0)) "cycles" 3163648.0 c.Compiler.report.Graphcost.cycles;
  Alcotest.(check (array int)) "assignment" [| 0; 1; 1; 2; 2; 2; 1; 2 |]
    c.Compiler.assignment;
  (* regenerate the packed program of the chosen plan of the matmul node *)
  let matmul_id = ref (-1) in
  Graph.iter
    (fun node ->
      match node.Graph.op with Op.Matmul _ -> matmul_id := node.Graph.id | _ -> ())
    c.Compiler.graph;
  let v = !matmul_id in
  let plan = c.Compiler.cost.Graphcost.plans.(v).(c.Compiler.assignment.(v)) in
  let simd = Option.get plan.Gcd2_cost.Plan.simd in
  let u = Option.get plan.Gcd2_cost.Plan.unroll in
  let spec =
    {
      Matmul.device = Gcd2_devices.Desc.hexagon698;
      simd;
      m = 64;
      k = 8;
      n = 10;
      mult = 1 lsl 30;
      shift = 30;
      act_table = None;
      strategy = Packer.sda;
      un = u.Unroll.un;
      ug = u.Unroll.ug;
      abuf = u.Unroll.abuf;
      wbuf = u.Unroll.wbuf;
      addressing = Matmul.Bump;
    }
  in
  let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 0; c_base = 0 } in
  Alcotest.(check int) "static_cycles" 336 (Gcd2_isa.Program.static_cycles ~desc prog);
  Alcotest.(check int) "packet_count" 86 (Gcd2_isa.Program.packet_count prog)

let test_golden_efficientnet () =
  let e = Gcd2_models.Zoo.find "EfficientNet-b0" in
  let c = Compiler.compile (e.Gcd2_models.Zoo.build ()) in
  Alcotest.(check (float 0.0)) "latency_ms" 4.3960509666666665 (Compiler.latency_ms c);
  Alcotest.(check int) "assignment hash" 596119008
    (Hashtbl.hash (Array.to_list c.Compiler.assignment));
  Alcotest.(check int) "optimized nodes" 226 (Graph.size c.Compiler.graph)

let tests =
  [
    Alcotest.test_case "pass names stable" `Quick test_pass_names_stable;
    Alcotest.test_case "per-pass time sums to total" `Quick test_trace_accounts_for_total;
    Alcotest.test_case "dumps and sinks are transparent" `Quick
      test_dumps_and_sinks_do_not_change_output;
    Alcotest.test_case "disable fusion = optimize_graph=false" `Quick
      test_disabling_fusion_matches_no_opt_config;
    Alcotest.test_case "counters recorded" `Quick test_counters_recorded;
    Alcotest.test_case "golden: behaviour preserved" `Quick test_golden_behaviour_preserved;
    Alcotest.test_case "golden: EfficientNet-b0" `Slow test_golden_efficientnet;
  ]
