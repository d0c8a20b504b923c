(* Tests for Gcd2_cost: plan enumeration, roofline, problem construction
   and reporting. *)

module Opcost = Gcd2_cost.Opcost
module Plan = Gcd2_cost.Plan
module Desc = Gcd2_devices.Desc
module Graphcost = Gcd2_cost.Graphcost
module Layout = Gcd2_tensor.Layout
open Gcd2_graph
module B = Graph.Builder

let desc = Desc.hexagon698

let small_graph () =
  let b = B.create () in
  let x = B.input b [| 1; 16; 16; 8 |] in
  let c1 = B.conv2d b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:16 in
  let r1 = B.add b Op.Relu [ c1 ] in
  let c2 = B.conv2d b r1 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:16 in
  let s = B.add b Op.Add [ r1; c2 ] in
  let p = B.add b Op.Global_avg_pool [ s ] in
  let m = B.matmul b p ~cout:10 in
  let _ = B.add b Op.Softmax [ m ] in
  B.finish b

let test_plans_for_every_op () =
  let g = small_graph () in
  Graph.iter
    (fun node ->
      let plans = Opcost.plans Opcost.gcd2 g node in
      if Array.length plans = 0 then Alcotest.failf "no plans for %s" node.Graph.name;
      Array.iter
        (fun p ->
          if Plan.cycles ~desc p < 0.0 then Alcotest.failf "negative cost for %s" node.Graph.name)
        plans)
    g

let test_conv_has_three_simd_plans () =
  let g = small_graph () in
  let conv = Graph.node g 1 in
  let plans = Opcost.plans Opcost.gcd2 g conv in
  Alcotest.(check int) "one plan per simd" 3 (Array.length plans);
  let layouts = Array.to_list (Array.map (fun p -> p.Plan.layout) plans) in
  Alcotest.(check bool) "col1 present" true (List.mem Layout.Col1 layouts);
  Alcotest.(check bool) "col2 present" true (List.mem Layout.Col2 layouts);
  Alcotest.(check bool) "col4 present" true (List.mem Layout.Col4 layouts)

let test_dispatch_overhead_included () =
  let g = small_graph () in
  let conv = Graph.node g 1 in
  let with_d = Opcost.plans Opcost.gcd2 g conv in
  let without = Opcost.plans { Opcost.gcd2 with Opcost.dispatch_us = 0.0 } g conv in
  let diff = (Plan.cycles ~desc with_d.(0)) -. (Plan.cycles ~desc without.(0)) in
  Alcotest.(check (float 1.0)) "dispatch cycles" (Desc.cycles_of_us desc 15.0) diff

let test_channel_padding_costs_more () =
  let g = small_graph () in
  let conv = Graph.node g 1 in
  let narrow = Opcost.plans Opcost.gcd2 g conv in
  let padded = Opcost.plans { Opcost.gcd2 with Opcost.channel_pad = 32 } g conv in
  (* cin 8 -> 32 means ~4x the reduction work *)
  Alcotest.(check bool) "depth-32 padding is slower" true
    (padded.(0).Plan.compute_cycles > 1.5 *. narrow.(0).Plan.compute_cycles)

let test_fallback_plan () =
  let options =
    { Opcost.gcd2 with Opcost.supported = (function Op.Relu -> false | _ -> true) }
  in
  let g = small_graph () in
  let relu = Graph.node g 2 in
  let plans = Opcost.plans options g relu in
  Alcotest.(check int) "single fallback plan" 1 (Array.length plans);
  Alcotest.(check bool) "fallback is expensive" true
    (Plan.cycles ~desc plans.(0) > Desc.cycles_of_us desc 120.0)

let test_problem_valid_and_reportable () =
  let g = small_graph () in
  let cost = Graphcost.build Opcost.gcd2 g in
  let r = Gcd2_layout.Solver.local cost.Graphcost.problem in
  let report = Graphcost.report cost r.Gcd2_layout.Solver.plans in
  Alcotest.(check bool) "positive time" true (report.Graphcost.ms > 0.0);
  Alcotest.(check bool) "utilization sane" true
    (report.Graphcost.utilization >= 0.0 && report.Graphcost.utilization <= 1.0);
  Alcotest.(check bool) "macs counted" true (report.Graphcost.macs > 0)

let test_edge_cost_zero_same_layout () =
  let g = small_graph () in
  let cost = Graphcost.build Opcost.gcd2 g in
  let p = cost.Graphcost.problem in
  (* conv (node 1) -> relu (node 2): find plan indices with equal layouts *)
  let plans1 = cost.Graphcost.plans.(1) and plans2 = cost.Graphcost.plans.(2) in
  Array.iteri
    (fun i p1 ->
      Array.iteri
        (fun j p2 ->
          let tc = p.Gcd2_layout.Problem.edge_cost 1 i 2 j in
          if p1.Plan.layout = p2.Plan.layout then
            Alcotest.(check (float 0.0)) "same layout free" 0.0 tc
          else Alcotest.(check bool) "transform costs" true (tc > 0.0))
        plans2)
    plans1

let test_global_beats_local () =
  let g = small_graph () in
  let cost = Graphcost.build Opcost.gcd2 g in
  let local = Gcd2_layout.Solver.local cost.Graphcost.problem in
  let optimal = Gcd2_layout.Solver.optimal cost.Graphcost.problem in
  Alcotest.(check bool) "optimal <= local" true
    (optimal.Gcd2_layout.Solver.cost <= local.Gcd2_layout.Solver.cost +. 1e-6)

let test_tops_scale () =
  let t = Desc.tops desc ~macs:1_000_000_000 ~cycles:desc.Desc.model_cycles_per_sec in
  Alcotest.(check (float 1e-9)) "1 GMAC in 1 s = 0.002 TOPS" 0.002 t

let tests =
  [
    Alcotest.test_case "plans for every operator" `Quick test_plans_for_every_op;
    Alcotest.test_case "conv enumerates all instructions" `Quick test_conv_has_three_simd_plans;
    Alcotest.test_case "dispatch overhead" `Quick test_dispatch_overhead_included;
    Alcotest.test_case "depth-32 channel padding" `Quick test_channel_padding_costs_more;
    Alcotest.test_case "cpu fallback plan" `Quick test_fallback_plan;
    Alcotest.test_case "problem + report" `Quick test_problem_valid_and_reportable;
    Alcotest.test_case "edge costs per layout pair" `Quick test_edge_cost_zero_same_layout;
    Alcotest.test_case "global no worse than local" `Quick test_global_beats_local;
    Alcotest.test_case "tops conversion" `Quick test_tops_scale;
  ]
