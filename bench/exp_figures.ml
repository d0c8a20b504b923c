(* Reproduction of the paper's evaluation figures (7 through 13).
   Figures 1-6 are explanatory diagrams, reproduced as library
   documentation rather than experiments. *)

module Zoo = Gcd2_models.Zoo
module F = Gcd2_frameworks.Framework
module K = Gcd2_frameworks.Kernel_compilers
module D = Gcd2_devices.Device.Context
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Graph = Gcd2_graph.Graph
module Solver = Gcd2_layout.Solver
module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Packer = Gcd2_sched.Packer
module Stats = Gcd2_util.Stats
module Flops = Gcd2_graph.Flops

let compiled = Exp_tables.compiled
let latency = Exp_tables.latency

(* the 5 representative models used by figures 8, 9 and 11 *)
let representative = [ "EfficientNet-b0"; "ResNet-50"; "FST"; "WDSR-b"; "PixOr" ]

(* ------------------------------------------------------------------ *)

let resnet_convs =
  (* the first 8 unique Conv2d operators of ResNet-50 *)
  [
    K.conv_mkn ~n:1 ~h:224 ~w:224 ~c:3 ~kh:7 ~kw:7 ~stride:2 ~pad:3 ~cout:64;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:64 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:64;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:64 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:64;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:64 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:256;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:256 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:64;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:256 ~kh:1 ~kw:1 ~stride:2 ~pad:0 ~cout:512;
    K.conv_mkn ~n:1 ~h:56 ~w:56 ~c:256 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:128;
    K.conv_mkn ~n:1 ~h:28 ~w:28 ~c:128 ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:128;
  ]

let fig7 () =
  Report.header
    "Figure 7 - Kernel speedup and packet count vs Halide/TVM/RAKE (ResNet-50 convs, normalized by Halide)";
  Report.row "%-4s | %7s %7s %7s %7s %7s | packets: %5s %5s %5s %5s %5s\n" "conv" "Halide"
    "TVM" "RAKE" "GCDb" "GCD2" "Hld" "TVM" "RAKE" "GCDb" "GCD2";
  let sums = Array.make 5 0.0 and psums = Array.make 5 0.0 in
  List.iteri
    (fun i (m, k, n) ->
      let rs = List.map (fun f -> K.conv f ~m ~k ~n) K.all in
      let base = (List.hd rs).K.cycles in
      let pbase = (List.hd rs).K.packets in
      let speed r = float_of_int base /. float_of_int r.K.cycles in
      let pk r = float_of_int r.K.packets /. float_of_int pbase in
      List.iteri
        (fun j r ->
          sums.(j) <- sums.(j) +. speed r;
          psums.(j) <- psums.(j) +. pk r)
        rs;
      Report.row "C%-3d | %7.2f %7.2f %7.2f %7.2f %7.2f |          %5.2f %5.2f %5.2f %5.2f %5.2f\n"
        i (speed (List.nth rs 0)) (speed (List.nth rs 1)) (speed (List.nth rs 2))
        (speed (List.nth rs 3)) (speed (List.nth rs 4)) (pk (List.nth rs 0))
        (pk (List.nth rs 1)) (pk (List.nth rs 2)) (pk (List.nth rs 3)) (pk (List.nth rs 4)))
    resnet_convs;
  let n = float_of_int (List.length resnet_convs) in
  Report.row "%-4s | %7.2f %7.2f %7.2f %7.2f %7.2f | mean packets %.2f %.2f %.2f %.2f %.2f\n"
    "avg" (sums.(0) /. n) (sums.(1) /. n) (sums.(2) /. n) (sums.(3) /. n) (sums.(4) /. n)
    (psums.(0) /. n) (psums.(1) /. n) (psums.(2) /. n) (psums.(3) /. n) (psums.(4) /. n);
  Report.note "paper: GCD2 up to 4.5x/3.4x/4.0x over Halide/TVM/RAKE; 25%%/19%%/21%% fewer packets"

(* ------------------------------------------------------------------ *)

let fig8 () =
  Report.header "Figure 8 - DSP utilization and memory bandwidth, relative to GCD2 (=100)";
  Report.row "%-16s | %7s %7s %7s | %7s %7s %7s\n" "model" "T util" "S util" "G util"
    "T bw" "S bw" "G bw";
  List.iter
    (fun name ->
      let e = Zoo.find name in
      let r cfg = (compiled cfg e).Compiler.report in
      let t = r F.tflite and s = r F.snpe and g = r F.gcd2 in
      (* utilization = useful-work throughput: the model's true MACs per
         unit time (padding and fallbacks produce no useful work) *)
      let true_macs = Gcd2_graph.Flops.total_macs (compiled F.gcd2 e).Compiler.graph in
      let util (x : Graphcost.report) = float_of_int true_macs /. x.Graphcost.cycles in
      let bw (x : Graphcost.report) = x.Graphcost.bandwidth_gbs in
      Report.row "%-16s | %6.0f%% %6.0f%% %6.0f%% | %6.0f%% %6.0f%% %6.0f%%\n" e.Zoo.name
        (100.0 *. util t /. util g)
        (100.0 *. util s /. util g)
        100.0
        (100.0 *. bw t /. bw g)
        (100.0 *. bw s /. bw g)
        100.0)
    representative;
  Report.note "paper: TFLite 88-93%% / SNPE 89-95%% of GCD2's utilization; 86-93%% / 90-94%% of its bandwidth";
  Report.note
    "our simulation separates overheads the on-device profiler cannot (padding waste, RPC gaps), so the relative gaps are wider than the paper's; the ordering (GCD2 highest on both axes) is the reproduced result"

(* ------------------------------------------------------------------ *)

let fig9 () =
  Report.header "Figure 9 - Incremental optimization breakdown (speedup over no-opt)";
  Report.row "%-16s | %7s %8s %7s %7s | util%% (no-opt -> full) | bw GB/s\n" "model" "no-opt"
    "+select" "+vliw" "+other";
  List.iter
    (fun name ->
      let e = Zoo.find name in
      let steps = [ F.no_opt; F.plus_selection; F.plus_vliw; F.plus_other ] in
      let cs = List.map (fun cfg -> compiled cfg e) steps in
      let ms = List.map Compiler.latency_ms cs in
      let base = List.hd ms in
      let util c = 100.0 *. c.Compiler.report.Graphcost.utilization in
      let bw c = c.Compiler.report.Graphcost.bandwidth_gbs in
      Report.row "%-16s | %6.2fx %7.2fx %6.2fx %6.2fx | %5.1f -> %5.1f | %5.1f -> %5.1f\n"
        e.Zoo.name 1.0
        (base /. List.nth ms 1)
        (base /. List.nth ms 2)
        (base /. List.nth ms 3)
        (util (List.hd cs))
        (util (List.nth cs 3))
        (bw (List.hd cs))
        (bw (List.nth cs 3)))
    representative;
  Report.note
    "paper: selection 1.4-2.9x, +VLIW another 1.2-2.0x, +other 1.1-1.4x; selection moves utilization most"

(* ------------------------------------------------------------------ *)

(* Prefixes of ResNet-50's (optimized) graph with the first n operators. *)
let resnet_prefix n =
  let full = (compiled F.gcd2 (Zoo.find "ResNet-50")).Compiler.graph in
  { Graph.nodes = Array.sub full.Graph.nodes 0 n }

let fig10 () =
  let n = Report.record_n in
  Report.header
    "Figure 10 - Layout selection: speedup over local-optimal and search time vs #operators";
  Report.row "%4s | %8s %8s %8s %8s %8s | %s\n" "#ops" "local" "GCD2(13)" "GCD2(17)" "pbqp"
    "global" "search ms, median [q1, q3]: GCD2(13); GCD2(17); exhaustive";
  List.iter
    (fun ops ->
      let g = resnet_prefix ops in
      let cost = Graphcost.build Gcd2_cost.Opcost.gcd2 g in
      let p = cost.Graphcost.problem in
      let eval plans = (Graphcost.report cost plans).Graphcost.cycles in
      let local = eval (Solver.local p).Solver.plans in
      let ms t = Report.show 3 (Report.scale 1e3 t) in
      let s13, t13 = Report.sample ~n (fun () -> Solver.partitioned ~max_size:13 p) in
      let s17, t17 = Report.sample ~n (fun () -> Solver.partitioned ~max_size:17 p) in
      let pbqp = Gcd2_layout.Pbqp.solve p in
      (* the exhaustive global optimum blows up exponentially; run it
         while feasible, otherwise report the exact frontier-DP optimum
         and extrapolate the enumeration time *)
      let global_cycles, t_exh =
        match Report.sample ~n (fun () -> Solver.exhaustive ~max_states:20_000_000 p) with
        | r, t -> (eval (List.hd r).Solver.plans, ms t)
        | exception Solver.Too_large ->
          (* frontier DP gives the same optimum without enumeration *)
          let opt = Solver.optimal p in
          let space =
            Array.fold_left
              (fun a k -> a *. float_of_int k)
              1.0 p.Gcd2_layout.Problem.options
          in
          (eval opt.Solver.plans, Printf.sprintf "~%.0e s" (space /. 2e7))
      in
      Report.row "%4d | %8.2f %8.2f %8.2f %8.2f %8.2f | %s; %s; %s\n" ops 1.0
        (local /. eval (List.hd s13).Solver.plans)
        (local /. eval (List.hd s17).Solver.plans)
        (local /. eval pbqp.Solver.plans)
        (local /. global_cycles) (ms t13) (ms t17) t_exh)
    [ 10; 15; 20; 25 ];
  Report.note
    "exhaustive search time is measured when feasible, otherwise extrapolated (seconds ~ states/2e7); the paper reports >80 h at 25 operators"

(* ------------------------------------------------------------------ *)

let fig11 () =
  Report.header "Figure 11 - SDA packing vs soft_to_hard / soft_to_none (speedup over soft_to_hard)";
  Report.row "%-16s | %13s %13s %8s\n" "model" "soft_to_hard" "soft_to_none" "SDA";
  List.iter
    (fun name ->
      let e = Zoo.find name in
      (* hold the instruction/layout/unroll selection fixed at GCD2's
         choice and repack the same kernels under each treatment — the
         paper varies only the packing algorithm *)
      let c = compiled F.gcd2 e in
      let assignment = c.Compiler.assignment in
      let ms_under strategy =
        let options = { Gcd2_cost.Opcost.gcd2 with Gcd2_cost.Opcost.strategy } in
        let cost = Graphcost.build options c.Compiler.graph in
        (Graphcost.report cost assignment).Graphcost.ms
      in
      let hard = ms_under Packer.Soft_to_hard in
      let none = ms_under Packer.Soft_to_none in
      let sda = Compiler.latency_ms c in
      Report.row "%-16s | %12.2fx %12.2fx %7.2fx\n" e.Zoo.name 1.0 (hard /. none) (hard /. sda))
    representative;
  Report.section "same comparison with unrolling disabled (dependence-bound kernels)";
  Report.row "%-16s | %13s %13s %8s\n" "model" "soft_to_hard" "soft_to_none" "SDA";
  List.iter
    (fun name ->
      let e = Zoo.find name in
      let c = compiled F.gcd2 e in
      let ms_under strategy =
        let options =
          {
            Gcd2_cost.Opcost.gcd2 with
            Gcd2_cost.Opcost.strategy;
            unroll_mode = `None;
          }
        in
        let cost = Graphcost.build options c.Compiler.graph in
        (Graphcost.report cost c.Compiler.assignment).Graphcost.ms
      in
      let hard = ms_under Packer.Soft_to_hard in
      let none = ms_under Packer.Soft_to_none in
      let sda = ms_under Packer.sda in
      Report.row "%-16s | %12.2fx %12.2fx %7.2fx\n" e.Zoo.name 1.0 (hard /. none) (hard /. sda))
    representative;
  Report.note "paper: SDA up to 2.1x over soft_to_hard and 1.4x over soft_to_none";
  Report.note
    "with GCD2's shape-adaptive unrolling the kernels carry enough independent work that soft-blind packing loses little; the paper-sized gaps appear when kernels are dependence-bound (second panel)"

(* ------------------------------------------------------------------ *)

let unroll_kernels =
  (* eight matmul kernels O1..O8 of varying shape *)
  [
    (512, 256, 64); (1024, 128, 128); (4096, 64, 32); (256, 512, 256);
    (2048, 96, 48); (128, 128, 512); (8192, 32, 16); (640, 320, 96);
  ]

let matmul_cycles simd ~m ~k ~n (u : Unroll.setting) =
  Matmul.cycles
    {
      Matmul.device = Gcd2_devices.Desc.hexagon698;
      simd;
      m;
      k;
      n;
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

let fig12 () =
  Report.header "Figure 12a - Unroll factor sweep on one MatMul kernel (speedup over factor 1)";
  let m, k, n = (1024, 256, 64) in
  let simd = Simd.I_vmpy in
  let base = matmul_cycles simd ~m ~k ~n (Unroll.none simd ~k ~n) in
  Report.row "%8s | %8s %8s\n" "factor" "Out" "Mid";
  List.iter
    (fun f ->
      let out = matmul_cycles simd ~m ~k ~n (Unroll.fixed_out simd ~k ~n ~factor:f) in
      let mid = matmul_cycles simd ~m ~k ~n (Unroll.fixed_mid simd ~k ~n ~factor:f) in
      Report.row "%8d | %7.2fx %7.2fx\n" f
        (float_of_int base /. float_of_int out)
        (float_of_int base /. float_of_int mid))
    [ 1; 2; 4; 8 ];
  let adaptive = Unroll.adaptive simd ~m ~k ~n in
  Report.row "GCD2 adaptive picks un=%d ug=%d (shape class: %s)\n" adaptive.Unroll.un
    adaptive.Unroll.ug
    (Unroll.shape_class_name (Unroll.classify ~m ~n));
  Report.header "Figure 12b - Unroll strategies across 8 MatMul kernels (speedup over no unroll)";
  Report.row "%-4s | %8s %8s %8s %11s %8s | search ms, median [q1, q3] (exh vs gcd2)\n"
    "krn" "none" "Out" "Mid" "Exhaustive" "GCD2";
  List.iteri
    (fun i (m, k, n) ->
      let simd = Simd.I_vmpy in
      let base = matmul_cycles simd ~m ~k ~n (Unroll.none simd ~k ~n) in
      let speed u = float_of_int base /. float_of_int (matmul_cycles simd ~m ~k ~n u) in
      let spec =
        {
          Matmul.device = Gcd2_devices.Desc.hexagon698;
      simd;
          m;
          k;
          n;
          mult = 1 lsl 30;
          shift = 30;
          act_table = None;
          strategy = Packer.sda;
          un = 1;
          ug = 1;
          abuf = 2;
          wbuf = 2;
          addressing = Matmul.Bump;
        }
      in
      (* exhaustive search costs kernels through the memoized
         [Matmul.cycles]: each sample starts from empty memo tables *)
      let exh, t_exh =
        Report.sample ~n:Report.record_n ~before:Gcd2_util.Memo.clear_all (fun () ->
            Unroll.exhaustive spec)
      in
      let adaptive, t_ad =
        Report.sample ~n:Report.record_n (fun () -> Unroll.adaptive simd ~m ~k ~n)
      in
      Report.row "O%-3d | %8.2f %8.2f %8.2f %11.2f %8.2f | %s vs %s\n" (i + 1) 1.0
        (speed (Unroll.fixed_out simd ~k ~n ~factor:4))
        (speed (Unroll.fixed_mid simd ~k ~n ~factor:4))
        (speed (List.hd exh))
        (speed (List.hd adaptive))
        (Report.show 2 (Report.scale 1e3 t_exh))
        (Report.show 4 (Report.scale 1e3 t_ad)))
    unroll_kernels;
  Report.note
    "paper: GCD2's shape-adaptive settings match exhaustive search (best 4-4) at a fraction of the search time"

(* ------------------------------------------------------------------ *)

let fig13 () =
  Report.header "Figure 13 - Power and energy efficiency (frames per Watt)";
  Report.row "%-16s | %9s %9s %9s %9s | %8s %8s %8s %8s\n" "model" "GPU W" "T-DSP W"
    "S-DSP W" "G-DSP W" "GPU fpw" "T fpw" "S fpw" "G fpw";
  List.iter
    (fun name ->
      let e = Zoo.find name in
      let g = e.Zoo.build () in
      let gmacs = float_of_int (Flops.total_macs g) /. 1e9 in
      let ops = Graph.size g in
      let gpu_ms = D.xpu_latency_ms D.gpu ~gmacs ~ops in
      let gpu_w = D.gpu_power_w ~gmacs in
      let fpw_of cfg =
        let c = compiled cfg e in
        let ms = Compiler.latency_ms c in
        let w = D.dsp_power_w ~utilization:c.Compiler.report.Graphcost.utilization in
        (w, D.dsp_fps ~latency_ms:ms /. w)
      in
      let tw, tf = fpw_of F.tflite in
      let sw, sf = fpw_of F.snpe in
      let gw, gf = fpw_of F.gcd2 in
      Report.row "%-16s | %9.2f %9.2f %9.2f %9.2f | %8.1f %8.1f %8.1f %8.1f\n" e.Zoo.name
        gpu_w tw sw gw
        (1000.0 /. gpu_ms /. gpu_w)
        tf sf gf)
    [ "EfficientNet-b0"; "ResNet-50"; "PixOr"; "CycleGAN" ];
  Report.note
    "paper: GCD2-DSP draws ~7%% more than TFLite/SNPE-DSP but is 1.7x/1.5x more energy-efficient, and 2.9x vs the GPU"
