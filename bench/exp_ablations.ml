(* Ablations of this implementation's own design choices (beyond the
   paper's figures): layout-specialized addressing, the partition size
   bound, SDA's w parameter, per-channel requantization overhead, and the
   sensitivity of the headline result to the dispatch-overhead constant. *)

module Zoo = Gcd2_models.Zoo
module F = Gcd2_frameworks.Framework
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Opcost = Gcd2_cost.Opcost
module Solver = Gcd2_layout.Solver
module Matmul = Gcd2_codegen.Matmul
module Simd = Gcd2_codegen.Simd
module Unroll = Gcd2_codegen.Unroll
module Packer = Gcd2_sched.Packer
module Q = Gcd2_tensor.Quant

let spec ?(addressing = Matmul.Bump) ?(strategy = Packer.sda) simd ~m ~k ~n =
  let u = Unroll.adaptive simd ~m ~k ~n in
  {
    Matmul.device = Gcd2_devices.Desc.hexagon698;
      simd;
    m;
    k;
    n;
    mult = 1 lsl 30;
    shift = 30;
    act_table = None;
    strategy;
    un = u.Unroll.un;
    ug = u.Unroll.ug;
    abuf = u.Unroll.abuf;
    wbuf = u.Unroll.wbuf;
    addressing;
  }

let run () =
  Report.header "Ablation A - layout-specialized addressing (pointer bumps vs recompute)";
  Report.row "%-18s | %10s %10s | %6s\n" "kernel" "bump" "recompute" "cost";
  List.iter
    (fun (m, k, n) ->
      List.iter
        (fun simd ->
          let bump = Matmul.cycles (spec ~addressing:Matmul.Bump simd ~m ~k ~n) in
          let rec_ = Matmul.cycles (spec ~addressing:Matmul.Recompute simd ~m ~k ~n) in
          Report.row "%5dx%4dx%3d %-5s | %10d %10d | %5.2fx\n" m k n (Simd.name simd) bump
            rec_
            (float_of_int rec_ /. float_of_int bump))
        Simd.all)
    [ (3136, 64, 64); (784, 1152, 128) ];
  Report.note "generic lowering costs 1.3-2x — why the stock compilers trail even before packing";

  Report.header "Ablation B - partition size bound (GCD2(k) sweep on ResNet-50)";
  let g = Gcd2_graph.Passes.optimize ((Zoo.find "ResNet-50").Zoo.build ()) in
  let cost = Graphcost.build Opcost.gcd2 g in
  let p = cost.Graphcost.problem in
  let eval plans = (Graphcost.report cost plans).Graphcost.ms in
  let optimal = eval (Solver.optimal p).Solver.plans in
  Report.row "%6s | %10s | %12s | %s\n" "k" "ms" "vs optimal" "solve ms, median [q1, q3]";
  List.iter
    (fun k ->
      let r, t =
        Report.sample ~n:Report.record_n (fun () -> Solver.partitioned ~max_size:k p)
      in
      let ms = eval (List.hd r).Solver.plans in
      Report.row "%6d | %10.3f | %11.2f%% | %s\n" k ms
        (100.0 *. ((ms /. optimal) -. 1.0))
        (Report.show 3 (Report.scale 1e3 t)))
    [ 3; 5; 9; 13; 17; 25; 40 ];
  Report.note "the paper's k=13 already sits on the optimum; tiny parts lose the cross-edge context";

  Report.header "Ablation C - SDA parameter w (Equation 4 depth-vs-latency weight)";
  Report.row "%6s | %12s %12s %12s\n" "w" "vmpy" "vmpa" "vrmpy";
  List.iter
    (fun w ->
      let c simd =
        Matmul.cycles (spec ~strategy:(Packer.Sda { w; p = Packer.default_p }) simd ~m:128 ~k:64 ~n:8)
      in
      Report.row "%6.2f | %12d %12d %12d\n" w (c Simd.I_vmpy) (c Simd.I_vmpa) (c Simd.I_vrmpy))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ];
  Report.note "the tuned default is w=0.3; large w over-prioritizes depth and loses latency grouping";

  Report.header "Ablation D - per-channel requantization overhead (future work, implemented)";
  Report.row "%-18s | %10s %12s | %8s\n" "kernel" "uniform" "per-channel" "overhead";
  List.iter
    (fun (m, k, n) ->
      List.iter
        (fun simd ->
          let s = spec simd ~m ~k ~n in
          let uni = Matmul.cycles s in
          let scales = Array.init n (fun j -> (1.0 +. float_of_int j) /. 256.0) in
          let mults, shift =
            Q.per_channel_requant ~in_a:Q.default ~weight_scales:scales ~out:Q.default
          in
          let prog =
            Matmul.generate ~per_channel:(mults, shift) ~q_base:0
              { s with Matmul.shift }
              { Matmul.a_base = 0; w_base = 0; c_base = 0 }
          in
          let pc = Gcd2_isa.Program.static_cycles ~desc:s.Matmul.device prog in
          Report.row "%5dx%4dx%3d %-5s | %10d %12d | %+7.2f%%\n" m k n (Simd.name simd) uni pc
            (100.0 *. ((float_of_int pc /. float_of_int uni) -. 1.0)))
        Simd.all)
    [ (512, 64, 32); (3136, 64, 64) ];
  Report.note "per-channel quantization costs ~0-3%% of kernel time (one vector load + per-lane multiply per output tile)";

  Report.header "Ablation E - dispatch-overhead sensitivity (Table IV geomean vs dispatch cost)";
  Report.row "%14s | %12s %12s | %s\n" "gcd2 us/op" "GCD2 ms" "OverTFLite" "(ResNet-50)";
  let g50 = (Zoo.find "ResNet-50").Zoo.build () in
  let tflite_ms = Compiler.latency_ms (F.compile F.tflite g50) in
  List.iter
    (fun us ->
      let config =
        {
          F.gcd2 with
          Compiler.name = Fmt.str "gcd2@%.0fus" us;
          opcost = { Opcost.gcd2 with Opcost.dispatch_us = us };
        }
      in
      let ms = Compiler.latency_ms (Compiler.compile ~config g50) in
      Report.row "%14.1f | %12.2f %11.2fx |\n" us ms (tflite_ms /. ms))
    [ 0.0; 5.0; 15.0; 30.0; 60.0 ];
  Report.note
    "the calibrated 15 us/operator (compiled runtime) leaves the headline speedup between 1.9x and 3.2x across the plausible range"
