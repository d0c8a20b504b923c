(* Tests for the end-to-end compiler and the mixed VM/host runtime: the
   compiled model executed on the simulated DSP must produce exactly the
   reference interpreter's results, for every selection strategy. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Interp = Gcd2_kernels.Interp
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
open Gcd2_graph
module B = Graph.Builder

let weight_q = Q.make (1.0 /. 64.0)

(* A small residual CNN with real weights. *)
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

(* A tiny transformer-flavoured graph: matmuls, gelu, elementwise mul. *)
let weighted_mlp seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 16; 12 |] in
  let w1 = T.random ~quant:weight_q rng [| 12; 24 |] in
  let h = B.matmul ~weight:w1 b x ~cout:24 in
  let h = B.add b Op.Gelu [ h ] in
  let w2 = T.random ~quant:weight_q rng [| 24; 12 |] in
  let h = B.matmul ~weight:w2 b h ~cout:12 in
  let s = B.add b Op.Add [ x; h ] in
  let p = B.add b (Op.Pow 2.0) [ s ] in
  let _ = B.add b Op.Mul [ s; p ] in
  B.finish b

(* A small multi-head attention block with real weights: batched matmuls
   (both transposed and plain), softmax, layer norm, and broadcast
   elementwise against scalar constants — the transformer operators the
   DSP path covers. *)
let weighted_attention seed =
  let rng = Rng.create seed in
  let seq = 16 and heads = 2 and dh = 6 in
  let dim = heads * dh in
  let b = B.create () in
  let x = B.input b [| seq; dim |] in
  let proj v = B.matmul ~weight:(T.random ~quant:weight_q rng [| dim; dim |]) b v ~cout:dim in
  let split t =
    let t = B.add b (Op.Reshape { shape = [| seq; heads; dh |] }) [ t ] in
    B.add b (Op.Transpose { perm = [| 1; 0; 2 |] }) [ t ]
  in
  let qh = split (proj x) and kh = split (proj x) and vh = split (proj x) in
  let scores = B.add b (Op.Batch_matmul { transpose_b = true }) [ qh; kh ] in
  let scale =
    B.constant ~weight:(T.of_array ~quant:(Q.make (1.0 /. 8.0)) [| 1 |] [| 3 |]) b [| 1 |]
  in
  let scores = B.add b Op.Mul [ scores; scale ] in
  let probs = B.add b Op.Softmax [ scores ] in
  let ctx = B.add b (Op.Batch_matmul { transpose_b = false }) [ probs; vh ] in
  let ctx = B.add b (Op.Transpose { perm = [| 1; 0; 2 |] }) [ ctx ] in
  let ctx = B.add b (Op.Reshape { shape = [| seq; dim |] }) [ ctx ] in
  let bias =
    B.constant
      ~weight:(T.of_array ~quant:(Q.make (1.0 /. 16.0)) [| 1 |] [| 5 |])
      b [| 1 |]
  in
  let h = B.add b Op.Add [ proj ctx; bias ] in
  let s = B.add b Op.Add [ x; h ] in
  let _ = B.add b Op.Layer_norm [ s ] in
  B.finish b

(* One node of every kernel family the runtime materializes: a conv, a
   residual add, a matmul, a batched matmul and a softmax. *)
let weighted_mixed seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 4; 4; 8 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 8; 8 |] in
  let c = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:8 in
  let s = B.add b Op.Add [ x; c ] in
  let flat = B.add b (Op.Reshape { shape = [| 16; 8 |] }) [ s ] in
  let w2 = T.random ~quant:weight_q rng [| 8; 8 |] in
  let m = B.matmul ~weight:w2 b flat ~cout:8 in
  let h = B.add b (Op.Reshape { shape = [| 2; 8; 8 |] }) [ m ] in
  let scores = B.add b (Op.Batch_matmul { transpose_b = true }) [ h; h ] in
  let _ = B.add b Op.Softmax [ scores ] in
  B.finish b

let run_both ?config graph_fn seed =
  let g = graph_fn seed in
  let c = Compiler.compile ?config g in
  let rng = Rng.create (seed * 7) in
  let input_node = (Graph.node c.Compiler.graph 0).Graph.out_shape in
  let input = T.random rng input_node in
  let inputs = [ (0, input) ] in
  let vm, stats = Runtime.run_with_stats c ~inputs in
  let host = Interp.run c.Compiler.graph ~inputs in
  (c, vm, host, stats)

let check_equal name vm host =
  Array.iteri
    (fun i (t_vm : T.t) ->
      let t_host : T.t = host.(i) in
      if not (T.equal_data t_vm t_host) then begin
        let bad = ref (-1) in
        Array.iteri
          (fun j v -> if !bad = -1 && v <> t_host.T.data.(j) then bad := j)
          t_vm.T.data;
        Alcotest.failf "%s: node %d differs at flat index %d (vm %d vs host %d)" name i !bad
          t_vm.T.data.(!bad) t_host.T.data.(!bad)
      end)
    vm

let test_cnn_runtime_matches_reference () =
  List.iter
    (fun seed ->
      let _, vm, host, stats = run_both weighted_cnn seed in
      check_equal "cnn" vm host;
      Alcotest.(check bool) "some nodes ran on the vm" true (stats.Runtime.vm_nodes > 0))
    [ 1; 2; 3 ]

let test_mlp_runtime_matches_reference () =
  let _, vm, host, stats = run_both weighted_mlp 11 in
  check_equal "mlp" vm host;
  Alcotest.(check bool) "vm cycles counted" true (stats.Runtime.vm_cycles > 0)

(* The transformer operators must both agree with the reference and
   actually execute on the VM (bmm, softmax, layer_norm, and the
   broadcast elementwise nodes all land in the per-kind vm column). *)
let test_attention_runtime_matches_reference () =
  List.iter
    (fun seed ->
      let _, vm, host, stats = run_both weighted_attention seed in
      check_equal "attention" vm host;
      let vm_of kind =
        match Hashtbl.find_opt stats.Runtime.kinds kind with
        | Some k -> k.Runtime.k_vm
        | None -> 0
      in
      List.iter
        (fun (kind, expect) ->
          Alcotest.(check int) (kind ^ " nodes on the vm") expect (vm_of kind))
        [ ("bmm", 2); ("softmax", 1); ("layer_norm", 1); ("mul", 1) ];
      Alcotest.(check bool) "broadcast adds on the vm" true (vm_of "add" >= 2))
    [ 1; 2 ]

(* A batched matmul generates one kernel per node and runs every slice on
   it: under a trace, the packer sees one kernel's packets, not [batch]
   kernels' worth, while the output still equals the reference and the
   cycles still add up over the slices. *)
let test_bmm_one_kernel_per_node () =
  let module Trace = Gcd2_util.Trace in
  let module Testbench = Gcd2_codegen.Testbench in
  let batch = 4 and m = 16 and k = 32 and n = 16 in
  let b = B.create () in
  let x = B.input b [| batch; m; k |] in
  let y = B.input b [| batch; k; n |] in
  let _ = B.add b (Op.Batch_matmul { transpose_b = false }) [ x; y ] in
  let c = Compiler.compile (B.finish b) in
  let rng = Rng.create 9 in
  let xs = T.random rng [| batch; m; k |] and ys = T.random rng [| batch; k; n |] in
  let inputs = [ (x, xs); (y, ys) ] in
  let trace = Trace.create "bmm" in
  let vm, stats = Trace.with_ambient trace (fun () -> Runtime.run_with_stats c ~inputs) in
  check_equal "bmm" vm (Interp.run c.Compiler.graph ~inputs);
  Alcotest.(check int) "the bmm node ran on the vm" 1 stats.Runtime.vm_nodes;
  (* the runtime's kernel, generated once more under its own trace *)
  let g = c.Compiler.graph in
  let id = Graph.size g - 1 in
  let plan = c.Compiler.cost.Gcd2_cost.Graphcost.plans.(id).(c.Compiler.assignment.(id)) in
  let mult, shift = Q.requant_multiplier ~in_a:xs.T.quant ~in_b:ys.T.quant ~out:Q.default in
  let opcost = c.Compiler.config.Compiler.opcost in
  let spec =
    { (Option.get (Gcd2_cost.Opcost.plan_spec opcost g (Graph.node g id) plan)) with
      Gcd2_codegen.Matmul.device = Gcd2_devices.Desc.hexagon698;
      mult;
      shift;
    }
  in
  let one = Trace.create "one kernel" in
  (* cold, or the kernel memo would answer without packing anything *)
  Gcd2_util.Memo.clear_all ();
  Trace.with_ambient one (fun () -> ignore (Testbench.kernel spec));
  Alcotest.(check bool) "a kernel packs some packets" true (Trace.counter one "packets" > 0);
  Alcotest.(check int) "one kernel's packets" (Trace.counter one "packets")
    (Trace.counter trace "packets");
  let slice (t : T.t) rows cols bt = Array.sub t.T.data (bt * rows * cols) (rows * cols) in
  let slices =
    List.init batch (fun bt -> Testbench.run spec ~a:(slice xs m k bt) ~w:(slice ys k n bt))
  in
  Alcotest.(check int) "vm cycles = sum over slices"
    (List.fold_left (fun acc r -> acc + r.Testbench.cycles) 0 slices)
    stats.Runtime.vm_cycles

(* Kernels are generated once per process: a second inference of the
   same compiled model runs the programs the first one built (and the
   simulator decoded), so nothing is emitted or packed again, and
   the outputs and cycles do not move.  The memo tables are cleared
   after the compile too: the runtime's kernels differ from the
   costing's only in buffer bases and requantization constants, which
   the pack memo's key leaves out, so the compile would leave the first
   inference nothing to pack. *)
let test_second_inference_packs_nothing () =
  let module Trace = Gcd2_util.Trace in
  Gcd2_util.Memo.clear_all ();
  let c = Compiler.compile (weighted_mixed 3) in
  Gcd2_util.Memo.clear_all ();
  let inputs = [ (0, T.random (Rng.create 21) [| 1; 4; 4; 8 |]) ] in
  let run () =
    let trace = Trace.create "inference" in
    let outs, stats = Trace.with_ambient trace (fun () -> Runtime.run_with_stats c ~inputs) in
    (trace, outs, stats)
  in
  let t1, first, s1 = run () in
  let t2, second, s2 = run () in
  check_equal "first inference" first (Interp.run c.Compiler.graph ~inputs);
  List.iter
    (fun kind ->
      let on_vm =
        match Hashtbl.find_opt s1.Runtime.kinds kind with Some k -> k.Runtime.k_vm | None -> 0
      in
      Alcotest.(check int) (kind ^ " node on the vm") 1 on_vm)
    [ "conv2d"; "add"; "matmul"; "bmm"; "softmax" ];
  Alcotest.(check bool) "the first inference packs" true (Trace.find t1 "pack" <> None);
  Alcotest.(check bool) "the second packs nothing" true (Trace.find t2 "pack" = None);
  check_equal "second inference" second first;
  Alcotest.(check int) "same vm cycles" s1.Runtime.vm_cycles s2.Runtime.vm_cycles

let test_all_selections_agree_functionally () =
  let configs =
    [
      Compiler.default;
      { Compiler.default with Compiler.name = "local"; selection = Compiler.Local };
      { Compiler.default with Compiler.name = "optimal"; selection = Compiler.Optimal_dp };
      { Compiler.default with Compiler.name = "gcd2(5)"; selection = Compiler.Partitioned 5 };
    ]
  in
  let results =
    List.map
      (fun config ->
        let _, vm, _, _ = run_both ~config weighted_cnn 5 in
        vm)
      configs
  in
  match results with
  | first :: rest ->
    List.iteri
      (fun i vm ->
        Array.iteri
          (fun j t ->
            if not (T.equal_data t first.(j)) then
              Alcotest.failf "config %d node %d differs from default" i j)
          vm)
      rest
  | [] -> ()

let test_fusion_reduces_nodes () =
  let g = weighted_cnn 1 in
  let c = Compiler.compile g in
  Alcotest.(check bool) "fusion shrank the graph" true
    (Graph.size c.Compiler.graph < Graph.size g)

let test_selection_costs_ordered () =
  let g = weighted_cnn 2 in
  let compile sel =
    Compiler.compile
      ~config:{ Compiler.default with Compiler.name = "x"; selection = sel }
      g
  in
  let local = compile Compiler.Local in
  let optimal = compile Compiler.Optimal_dp in
  let partitioned = compile Compiler.(Partitioned 13) in
  let ms c = Compiler.latency_ms c in
  Alcotest.(check bool) "optimal <= local" true (ms optimal <= ms local +. 1e-9);
  Alcotest.(check bool) "optimal <= partitioned" true (ms optimal <= ms partitioned +. 1e-9);
  Alcotest.(check bool) "partitioned <= local" true (ms partitioned <= ms local +. 1e-9)

let test_latency_positive () =
  let c = Compiler.compile (weighted_cnn 4) in
  Alcotest.(check bool) "latency > 0" true (Compiler.latency_ms c > 0.0)

(* [?jobs] must be semantically inert: same latency report, same
   assignment, same plan tables, same packed programs whatever the
   worker count — parallel plan enumeration may only change wall time.
   jobs:4 genuinely spawns domains, so this also exercises the
   domain-safety of the memo tables and domain-local tracing. *)
let test_jobs_semantically_inert () =
  let g = weighted_cnn 5 in
  let seq = Compiler.compile ~jobs:1 g in
  let par = Compiler.compile ~jobs:4 g in
  Alcotest.(check (float 0.0))
    "same latency" (Compiler.latency_ms seq) (Compiler.latency_ms par);
  Alcotest.(check (float 0.0))
    "same cycles" seq.Compiler.report.Gcd2_cost.Graphcost.cycles
    par.Compiler.report.Gcd2_cost.Graphcost.cycles;
  Alcotest.(check (array int)) "same assignment" seq.Compiler.assignment
    par.Compiler.assignment;
  let plans (c : Compiler.compiled) =
    Array.map
      (fun per_node -> Array.map (Fmt.str "%a" Gcd2_cost.Plan.pp) per_node)
      c.Compiler.cost.Gcd2_cost.Graphcost.plans
  in
  Alcotest.(check (array (array string))) "same plan tables" (plans seq) (plans par);
  let programs (c : Compiler.compiled) =
    Gcd2_store.Artifact.programs_of ~options:c.Compiler.config.Compiler.opcost
      c.Compiler.graph c.Compiler.cost.Gcd2_cost.Graphcost.plans c.Compiler.assignment
  in
  Alcotest.(check bool) "same packed programs" true (programs seq = programs par)

let qcheck_runtime_equivalence =
  QCheck.Test.make ~name:"compiled models match the reference on random seeds" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let _, vm, host, _ = run_both weighted_cnn seed in
      Array.for_all2 (fun a b -> T.equal_data a b) vm host)

let tests =
  [
    Alcotest.test_case "cnn: vm = reference" `Quick test_cnn_runtime_matches_reference;
    Alcotest.test_case "mlp: vm = reference" `Quick test_mlp_runtime_matches_reference;
    Alcotest.test_case "attention: vm = reference" `Quick
      test_attention_runtime_matches_reference;
    Alcotest.test_case "batched matmul: one kernel per node" `Quick
      test_bmm_one_kernel_per_node;
    Alcotest.test_case "a second inference packs nothing" `Quick
      test_second_inference_packs_nothing;
    Alcotest.test_case "all selections agree functionally" `Quick
      test_all_selections_agree_functionally;
    Alcotest.test_case "fusion reduces node count" `Quick test_fusion_reduces_nodes;
    Alcotest.test_case "selection quality ordering" `Quick test_selection_costs_ordered;
    Alcotest.test_case "latency positive" `Quick test_latency_positive;
    Alcotest.test_case "jobs is semantically inert" `Quick test_jobs_semantically_inert;
    QCheck_alcotest.to_alcotest qcheck_runtime_equivalence;
  ]
