(* Tests for the model zoo: every Table IV model must build, validate, and
   land near the paper's reported operator and MAC counts. *)

module Zoo = Gcd2_models.Zoo
module Graph = Gcd2_graph.Graph
module Flops = Gcd2_graph.Flops
module Op = Gcd2_graph.Op

let with_model name f =
  let e = Zoo.find name in
  let g = e.Zoo.build () in
  Graph.validate g;
  f e g

let test_all_build_and_validate () =
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.Zoo.build () in
      Graph.validate g)
    Zoo.all

let test_op_counts_near_paper () =
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.Zoo.build () in
      let ops = Graph.size g in
      let ratio = float_of_int ops /. float_of_int e.Zoo.paper_ops in
      if ratio < 0.55 || ratio > 1.45 then
        Alcotest.failf "%s: %d ops vs paper %d (ratio %.2f)" e.Zoo.name ops e.Zoo.paper_ops
          ratio)
    Zoo.all

let test_macs_near_paper () =
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.Zoo.build () in
      let gmacs = float_of_int (Flops.total_macs g) /. 1e9 in
      let ratio = gmacs /. e.Zoo.paper_gmacs in
      if ratio < 0.6 || ratio > 1.45 then
        Alcotest.failf "%s: %.2f GMACs vs paper %.2f (ratio %.2f)" e.Zoo.name gmacs
          e.Zoo.paper_gmacs ratio)
    Zoo.all

let count_ops pred g = Graph.fold (fun acc n -> if pred n.Graph.op then acc + 1 else acc) 0 g

let test_tinybert_has_transformer_ops () =
  with_model "TinyBERT" (fun _ g ->
      Alcotest.(check bool) "has pow" true
        (count_ops (function Op.Pow _ -> true | _ -> false) g > 0);
      Alcotest.(check bool) "has batch matmul" true
        (count_ops (function Op.Batch_matmul _ -> true | _ -> false) g >= 12);
      Alcotest.(check bool) "has softmax" true
        (count_ops (function Op.Softmax -> true | _ -> false) g >= 6);
      Alcotest.(check bool) "has layer norm" true
        (count_ops (function Op.Layer_norm -> true | _ -> false) g >= 12))

let test_conformer_structure () =
  with_model "Conformer" (fun _ g ->
      Alcotest.(check bool) "has depthwise (conv module)" true
        (count_ops (function Op.Depthwise_conv2d _ -> true | _ -> false) g >= 16);
      Alcotest.(check bool) "hundreds of operators" true (Graph.size g > 500))

let test_mobilenet_structure () =
  with_model "MobileNet-V3" (fun _ g ->
      Alcotest.(check bool) "has depthwise" true
        (count_ops (function Op.Depthwise_conv2d _ -> true | _ -> false) g = 15);
      Alcotest.(check bool) "has hswish" true
        (count_ops (function Op.Hard_swish -> true | _ -> false) g > 10))

let test_resnet_structure () =
  with_model "ResNet-50" (fun _ g ->
      Alcotest.(check int) "53 convolutions" 53
        (count_ops (function Op.Conv2d _ -> true | _ -> false) g);
      Alcotest.(check int) "16 residual adds" 16
        (count_ops (function Op.Add -> true | _ -> false) g))

let test_efficientdet_is_largest () =
  with_model "EfficientDet-d0" (fun _ g ->
      List.iter
        (fun (other : Zoo.entry) ->
          if other.Zoo.name <> "EfficientDet-d0" && other.Zoo.name <> "Conformer" then begin
            let og = other.Zoo.build () in
            if Graph.size og >= Graph.size g then
              Alcotest.failf "%s has more ops than EfficientDet" other.Zoo.name
          end)
        Zoo.all)

let test_fst_macs_dominated_by_convs () =
  with_model "FST" (fun _ g ->
      let conv_macs =
        Graph.fold
          (fun acc n ->
            match n.Graph.op with
            | Op.Conv2d _ | Op.Transposed_conv2d _ -> acc + Flops.node_macs g n
            | _ -> acc)
          0 g
      in
      Alcotest.(check bool) "conv-dominated" true
        (float_of_int conv_macs > 0.95 *. float_of_int (Flops.total_macs g)))

let test_find () =
  Alcotest.(check string) "case-insensitive find" "ResNet-50" (Zoo.find "resnet-50").Zoo.name;
  Alcotest.check_raises "unknown model" (Invalid_argument "Zoo.find: unknown model \"nope\"")
    (fun () -> ignore (Zoo.find "nope"))

let test_wdsr_tiny_params () =
  with_model "WDSR-b" (fun _ g ->
      let params = Flops.total_params g in
      Alcotest.(check bool) "small parameter count" true (params < 100_000))

(* Whole-model inference pins.  A compiled zoo model with seeded random
   weights runs on seeded inputs, and an MD5 over every node's output
   (dims and values) is pinned, so any change to a simulator lane, a
   kernel or the runtime that moves one output bit fails here.  One seed
   feeds both the weights and the inputs. *)
module T = Gcd2_tensor.Tensor

let infer ?seq name seed =
  let g = Zoo.with_random_weights ~seed (Zoo.build ?seq name) in
  let c = Gcd2.Compiler.compile g in
  let rng = Gcd2_util.Rng.create seed in
  let inputs = ref [] in
  Graph.iter
    (fun n ->
      match n.Graph.op with
      | Op.Input { shape } -> inputs := (n.Graph.id, T.random rng shape) :: !inputs
      | _ -> ())
    c.Gcd2.Compiler.graph;
  let inputs = List.rev !inputs in
  (c, inputs, Gcd2.Runtime.run c ~inputs)

let outputs_digest (outs : T.t array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (t : T.t) ->
      let dims = Array.to_list (Array.map string_of_int t.T.dims) in
      Buffer.add_string b (String.concat "x" dims);
      Array.iter (fun v -> Buffer.add_int32_le b (Int32.of_int v)) t.T.data;
      Buffer.add_char b ';')
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [interp]: the outputs must also equal the reference interpreter node
   for node, which only models without a batched matmul do until ROADMAP
   item 1 lands. *)
let test_pinned_inference ?seq ?(interp = false) name want () =
  let c, inputs, outs = infer ?seq name 1 in
  Alcotest.(check string) (name ^ " output digest") want (outputs_digest outs);
  if interp then begin
    let host = Gcd2_kernels.Interp.run c.Gcd2.Compiler.graph ~inputs in
    Array.iteri
      (fun i t ->
        if not (T.equal_data t host.(i)) then
          Alcotest.failf "node %d differs from Interp.run" i)
      outs
  end

(* Every zoo kernel runs in the simulator's native loop: an inference
   sends no program whole to the reference interpreter. *)
let test_no_reference_runs () =
  List.iter
    (fun (name, seq) ->
      let trace = Gcd2_util.Trace.create "infer" in
      ignore (Gcd2_util.Trace.with_ambient trace (fun () -> infer ?seq name 1));
      Alcotest.(check int)
        (name ^ ": programs run on the reference")
        0
        (Gcd2_util.Trace.counter trace "vm-reference-runs"))
    [ ("MobileNet-V3", None); ("TinyBERT", Some 64) ]

let tests =
  [
    Alcotest.test_case "all models build + validate" `Quick test_all_build_and_validate;
    Alcotest.test_case "operator counts near table IV" `Quick test_op_counts_near_paper;
    Alcotest.test_case "mac counts near table IV" `Quick test_macs_near_paper;
    Alcotest.test_case "tinybert transformer ops" `Quick test_tinybert_has_transformer_ops;
    Alcotest.test_case "conformer structure" `Quick test_conformer_structure;
    Alcotest.test_case "mobilenet structure" `Quick test_mobilenet_structure;
    Alcotest.test_case "resnet structure" `Quick test_resnet_structure;
    Alcotest.test_case "efficientdet is the largest cnn" `Quick test_efficientdet_is_largest;
    Alcotest.test_case "fst is conv-dominated" `Quick test_fst_macs_dominated_by_convs;
    Alcotest.test_case "zoo lookup" `Quick test_find;
    Alcotest.test_case "wdsr has tiny params" `Quick test_wdsr_tiny_params;
    Alcotest.test_case "mobilenet-v3 inference is pinned, = Interp" `Quick
      (test_pinned_inference ~interp:true "MobileNet-V3" "4fdd09392b87d588262c733bb705eafc");
    Alcotest.test_case "tinybert seq 64 inference is pinned" `Quick
      (test_pinned_inference ~seq:64 "TinyBERT" "d2193271b78825beb9cc46bfd0846dc6");
    Alcotest.test_case "conformer seq 64 inference is pinned" `Quick
      (test_pinned_inference ~seq:64 "Conformer" "77a361507afc750bcecfde9acf6a921c");
    Alcotest.test_case "inferences run no program on the reference" `Quick test_no_reference_runs;
  ]
