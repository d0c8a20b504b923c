(* Tests for Gcd2_kernels: the reference interpreter's integer semantics.
   These are the golden definitions everything else is checked against, so
   they get their own sanity checks (hand-computed cases, algebraic
   properties, LUT consistency). *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Sat = Gcd2_util.Saturate
module Rng = Gcd2_util.Rng
module Interp = Gcd2_kernels.Interp
module Lut = Gcd2_kernels.Lut
open Gcd2_graph

let identity_mult = Sat.quantize_multiplier 1.0

let test_matmul_hand_computed () =
  (* 2x2 * 2x2 with identity requant *)
  let a = [| 1; 2; 3; 4 |] and w = [| 5; 6; 7; 8 |] in
  let mult, shift = identity_mult in
  Alcotest.(check (array int)) "exact small product" [| 19; 22; 43; 50 |]
    (Interp.matmul_i8 ~m:2 ~k:2 ~n:2 a w ~mult ~shift)

let test_matmul_requant_saturates () =
  let a = Array.make 16 127 and w = Array.make 16 127 in
  let mult, shift = identity_mult in
  let out = Interp.matmul_i8 ~m:4 ~k:4 ~n:4 a w ~mult ~shift in
  Array.iter (fun v -> Alcotest.(check int) "saturated" 127 v) out

let test_im2col_identity_for_1x1 () =
  let rng = Rng.create 3 in
  let x = T.random rng [| 1; 4; 5; 3 |] in
  let patches, rows, cols, oh, ow = Interp.im2col x ~kh:1 ~kw:1 ~stride:1 ~pad:0 in
  Alcotest.(check (pair int int)) "dims" (20, 3) (rows, cols);
  Alcotest.(check (pair int int)) "spatial" (4, 5) (oh, ow);
  Alcotest.(check (array int)) "1x1 im2col is the identity" x.T.data patches

let test_im2col_padding_zeroes () =
  let x = T.of_array [| 1; 1; 1; 1 |] [| 9 |] in
  let patches, rows, cols, _, _ = Interp.im2col x ~kh:3 ~kw:3 ~stride:1 ~pad:1 in
  Alcotest.(check (pair int int)) "one padded patch" (1, 9) (rows, cols);
  Alcotest.(check (array int)) "centre value, zero border"
    [| 0; 0; 0; 0; 9; 0; 0; 0; 0 |] patches

let test_conv_equals_matmul_on_1x1 () =
  (* a 1x1 convolution is exactly a matmul over pixels *)
  let rng = Rng.create 4 in
  let x = T.random rng [| 1; 3; 3; 4 |] in
  let w = T.random ~quant:(Q.make (1.0 /. 64.0)) rng [| 1; 1; 4; 6 |] in
  let out_q = Q.default in
  let conv = Interp.conv2d x ~weight:w ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:6 ~act:None ~out_q in
  let mm =
    Interp.matmul (T.reshape x [| 9; 4 |]) ~weight:(T.reshape w [| 4; 6 |]) ~cout:6 ~act:None
      ~out_q
  in
  Alcotest.(check (array int)) "agree" mm.T.data conv.T.data

let test_depthwise_identity_kernel () =
  (* a 1x1 depthwise conv with unit weights (in weight scale) rescales *)
  let x = T.of_array [| 1; 2; 2; 2 |] [| 8; -8; 16; -16; 24; -24; 32; -32 |] in
  let wq = Q.make (1.0 /. 64.0) in
  let w = T.of_array ~quant:wq [| 1; 1; 2 |] [| 64; 64 |] in
  (* weight value = 64 * (1/64) = 1.0 *)
  let out = Interp.depthwise_conv2d x ~weight:w ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~act:None ~out_q:x.T.quant in
  Alcotest.(check (array int)) "identity" x.T.data out.T.data

let test_add_commutes () =
  let rng = Rng.create 9 in
  let a = T.random rng [| 4; 4 |] and b = T.random rng [| 4; 4 |] in
  let x = Interp.binary_elementwise `Add a b ~out_q:Q.default in
  let y = Interp.binary_elementwise `Add b a ~out_q:Q.default in
  Alcotest.(check (array int)) "a+b = b+a" x.T.data y.T.data

let test_mul_by_zero () =
  let rng = Rng.create 10 in
  let a = T.random rng [| 8 |] in
  let z = T.of_array [| 8 |] (Array.make 8 0) in
  let out = Interp.binary_elementwise `Mul a z ~out_q:Q.default in
  Array.iter (fun v -> Alcotest.(check int) "zero" 0 v) out.T.data

let test_softmax_properties () =
  let rng = Rng.create 11 in
  let x = T.random rng [| 4; 16 |] in
  let s = Interp.softmax x in
  (* rows approximately sum to 1.0 in the output scale (1/128) *)
  for r = 0 to 3 do
    let sum = ref 0 in
    for c = 0 to 15 do
      sum := !sum + s.T.data.((r * 16) + c)
    done;
    if abs (!sum - 128) > 16 then Alcotest.failf "row %d sums to %d/128" r !sum
  done;
  (* monotone: bigger input, bigger probability *)
  let x2 = T.of_array [| 1; 4 |] [| 10; 20; 30; 40 |] in
  let s2 = Interp.softmax x2 in
  for i = 0 to 2 do
    if s2.T.data.(i) > s2.T.data.(i + 1) then Alcotest.fail "softmax not monotone"
  done

let test_layer_norm_centers () =
  let x = T.of_array [| 1; 8 |] [| 10; 20; 30; 40; 50; 60; 70; 80 |] in
  let n = Interp.layer_norm x in
  let sum = Array.fold_left ( + ) 0 n.T.data in
  Alcotest.(check bool) "approximately centered" true (abs sum <= 8);
  Alcotest.(check bool) "antisymmetric-ish" true
    (n.T.data.(0) < 0 && n.T.data.(7) > 0)

let test_pools () =
  let x = T.of_array [| 1; 2; 2; 1 |] [| 1; 5; 3; 7 |] in
  let mx = Interp.pool ~mode:`Max x ~kernel:2 ~stride:2 in
  Alcotest.(check (array int)) "max" [| 7 |] mx.T.data;
  let av = Interp.pool ~mode:`Avg x ~kernel:2 ~stride:2 in
  Alcotest.(check (array int)) "avg" [| 4 |] av.T.data;
  let g = Interp.global_avg_pool x in
  Alcotest.(check (array int)) "gap" [| 4 |] g.T.data

let test_transpose_involution () =
  let rng = Rng.create 12 in
  let x = T.random rng [| 3; 4; 5 |] in
  let t = Interp.transpose x ~perm:[| 2; 0; 1 |] in
  let back = Interp.transpose t ~perm:[| 1; 2; 0 |] in
  Alcotest.(check (array int)) "roundtrip" x.T.data back.T.data;
  Alcotest.check Alcotest.(array int) "dims permuted" [| 5; 3; 4 |] t.T.dims

let test_concat_upsample_pad () =
  let a = T.of_array [| 1; 2 |] [| 1; 2 |] and b = T.of_array [| 1; 2 |] [| 3; 4 |] in
  let c = Interp.concat a b ~axis:1 in
  Alcotest.(check (array int)) "concat" [| 1; 2; 3; 4 |] c.T.data;
  let x = T.of_array [| 1; 1; 1; 1 |] [| 9 |] in
  let u = Interp.upsample x ~factor:2 in
  Alcotest.(check (array int)) "upsample" [| 9; 9; 9; 9 |] u.T.data;
  let p = Interp.pad_spatial x ~pad:1 in
  Alcotest.(check int) "padded numel" 9 (T.numel p);
  Alcotest.(check int) "centre kept" 9 (T.get p [| 0; 1; 1; 0 |])

let test_lut_consistency () =
  (* relu via the LUT equals relu computed directly *)
  let q = Q.default in
  let table = Lut.of_fn ~in_q:q ~out_q:q Lut.relu in
  for v = -127 to 127 do
    let got = Lut.apply table v in
    let want = Q.quantize q (Lut.relu (Q.dequantize q v)) in
    Alcotest.(check int) (Fmt.str "relu(%d)" v) want got
  done

let test_unary_spec_covers_unaries () =
  List.iter
    (fun op ->
      match Interp.unary_spec op with
      | Some _ -> ()
      | None -> Alcotest.failf "no unary spec for %s" (Op.name op))
    [ Op.Relu; Op.Relu6; Op.Hard_swish; Op.Sigmoid; Op.Tanh; Op.Gelu; Op.Pow 2.0 ]

let test_graph_run_missing_input () =
  let b = Gcd2_graph.Graph.Builder.create () in
  let _ = Gcd2_graph.Graph.Builder.input b [| 2; 2 |] in
  let g = Gcd2_graph.Graph.Builder.finish b in
  Alcotest.check_raises "missing input" (Invalid_argument "Interp.run: missing input 0")
    (fun () -> ignore (Interp.run g ~inputs:[]))

(* ---- host operators against the per-element loops they replaced ---- *)

(* The oracle depthwise convolution: every tap of every channel tested
   against the input bounds, [Sat.requantize] and [Lut.apply] per element
   in a second pass. *)
let oracle_depthwise (x : T.t) ~(weight : T.t) ~kh ~kw ~stride ~pad ~act ~out_q =
  let n, h, w, c = match x.T.dims with [| n; h; w; c |] -> (n, h, w, c) | _ -> assert false in
  let pad_h = if kh = 1 then 0 else pad and pad_w = if kw = 1 then 0 else pad in
  let oh = ((h + (2 * pad_h) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad_w) - kw) / stride) + 1 in
  let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:weight.T.quant ~out:out_q in
  let out = Array.make (n * oh * ow * c) 0 in
  for b = 0 to n - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        for ch = 0 to c - 1 do
          let acc = ref 0 in
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let iy = (oy * stride) + ky - pad_h and ix = (ox * stride) + kx - pad_w in
              if iy >= 0 && iy < h && ix >= 0 && ix < w then
                acc :=
                  !acc
                  + (x.T.data.((((((b * h) + iy) * w) + ix) * c) + ch)
                    * weight.T.data.((((ky * kw) + kx) * c) + ch))
            done
          done;
          out.((((((b * oh) + oy) * ow) + ox) * c) + ch) <-
            Sat.requantize !acc ~mult ~shift ~zero:0
        done
      done
    done
  done;
  let out =
    match act with
    | None -> out
    | Some a ->
      let table = Lut.of_act ~in_q:out_q ~out_q a in
      Array.map (fun q -> Lut.apply table q) out
  in
  T.of_array ~quant:out_q [| n; oh; ow; c |] out

let oracle_pad (x : T.t) ~pad =
  let n, h, w, c = match x.T.dims with [| n; h; w; c |] -> (n, h, w, c) | _ -> assert false in
  let oh = h + (2 * pad) and ow = w + (2 * pad) in
  let out = Array.make (n * oh * ow * c) 0 in
  for b = 0 to n - 1 do
    for y = 0 to h - 1 do
      for xx = 0 to w - 1 do
        for ch = 0 to c - 1 do
          out.((((((b * oh) + y + pad) * ow) + xx + pad) * c) + ch) <-
            x.T.data.((((((b * h) + y) * w) + xx) * c) + ch)
        done
      done
    done
  done;
  T.of_array ~quant:x.T.quant [| n; oh; ow; c |] out

let qcheck_host_ops_match_oracle =
  QCheck.Test.make ~name:"depthwise conv and pad equal their per-element loops" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kh = 1 + Rng.int rng 5 and kw = 1 + Rng.int rng 5 in
      let stride = 1 + Rng.int rng 2 and pad = Rng.int rng 3 in
      (* the input covers the kernel once padded *)
      let h = max 1 (kh - (2 * pad)) + Rng.int rng 7 in
      let w = max 1 (kw - (2 * pad)) + Rng.int rng 7 in
      let n = 1 + Rng.int rng 2 and c = 1 + Rng.int rng 19 in
      (* int8 values, with -128 (the asymmetric extreme) drawn often *)
      let int8 () = if Rng.int rng 8 = 0 then -128 else Rng.int rng 256 - 128 in
      let x =
        T.of_array ~quant:(Q.make (0.01 +. Rng.float rng)) [| n; h; w; c |]
          (Array.init (n * h * w * c) (fun _ -> int8 ()))
      in
      let weight =
        T.of_array ~quant:(Q.make (0.001 +. (0.1 *. Rng.float rng))) [| kh; kw; c |]
          (Array.init (kh * kw * c) (fun _ -> int8 ()))
      in
      let act = [| None; Some Op.A_relu; Some Op.A_relu6; Some Op.A_hswish |].(Rng.int rng 4) in
      let out_q = Q.make (0.01 +. (0.2 *. Rng.float rng)) in
      let got = Interp.depthwise_conv2d x ~weight ~kh ~kw ~stride ~pad ~act ~out_q in
      let want = oracle_depthwise x ~weight ~kh ~kw ~stride ~pad ~act ~out_q in
      if not (T.equal_data got want) then
        QCheck.Test.fail_reportf "dwconv n=%d h=%d w=%d c=%d k=%dx%d s=%d p=%d" n h w c kh kw
          stride pad;
      T.equal_data (Interp.pad_spatial x ~pad) (oracle_pad x ~pad))

let tests =
  [
    Alcotest.test_case "matmul hand-computed" `Quick test_matmul_hand_computed;
    Alcotest.test_case "matmul saturation" `Quick test_matmul_requant_saturates;
    Alcotest.test_case "im2col identity on 1x1" `Quick test_im2col_identity_for_1x1;
    Alcotest.test_case "im2col zero padding" `Quick test_im2col_padding_zeroes;
    Alcotest.test_case "1x1 conv = matmul" `Quick test_conv_equals_matmul_on_1x1;
    Alcotest.test_case "depthwise identity" `Quick test_depthwise_identity_kernel;
    Alcotest.test_case "add commutes" `Quick test_add_commutes;
    Alcotest.test_case "mul by zero" `Quick test_mul_by_zero;
    Alcotest.test_case "softmax properties" `Quick test_softmax_properties;
    Alcotest.test_case "layer norm centers" `Quick test_layer_norm_centers;
    Alcotest.test_case "pooling" `Quick test_pools;
    Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
    Alcotest.test_case "concat / upsample / pad" `Quick test_concat_upsample_pad;
    Alcotest.test_case "lut consistency" `Quick test_lut_consistency;
    Alcotest.test_case "unary specs" `Quick test_unary_spec_covers_unaries;
    Alcotest.test_case "missing input error" `Quick test_graph_run_missing_input;
    QCheck_alcotest.to_alcotest qcheck_host_ops_match_oracle;
  ]
