(** Reference (golden) integer semantics for every operator.

    This interpreter defines what each quantized operator {e means}; the
    code generator must reproduce these results bit-exactly for the
    operators it executes on the simulated DSP (the test suite checks
    this).  All arithmetic is int8 inputs, int32 accumulation, fixed-point
    requantization — the standard mobile inference recipe the paper
    builds on. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Sat = Gcd2_util.Saturate
module Op = Gcd2_graph.Op
module Graph = Gcd2_graph.Graph
open Gcd2_graph

let numel = Array.fold_left ( * ) 1

(* ------------------------------------------------------------------ *)
(* Matrix multiplication                                               *)

(** [matmul_i8 ~m ~k ~n a w ~mult ~shift] — row-major [a] (m x k) times
    [w] (k x n), int32 accumulation, requantized to int8 with the
    fixed-point multiplier. *)
let matmul_i8 ~m ~k ~n a w ~mult ~shift =
  let out = Array.make (m * n) 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0 in
      for l = 0 to k - 1 do
        acc := !acc + (a.((i * k) + l) * w.((l * n) + j))
      done;
      out.((i * n) + j) <- Sat.requantize !acc ~mult ~shift ~zero:0
    done
  done;
  out

(** Per-output-channel requantization variant of {!matmul_i8}: column [j]
    uses multiplier [mults.(j)] with the common [shift] (the layout of
    {!Gcd2_tensor.Quant.per_channel_requant}). *)
let matmul_i8_per_channel ~m ~k ~n a w ~mults ~shift =
  let out = Array.make (m * n) 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0 in
      for l = 0 to k - 1 do
        acc := !acc + (a.((i * k) + l) * w.((l * n) + j))
      done;
      out.((i * n) + j) <- Sat.requantize !acc ~mult:mults.(j) ~shift ~zero:0
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* im2col — patch extraction for convolution-as-GEMM                   *)

(** [im2col x ~kh ~kw ~stride ~pad] flattens an NHWC tensor into the
    patch matrix of shape [(n*oh*ow) x (kh*kw*c)].  The DSP runtime uses
    the same routine to stage convolution inputs (its cost is part of the
    operator's memory term). *)
let im2col (x : T.t) ~kh ~kw ~stride ~pad =
  match x.T.dims with
  | [| n; h; w; c |] ->
    let pad_h = if kh = 1 then 0 else pad and pad_w = if kw = 1 then 0 else pad in
    let oh = ((h + (2 * pad_h) - kh) / stride) + 1 in
    let ow = ((w + (2 * pad_w) - kw) / stride) + 1 in
    let rows = n * oh * ow and cols = kh * kw * c in
    let out = Array.make (rows * cols) 0 in
    let row = ref 0 in
    for b = 0 to n - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let col = ref 0 in
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              for ch = 0 to c - 1 do
                let iy = (oy * stride) + ky - pad_h and ix = (ox * stride) + kx - pad_w in
                let v =
                  if iy < 0 || iy >= h || ix < 0 || ix >= w then 0
                  else x.T.data.((((((b * h) + iy) * w) + ix) * c) + ch)
                in
                out.((!row * cols) + !col) <- v;
                incr col
              done
            done
          done;
          incr row
        done
      done
    done;
    (out, rows, cols, oh, ow)
  | _ -> invalid_arg "im2col: NHWC input expected"

(* ------------------------------------------------------------------ *)
(* Operator implementations                                            *)

let apply_act_opt ~out_q act data =
  match act with
  | None -> data
  | Some a ->
    let table = Lut.of_act ~in_q:out_q ~out_q a in
    Array.map (fun q -> Lut.apply table q) data

let conv2d (x : T.t) ~(weight : T.t) ~kh ~kw ~stride ~pad ~cout ~act ~out_q =
  let cin = x.T.dims.(3) in
  if weight.T.dims <> [| kh; kw; cin; cout |] then
    invalid_arg "conv2d: weight shape must be [kh; kw; cin; cout]";
  let patches, rows, cols, oh, ow = im2col x ~kh ~kw ~stride ~pad in
  let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:weight.T.quant ~out:out_q in
  let data = matmul_i8 ~m:rows ~k:cols ~n:cout patches weight.T.data ~mult ~shift in
  let data = apply_act_opt ~out_q act data in
  T.of_array ~quant:out_q [| x.T.dims.(0); oh; ow; cout |] data

(* [Sat.requantize acc ~mult ~shift ~zero:0], inlined for the host
   depthwise loop: its 32-bit saturation is subsumed by the final 8-bit
   clamp (nested monotone clamps). *)
let[@inline] requantize8 acc ~mult ~shift =
  let x = acc * mult in
  let v =
    if shift = 0 then x
    else
      let half = 1 lsl (shift - 1) in
      if x >= 0 then (x + half) asr shift else -((-x + half) asr shift)
  in
  if v < -128 then -128 else if v > 127 then 127 else v

(* Depthwise convolution visits, for each output pixel, only the taps
   inside the input, adding all channels of a tap at once into one
   accumulator row; requantization and the activation table apply in
   the same pass.  Integer sums are exact, so the tap order cannot
   change a bit of the result. *)
let depthwise_conv2d (x : T.t) ~(weight : T.t) ~kh ~kw ~stride ~pad ~act ~out_q =
  match x.T.dims with
  | [| n; h; w; c |] ->
    if weight.T.dims <> [| kh; kw; c |] then
      invalid_arg "dwconv: weight shape must be [kh; kw; c]";
    let pad_h = if kh = 1 then 0 else pad and pad_w = if kw = 1 then 0 else pad in
    let oh = ((h + (2 * pad_h) - kh) / stride) + 1 in
    let ow = ((w + (2 * pad_w) - kw) / stride) + 1 in
    let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:weight.T.quant ~out:out_q in
    (* the activation table as signed values, indexed by the raw byte *)
    let table =
      match act with
      | None -> None
      | Some a ->
        Some (Array.map (fun v -> Sat.sign_extend ~bits:8 v) (Lut.of_act ~in_q:out_q ~out_q a))
    in
    let xd = x.T.data and wd = weight.T.data in
    (* the unchecked accesses below rely on data matching dims *)
    if Array.length xd <> n * h * w * c || Array.length wd <> kh * kw * c then
      invalid_arg "dwconv: tensor data does not match its dims";
    let out = Array.make (n * oh * ow * c) 0 in
    let acc = Array.make c 0 in
    for b = 0 to n - 1 do
      for oy = 0 to oh - 1 do
        let y0 = (oy * stride) - pad_h in
        let ky_lo = max 0 (-y0) and ky_hi = min (kh - 1) (h - 1 - y0) in
        for ox = 0 to ow - 1 do
          let x0 = (ox * stride) - pad_w in
          let kx_lo = max 0 (-x0) and kx_hi = min (kw - 1) (w - 1 - x0) in
          Array.fill acc 0 c 0;
          for ky = ky_lo to ky_hi do
            for kx = kx_lo to kx_hi do
              let xi = ((((b * h) + y0 + ky) * w) + x0 + kx) * c
              and wi = ((ky * kw) + kx) * c in
              for ch = 0 to c - 1 do
                Array.unsafe_set acc ch
                  (Array.unsafe_get acc ch
                  + (Array.unsafe_get xd (xi + ch) * Array.unsafe_get wd (wi + ch)))
              done
            done
          done;
          let oi = ((((b * oh) + oy) * ow) + ox) * c in
          match table with
          | None ->
            for ch = 0 to c - 1 do
              Array.unsafe_set out (oi + ch) (requantize8 (Array.unsafe_get acc ch) ~mult ~shift)
            done
          | Some t ->
            for ch = 0 to c - 1 do
              let q = requantize8 (Array.unsafe_get acc ch) ~mult ~shift in
              Array.unsafe_set out (oi + ch) (Array.unsafe_get t (q land 0xff))
            done
        done
      done
    done;
    T.of_array ~quant:out_q [| n; oh; ow; c |] out
  | _ -> invalid_arg "dwconv: NHWC input expected"

let transposed_conv2d (x : T.t) ~(weight : T.t) ~kh ~kw ~stride ~pad ~cout ~act ~out_q =
  match x.T.dims with
  | [| n; h; w; cin |] ->
    if weight.T.dims <> [| kh; kw; cin; cout |] then
      invalid_arg "tconv: weight shape must be [kh; kw; cin; cout]";
    let oh = ((h - 1) * stride) - (2 * pad) + kh in
    let ow = ((w - 1) * stride) - (2 * pad) + kw in
    let acc = Array.make (n * oh * ow * cout) 0 in
    for b = 0 to n - 1 do
      for iy = 0 to h - 1 do
        for ix = 0 to w - 1 do
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let oy = (iy * stride) + ky - pad and ox = (ix * stride) + kx - pad in
              if oy >= 0 && oy < oh && ox >= 0 && ox < ow then
                for oc = 0 to cout - 1 do
                  let s = ref acc.((((((b * oh) + oy) * ow) + ox) * cout) + oc) in
                  for ic = 0 to cin - 1 do
                    s :=
                      !s
                      + (x.T.data.((((((b * h) + iy) * w) + ix) * cin) + ic)
                        * weight.T.data.((((((ky * kw) + kx) * cin) + ic) * cout) + oc))
                  done;
                  acc.((((((b * oh) + oy) * ow) + ox) * cout) + oc) <- !s
                done
            done
          done
        done
      done
    done;
    let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:weight.T.quant ~out:out_q in
    let data = Array.map (fun a -> Sat.requantize a ~mult ~shift ~zero:0) acc in
    let data = apply_act_opt ~out_q act data in
    T.of_array ~quant:out_q [| n; oh; ow; cout |] data
  | _ -> invalid_arg "tconv: NHWC input expected"

let matmul (x : T.t) ~(weight : T.t) ~cout ~act ~out_q =
  let rows, k = T.matrix_dims x in
  if weight.T.dims <> [| k; cout |] then invalid_arg "matmul: weight shape must be [k; cout]";
  let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:weight.T.quant ~out:out_q in
  let data = matmul_i8 ~m:rows ~k ~n:cout x.T.data weight.T.data ~mult ~shift in
  let data = apply_act_opt ~out_q act data in
  let dims = Array.copy x.T.dims in
  dims.(Array.length dims - 1) <- cout;
  T.of_array ~quant:out_q dims data

let batch_matmul (a : T.t) (b : T.t) ~transpose_b ~out_q =
  let ra = Array.length a.T.dims in
  let batch = numel (Array.sub a.T.dims 0 (ra - 2)) in
  let m = a.T.dims.(ra - 1 - 1) and k = a.T.dims.(ra - 1) in
  let n = if transpose_b then b.T.dims.(ra - 2) else b.T.dims.(ra - 1) in
  let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
  let out = Array.make (batch * m * n) 0 in
  for bt = 0 to batch - 1 do
    let ab = bt * m * k and bb = bt * k * n in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0 in
        for l = 0 to k - 1 do
          let bv =
            if transpose_b then b.T.data.(bb + (j * k) + l) else b.T.data.(bb + (l * n) + j)
          in
          acc := !acc + (a.T.data.(ab + (i * k) + l) * bv)
        done;
        out.((bt * m * n) + (i * n) + j) <- Sat.requantize !acc ~mult ~shift ~zero:0
      done
    done
  done;
  let dims = Array.copy a.T.dims in
  dims.(ra - 1) <- n;
  T.of_array ~quant:out_q dims out

(* Elementwise with operand rescaling into the output scale. *)
let binary_elementwise op (a : T.t) (b : T.t) ~out_q =
  let broadcast = T.numel b < T.numel a in
  let bval i = if broadcast then b.T.data.(i mod T.numel b) else b.T.data.(i) in
  match op with
  | `Add | `Sub ->
    let ma = Q.rescale_multiplier ~from:a.T.quant ~into:out_q in
    let mb = Q.rescale_multiplier ~from:b.T.quant ~into:out_q in
    let sign = if op = `Add then 1 else -1 in
    (* each operand is rescaled into the output scale (an int8 -> int8 map,
       a table lookup on the DSP) and clamped before the saturating add —
       matching the generated vector kernel exactly *)
    let data =
      Array.mapi
        (fun i qa ->
          Sat.sat8
            (Sat.sat8 (Sat.apply_multiplier qa ma)
            + Sat.sat8 (sign * Sat.apply_multiplier (bval i) mb)))
        a.T.data
    in
    T.of_array ~quant:out_q (Array.copy a.T.dims) data
  | `Mul ->
    let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
    let data =
      Array.mapi (fun i qa -> Sat.requantize (qa * bval i) ~mult ~shift ~zero:0) a.T.data
    in
    T.of_array ~quant:out_q (Array.copy a.T.dims) data
  | `Div ->
    (* On the DSP this becomes a reciprocal table lookup followed by a
       multiply (the paper's division-to-lookup optimization); the
       reference computes the same deterministic real-valued division. *)
    let data =
      Array.mapi
        (fun i qa ->
          let x = Q.dequantize a.T.quant qa and y = Q.dequantize b.T.quant (bval i) in
          if Float.abs y < 1e-9 then 0 else Q.quantize out_q (x /. y))
        a.T.data
    in
    T.of_array ~quant:out_q (Array.copy a.T.dims) data

(** The (output quantization, real function) that defines each pure unary
    operator; shared with the code generator so its lookup tables are
    identical to the reference semantics. *)
let unary_spec (op : Op.t) : (Q.t * (float -> float)) option =
  match op with
  | Op.Pow p ->
    Some
      ( Q.default,
        fun x -> if x < 0.0 && Float.rem p 1.0 <> 0.0 then 0.0 else Float.pow x p )
  | Op.Relu -> Some (Q.default, Lut.relu)
  | Op.Relu6 -> Some (Q.default, Lut.relu6)
  | Op.Hard_swish -> Some (Q.default, Lut.hswish)
  | Op.Sigmoid -> Some (Q.make (1.0 /. 128.0), Lut.sigmoid)
  | Op.Tanh -> Some (Q.make (1.0 /. 128.0), Float.tanh)
  | Op.Gelu -> Some (Q.default, Lut.gelu)
  | _ -> None

let unary_lut (x : T.t) ~out_q f =
  let table = Lut.of_fn ~in_q:x.T.quant ~out_q f in
  T.of_array ~quant:out_q (Array.copy x.T.dims)
    (Array.map (fun q -> Lut.apply table q) x.T.data)

(** Integer softmax along the last axis (shared algorithm; see module doc
    of {!Lut} for why both sides use identical integer steps). *)
let softmax (x : T.t) =
  let out_q = Q.make (1.0 /. 128.0) in
  let _, cols = T.matrix_dims x in
  let rows = T.numel x / cols in
  (* The exact integer steps of the DSP kernel (Gcd2_codegen.Rowops):
     saturated delta, exponential via the shared table, fixed-point
     reciprocal scale at shift 15. *)
  let table = Lut.softmax_exp_table ~scale:x.T.quant.Q.scale in
  let out = Array.make (T.numel x) 0 in
  for r = 0 to rows - 1 do
    let base = r * cols in
    let m = ref (-128) in
    for j = 0 to cols - 1 do
      m := max !m x.T.data.(base + j)
    done;
    let e = Array.init cols (fun j -> table.(Sat.sat8 (x.T.data.(base + j) - !m) land 0xff)) in
    let sum = Array.fold_left ( + ) 0 e in
    let recip = Lut.softmax_recip sum in
    for j = 0 to cols - 1 do
      out.(base + j) <- Sat.sat8 (Sat.apply_multiplier e.(j) (recip, 15))
    done
  done;
  T.of_array ~quant:out_q (Array.copy x.T.dims) out

(** Integer layer normalization along the last axis: the exact steps of
    the DSP kernel (Gcd2_codegen.Rowops) — integer row sums, a per-row
    fused normalize-affine multiplier, and a fixed-point scale of the
    centered value at shift 15. *)
let layer_norm (x : T.t) =
  let out_q = Q.make (1.0 /. 16.0) in
  let _, cols = T.matrix_dims x in
  let rows = T.numel x / cols in
  let out = Array.make (T.numel x) 0 in
  for r = 0 to rows - 1 do
    let base = r * cols in
    let sum = ref 0 and sumsq = ref 0 in
    for j = 0 to cols - 1 do
      let v = x.T.data.(base + j) in
      sum := !sum + v;
      sumsq := !sumsq + (v * v)
    done;
    let mean, nm =
      Lut.layer_norm_multiplier ~scale:x.T.quant.Q.scale ~out_scale:out_q.Q.scale ~cols
        ~sum:!sum ~sumsq:!sumsq
    in
    for j = 0 to cols - 1 do
      out.(base + j) <-
        Sat.sat8 (Sat.apply_multiplier (x.T.data.(base + j) - mean) (nm, 15))
    done
  done;
  T.of_array ~quant:out_q (Array.copy x.T.dims) out

let pool ~mode (x : T.t) ~kernel ~stride =
  match x.T.dims with
  | [| n; h; w; c |] ->
    let oh = ((h - kernel) / stride) + 1 and ow = ((w - kernel) / stride) + 1 in
    let out = Array.make (n * oh * ow * c) 0 in
    for b = 0 to n - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let acc = ref (match mode with `Max -> -128 | `Avg -> 0) in
            for ky = 0 to kernel - 1 do
              for kx = 0 to kernel - 1 do
                let v =
                  x.T.data.(((((((b * h) + (oy * stride) + ky) * w) + (ox * stride) + kx) * c) + ch))
                in
                match mode with
                | `Max -> acc := max !acc v
                | `Avg -> acc := !acc + v
              done
            done;
            let v =
              match mode with
              | `Max -> !acc
              | `Avg ->
                let count = kernel * kernel in
                if !acc >= 0 then (!acc + (count / 2)) / count
                else -(((- !acc) + (count / 2)) / count)
            in
            out.((((((b * oh) + oy) * ow) + ox) * c) + ch) <- v
          done
        done
      done
    done;
    T.of_array ~quant:x.T.quant [| n; oh; ow; c |] out
  | _ -> invalid_arg "pool: NHWC input expected"

let global_avg_pool (x : T.t) =
  match x.T.dims with
  | [| n; h; w; c |] ->
    let out = Array.make (n * c) 0 in
    for b = 0 to n - 1 do
      for ch = 0 to c - 1 do
        let acc = ref 0 in
        for y = 0 to h - 1 do
          for xx = 0 to w - 1 do
            acc := !acc + x.T.data.((((((b * h) + y) * w) + xx) * c) + ch)
          done
        done;
        let count = h * w in
        out.((b * c) + ch) <- Sat.sat8 ((!acc + (count / 2)) / count)
      done
    done;
    T.of_array ~quant:x.T.quant [| n; 1; 1; c |] out
  | _ -> invalid_arg "gap: NHWC input expected"

let transpose (x : T.t) ~perm =
  let rank = Array.length x.T.dims in
  let out_dims = Array.map (fun p -> x.T.dims.(p)) perm in
  let out = Array.make (T.numel x) 0 in
  let idx = Array.make rank 0 in
  let strides_in = Array.make rank 1 in
  for i = rank - 2 downto 0 do
    strides_in.(i) <- strides_in.(i + 1) * x.T.dims.(i + 1)
  done;
  let strides_out = Array.make rank 1 in
  for i = rank - 2 downto 0 do
    strides_out.(i) <- strides_out.(i + 1) * out_dims.(i + 1)
  done;
  let total = T.numel x in
  for lin = 0 to total - 1 do
    (* decompose lin in input coordinates *)
    let rem = ref lin in
    for i = 0 to rank - 1 do
      idx.(i) <- !rem / strides_in.(i);
      rem := !rem mod strides_in.(i)
    done;
    let out_lin = ref 0 in
    Array.iteri (fun oi p -> out_lin := !out_lin + (idx.(p) * strides_out.(oi))) perm;
    out.(!out_lin) <- x.T.data.(lin)
  done;
  T.of_array ~quant:x.T.quant out_dims out

let concat (a : T.t) (b : T.t) ~axis =
  let rank = Array.length a.T.dims in
  let out_dims = Array.copy a.T.dims in
  out_dims.(axis) <- a.T.dims.(axis) + b.T.dims.(axis);
  let inner d = numel (Array.sub d (axis + 1) (rank - axis - 1)) in
  let outer = numel (Array.sub a.T.dims 0 axis) in
  let ia = a.T.dims.(axis) * inner a.T.dims in
  let ib = b.T.dims.(axis) * inner b.T.dims in
  let out = Array.make (T.numel a + T.numel b) 0 in
  for o = 0 to outer - 1 do
    Array.blit a.T.data (o * ia) out (o * (ia + ib)) ia;
    Array.blit b.T.data (o * ib) out ((o * (ia + ib)) + ia) ib
  done;
  T.of_array ~quant:a.T.quant out_dims out

let pad_spatial (x : T.t) ~pad =
  match x.T.dims with
  | [| n; h; w; c |] ->
    let oh = h + (2 * pad) and ow = w + (2 * pad) in
    let out = Array.make (n * oh * ow * c) 0 in
    (* each input row lands whole, [pad] pixels in *)
    for b = 0 to n - 1 do
      for y = 0 to h - 1 do
        Array.blit x.T.data
          (((b * h) + y) * w * c)
          out
          (((((b * oh) + y + pad) * ow) + pad) * c)
          (w * c)
      done
    done;
    T.of_array ~quant:x.T.quant [| n; oh; ow; c |] out
  | _ -> invalid_arg "pad: NHWC input expected"

let upsample (x : T.t) ~factor =
  match x.T.dims with
  | [| n; h; w; c |] ->
    let oh = h * factor and ow = w * factor in
    let out = Array.make (n * oh * ow * c) 0 in
    for b = 0 to n - 1 do
      for y = 0 to oh - 1 do
        for xx = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            out.((((((b * oh) + y) * ow) + xx) * c) + ch) <-
              x.T.data.((((((b * h) + (y / factor)) * w) + (xx / factor)) * c) + ch)
          done
        done
      done
    done;
    T.of_array ~quant:x.T.quant [| n; oh; ow; c |] out
  | _ -> invalid_arg "upsample: NHWC input expected"

(* ------------------------------------------------------------------ *)
(* Graph execution                                                     *)

let weight_of (node : Graph.node) =
  match node.Graph.weight with
  | Some w -> w
  | None -> invalid_arg (Fmt.str "Interp: node %s has no weights" node.Graph.name)

(** Evaluate one node given its input tensors. *)
let eval_node (node : Graph.node) (ins : T.t list) =
  let out_q = Q.default in
  let one () = match ins with [ x ] -> x | _ -> invalid_arg "bad arity" in
  let two () = match ins with [ a; b ] -> (a, b) | _ -> invalid_arg "bad arity" in
  match node.Graph.op with
  | Op.Input _ -> invalid_arg "Interp.eval_node: inputs are bound externally"
  | Op.Constant _ -> weight_of node
  | Op.Conv2d { kh; kw; stride; pad; cout; act } ->
    conv2d (one ()) ~weight:(weight_of node) ~kh ~kw ~stride ~pad ~cout ~act ~out_q
  | Op.Depthwise_conv2d { kh; kw; stride; pad; act } ->
    depthwise_conv2d (one ()) ~weight:(weight_of node) ~kh ~kw ~stride ~pad ~act ~out_q
  | Op.Transposed_conv2d { kh; kw; stride; pad; cout; act } ->
    transposed_conv2d (one ()) ~weight:(weight_of node) ~kh ~kw ~stride ~pad ~cout ~act ~out_q
  | Op.Matmul { cout; act } -> matmul (one ()) ~weight:(weight_of node) ~cout ~act ~out_q
  | Op.Batch_matmul { transpose_b } ->
    let a, b = two () in
    batch_matmul a b ~transpose_b ~out_q
  | Op.Add -> let a, b = two () in binary_elementwise `Add a b ~out_q
  | Op.Sub -> let a, b = two () in binary_elementwise `Sub a b ~out_q
  | Op.Mul -> let a, b = two () in binary_elementwise `Mul a b ~out_q
  | Op.Div -> let a, b = two () in binary_elementwise `Div a b ~out_q
  | (Op.Pow _ | Op.Relu | Op.Relu6 | Op.Hard_swish | Op.Sigmoid | Op.Tanh | Op.Gelu) as op
    -> (
    match unary_spec op with
    | Some (out_q, f) -> unary_lut (one ()) ~out_q f
    | None -> assert false)
  | Op.Softmax -> softmax (one ())
  | Op.Layer_norm -> layer_norm (one ())
  | Op.Max_pool { kernel; stride } -> pool ~mode:`Max (one ()) ~kernel ~stride
  | Op.Avg_pool { kernel; stride } -> pool ~mode:`Avg (one ()) ~kernel ~stride
  | Op.Global_avg_pool -> global_avg_pool (one ())
  | Op.Reshape { shape } -> T.reshape (one ()) (Array.copy shape)
  | Op.Transpose { perm } -> transpose (one ()) ~perm
  | Op.Concat { axis } -> let a, b = two () in concat a b ~axis
  | Op.Pad_spatial { pad } -> pad_spatial (one ()) ~pad
  | Op.Upsample { factor } -> upsample (one ()) ~factor

(** Run a whole graph.  [inputs] binds input-node ids to tensors; returns
    the per-node output tensors. *)
let run (g : Graph.t) ~inputs =
  let vals = Array.make (Graph.size g) None in
  Graph.iter
    (fun node ->
      let result =
        match node.Graph.op with
        | Op.Input { shape } -> (
          match List.assoc_opt node.Graph.id inputs with
          | Some t ->
            if t.T.dims <> shape then invalid_arg "Interp.run: input shape mismatch";
            t
          | None -> invalid_arg (Fmt.str "Interp.run: missing input %d" node.Graph.id))
        | _ ->
          let ins =
            List.map
              (fun i ->
                match vals.(i) with
                | Some t -> t
                | None -> invalid_arg "Interp.run: dangling input")
              node.Graph.inputs
          in
          eval_node node ins
      in
      vals.(node.Graph.id) <- Some result)
    g;
  Array.map
    (function Some t -> t | None -> invalid_arg "Interp.run: unevaluated node")
    vals
