(** Per-operator execution-plan enumeration (the paper's "local analysis
    of possible implementations and associated layouts", Section IV-A).

    Multiply-heavy operators get one plan per candidate SIMD instruction
    (vmpy/1-column, vmpa/2-column, vrmpy/4-column), each costed by
    generating and packing its actual kernel.  Layout-flexible operators
    (elementwise, activations, reductions, depthwise) get one plan per
    candidate layout, costed from representative streams over the padded
    buffer.  Sources and layout-transformation operators anchor the
    row-major interchange format. *)

module Layout = Gcd2_tensor.Layout
module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Autotune = Gcd2_codegen.Autotune
module Eltwise = Gcd2_codegen.Eltwise
module Packer = Gcd2_sched.Packer
module Stats = Gcd2_util.Stats
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module Desc = Gcd2_devices.Desc
open Gcd2_graph

type unroll_mode = [ `None | `Out of int | `Adaptive ]

type options = {
  device : Desc.t;
      (** target machine description: vector width and padding, slot
          masks/latencies (through the kernels it generates), DDR and
          gather bandwidth, dispatch clock *)
  strategy : Packer.strategy;  (** VLIW packing used inside kernels *)
  unroll_mode : unroll_mode;
  tune : Autotune.config option;
      (** when set, multiply kernels search the full codegen-shape space
          ({!Gcd2_codegen.Tile}) under this budget instead of taking the
          [unroll_mode] heuristic's single setting; never worse than
          [`Adaptive] in modeled cycles *)
  eltwise_uv : Streams.uv_choice;
      (** elementwise vector unroll: pinned (historically [`Fixed 2]) or
          costed per stream *)
  layouts : Layout.t list;  (** candidate layouts for layout-flexible ops *)
  simds : Simd.t list;  (** candidate instructions for multiply operators *)
  lut_division : bool;  (** replace division by a reciprocal table lookup *)
  attn_kernels : bool;
      (** transformer ops on the DSP: batched-matmul slices through the
          tiled Matmul generator, Softmax/LayerNorm through the Rowops
          vector kernels (costed from their generated programs), and
          broadcast elementwise staged on the VM.  Off for the baseline
          frameworks — exactly the coverage gap that keeps transformers
          on TFLite/SNPE's CPU path (Table IV). *)
  dispatch_us : float;
      (** per-operator invocation overhead (runtime dispatch, cache warmup,
          quantization-parameter marshalling).  Production delegates that
          RPC into the DSP per node pay much more than a fully compiled
          runtime. *)
  channel_pad : int;
      (** channel granularity the kernel library pads to (hexagon_nn's
          depth-32 activation format wastes work on narrow tensors; GCD2's
          layouts pad only to the SIMD group) *)
  supported : Op.t -> bool;
      (** operators the DSP backend implements; others fall back to the
          CPU with a round trip through shared memory (the mechanism that
          keeps transformers off TFLite/SNPE's DSP path, Table IV) *)
}

(** Full GCD2 configuration (on the paper's hexagon698; retarget with
    [{ gcd2 with device }]). *)
let gcd2 =
  {
    device = Desc.hexagon698;
    strategy = Packer.sda;
    unroll_mode = `Adaptive;
    tune = None;
    eltwise_uv = `Fixed 2;
    layouts = [ Layout.Row_major; Layout.Col1; Layout.Col2; Layout.Col4 ];
    simds = Simd.all;
    lut_division = true;
    attn_kernels = true;
    dispatch_us = 15.0;
    channel_pad = 1;
    supported = (fun _ -> true);
  }

(* ------------------------------------------------------------------ *)

let mat_dims dims =
  match Array.length dims with
  | 0 -> (1, 1)
  | 1 -> (1, dims.(0))
  | r -> (Array.fold_left ( * ) 1 (Array.sub dims 0 (r - 1)), dims.(r - 1))

let vectors_of (device : Desc.t) layout dims =
  let rows, cols = mat_dims dims in
  Stats.ceil_div
    (Layout.padded_bytes ~desc:device layout ~rows ~cols)
    device.Desc.vector_bytes

let padded_bytes_of device layout dims =
  let rows, cols = mat_dims dims in
  Layout.padded_bytes ~desc:device layout ~rows ~cols

let numel = Array.fold_left ( * ) 1

(* ------------------------------------------------------------------ *)
(* Multiply-like plans                                                 *)

let unroll_for options base_spec ~m ~k ~n =
  let simd = base_spec.Matmul.simd in
  match options.tune with
  | Some cfg -> Autotune.tune cfg base_spec
  | None -> (
    match options.unroll_mode with
    | `Adaptive -> Unroll.adaptive simd ~m ~k ~n
    | `None -> Unroll.none simd ~k ~n
    | `Out f -> Unroll.fixed_out simd ~k ~n ~factor:f)

(** One plan per candidate SIMD instruction for a (possibly batched)
    matmul of [m] x [k] x [n], with optional fused activation, extra
    host staging cycles and extra memory traffic. *)
let matmul_plans options ~m ~k ~n ~act ~batch ~staging ~extra_bytes ~extra_macs =
  let device = options.device in
  List.map
    (fun simd ->
      let group = Layout.column_group (Simd.layout simd) in
      let base =
        {
          Matmul.device;
          simd;
          m;
          k;
          n;
          mult = 1 lsl 30;
          shift = 30;
          act_table = (if act then Some 1 else None);
          strategy = options.strategy;
          un = group;
          ug = 1;
          abuf = 2;
          wbuf = 2;
          addressing = Matmul.Bump;
        }
      in
      let u = unroll_for options base ~m ~k ~n in
      let spec =
        { base with Matmul.un = u.Unroll.un; ug = u.Unroll.ug; abuf = u.Unroll.abuf; wbuf = u.Unroll.wbuf }
      in
      let kernel = float_of_int (Matmul.cycles spec) in
      let bytes =
        float_of_int (batch * Simd.padded_data_bytes ~desc:device simd ~m ~k ~n)
        +. extra_bytes
      in
      {
        Plan.layout = Simd.layout simd;
        simd = Some simd;
        unroll = Some u;
        compute_cycles = float_of_int batch *. kernel;
        staging_cycles = staging;
        mem_bytes = bytes;
        macs = (batch * m * k * n) + extra_macs;
      })
    options.simds
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Layout-flexible plans                                               *)

let flexible_plans options dims_in dims_out ~cycles_of ~bytes_mult ~macs =
  let device = options.device in
  List.map
    (fun layout ->
      let vin = vectors_of device layout dims_in
      and vout = vectors_of device layout dims_out in
      {
        Plan.layout;
        simd = None;
        unroll = None;
        compute_cycles = cycles_of ~vin ~vout;
        staging_cycles = 0.0;
        mem_bytes =
          bytes_mult
          *. float_of_int
               (padded_bytes_of device layout dims_in
               + padded_bytes_of device layout dims_out);
        macs;
      })
    options.layouts
  |> Array.of_list

let source_plan =
  [|
    {
      Plan.layout = Layout.Row_major;
      simd = None;
      unroll = None;
      compute_cycles = 0.0;
      staging_cycles = 0.0;
      mem_bytes = 0.0;
      macs = 0;
    };
  |]

(* ------------------------------------------------------------------ *)
(* CPU fallback for unsupported operators                              *)

(* Dequantize + evaluate on the CPU + requantize, with the tensor shipped
   both ways through shared memory: a fixed round-trip plus byte-rate
   terms. *)
let fallback_plan options dims_in dims_out =
  let bytes = float_of_int (numel dims_in + numel dims_out) in
  let transfer = bytes /. options.device.Desc.ddr_bytes_per_cycle in
  let cpu_bytes_per_cycle = 0.4 in
  let cpu = bytes /. cpu_bytes_per_cycle in
  let round_trip = Desc.cycles_of_us options.device 120.0 in
  [|
    {
      Plan.layout = Layout.Row_major;
      simd = None;
      unroll = None;
      compute_cycles = 0.0;
      staging_cycles = transfer +. cpu +. round_trip;
      mem_bytes = 2.0 *. bytes;
      macs = 0;
    };
  |]

(* ------------------------------------------------------------------ *)

(** Enumerate the execution plans of one node. *)
let plans options (g : Graph.t) (node : Graph.node) =
  let strategy = options.strategy and device = options.device in
  let pad_channels c = Stats.round_up c options.channel_pad in
  let with_dispatch plans =
    match node.Graph.op with
    | Op.Input _ | Op.Constant _ -> plans
    | _ ->
      let d = Desc.cycles_of_us device options.dispatch_us in
      Array.map (fun p -> { p with Plan.staging_cycles = p.Plan.staging_cycles +. d }) plans
  in
  let fallback_or plans =
    match node.Graph.op with
    | Op.Input _ | Op.Constant _ -> plans ()
    | op when options.supported op -> plans ()
    | _ ->
      let din =
        match node.Graph.inputs with
        | i :: _ -> (Graph.node g i).Graph.out_shape
        | [] -> [||]
      in
      fallback_plan options din node.Graph.out_shape
  in
  with_dispatch @@ fallback_or @@ fun () ->
  let in_dims () =
    match node.Graph.inputs with
    | i :: _ -> (Graph.node g i).Graph.out_shape
    | [] -> [||]
  in
  let out_dims = node.Graph.out_shape in
  match node.Graph.op with
  | Op.Input _ | Op.Constant _ -> source_plan
  | Op.Conv2d { kh; kw; stride; pad = _; cout; act } ->
    let din = in_dims () in
    let cin = pad_channels din.(3) in
    let m = out_dims.(0) * out_dims.(1) * out_dims.(2) in
    let k = kh * kw * cin in
    let n = pad_channels cout in
    let windowed = kh > 1 || kw > 1 || stride > 1 in
    let staging =
      if windowed then float_of_int (m * k) /. device.Desc.gather_bytes_per_cycle else 0.0
    in
    matmul_plans options ~m ~k ~n ~act:(act <> None) ~batch:1 ~staging ~extra_bytes:0.0
      ~extra_macs:0
  | Op.Depthwise_conv2d { kh; kw; act = _; _ } ->
    let taps = kh * kw in
    let macs = Flops.node_macs g node in
    let c = out_dims.(Array.length out_dims - 1) in
    let ratio = float_of_int (pad_channels c) /. float_of_int c in
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        Streams.dwconv_cycles ~device ~strategy
          ~vectors:(int_of_float (Float.ceil (float_of_int vout *. ratio)))
          ~taps)
      ~bytes_mult:ratio ~macs
  | Op.Transposed_conv2d { kh; kw; cout; act; _ } ->
    let din = in_dims () in
    let m = din.(0) * din.(1) * din.(2) in
    let cin = din.(3) in
    let k = cin and n = cout * kh * kw in
    (* scatter-add of the kh*kw shifted partial outputs happens host-side *)
    let staging =
      float_of_int (numel out_dims * kh * kw) /. device.Desc.gather_bytes_per_cycle
    in
    matmul_plans options ~m ~k ~n ~act:(act <> None) ~batch:1 ~staging ~extra_bytes:0.0
      ~extra_macs:0
  | Op.Matmul { cout; act } ->
    let din = in_dims () in
    let m, k = mat_dims din in
    matmul_plans options ~m ~k:(pad_channels k) ~n:(pad_channels cout) ~act:(act <> None)
      ~batch:1 ~staging:0.0 ~extra_bytes:0.0 ~extra_macs:0
  | Op.Batch_matmul _ ->
    let din = in_dims () in
    let r = Array.length din in
    let batch = numel (Array.sub din 0 (r - 2)) in
    let m = din.(r - 2) and k = din.(r - 1) in
    let n = out_dims.(r - 1) in
    (* the dynamic right operand must be prepacked at run time *)
    let staging = float_of_int (batch * k * n) /. device.Desc.gather_bytes_per_cycle in
    matmul_plans options ~m ~k ~n ~act:false ~batch ~staging ~extra_bytes:0.0 ~extra_macs:0
  | Op.Add | Op.Sub ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        Streams.binary_cycles ~uv:options.eltwise_uv ~device ~strategy ~op:Eltwise.Badd ~vectors:vout)
      ~bytes_mult:1.5 ~macs:0
  | Op.Mul ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        Streams.binary_cycles ~uv:options.eltwise_uv ~device ~strategy ~op:Eltwise.Bmul ~vectors:vout)
      ~bytes_mult:1.5 ~macs:(numel out_dims)
  | Op.Div ->
    if options.lut_division then
      (* reciprocal lookup + multiply, the paper's "other optimization" *)
      flexible_plans options (in_dims ()) out_dims
        ~cycles_of:(fun ~vin:_ ~vout ->
          Streams.unary_cycles ~uv:options.eltwise_uv ~device ~strategy ~vectors:vout
          +. Streams.binary_cycles ~uv:options.eltwise_uv ~device ~strategy ~op:Eltwise.Bmul ~vectors:vout)
        ~bytes_mult:1.5 ~macs:(numel out_dims)
    else
      (* element-by-element scalar division *)
      flexible_plans options (in_dims ()) out_dims
        ~cycles_of:(fun ~vin:_ ~vout:_ -> 12.0 *. float_of_int (numel out_dims))
        ~bytes_mult:1.5 ~macs:0
  | Op.Pow _ | Op.Relu | Op.Relu6 | Op.Hard_swish | Op.Sigmoid | Op.Tanh | Op.Gelu ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout -> Streams.unary_cycles ~uv:options.eltwise_uv ~device ~strategy ~vectors:vout)
      ~bytes_mult:1.0 ~macs:0
  | Op.Softmax when options.attn_kernels ->
    (* costed from the generated-and-packed Rowops programs (both
       passes x row groups), like the multiply kernels; bytes_mult
       covers the transposed staging + exponential + output scratch *)
    let rows, cols = mat_dims out_dims in
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout:_ ->
        Gcd2_codegen.Rowops.softmax_cycles ~device ~strategy ~rows ~cols)
      ~bytes_mult:3.0 ~macs:0
  | Op.Softmax ->
    let rows, _ = mat_dims out_dims in
    let per_row = if options.lut_division then 3.0 else 16.0 in
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        (4.0 *. Streams.unary_cycles ~uv:options.eltwise_uv ~device ~strategy ~vectors:vout)
        +. (per_row *. float_of_int rows))
      ~bytes_mult:2.0 ~macs:0
  | Op.Layer_norm when options.attn_kernels ->
    let rows, cols = mat_dims out_dims in
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout:_ ->
        Gcd2_codegen.Rowops.layer_norm_cycles ~device ~strategy ~rows ~cols)
      ~bytes_mult:3.0 ~macs:0
  | Op.Layer_norm ->
    let rows, _ = mat_dims out_dims in
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        (4.0 *. Streams.unary_cycles ~uv:options.eltwise_uv ~device ~strategy ~vectors:vout)
        +. (8.0 *. float_of_int rows))
      ~bytes_mult:2.0 ~macs:0
  | Op.Max_pool { kernel; _ } | Op.Avg_pool { kernel; _ } ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin:_ ~vout ->
        Streams.pool_cycles ~device ~strategy ~vectors:vout ~window:(kernel * kernel))
      ~bytes_mult:1.0 ~macs:0
  | Op.Global_avg_pool ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin ~vout:_ -> Streams.unary_cycles ~uv:options.eltwise_uv ~device ~strategy ~vectors:vin)
      ~bytes_mult:1.0 ~macs:0
  | Op.Reshape _ ->
    (* pure view in the interchange layout; physical repack in blocked
       layouts because the panel structure depends on the dimensions *)
    List.map
      (fun layout ->
        let c =
          if layout = Layout.Row_major then 0.0
          else
            Streams.copy_cycles
              ~vectors:(vectors_of device layout (in_dims ()) + vectors_of device layout out_dims)
        in
        {
          Plan.layout;
          simd = None;
          unroll = None;
          compute_cycles = c;
          staging_cycles = 0.0;
          mem_bytes = (if c = 0.0 then 0.0 else 2.0 *. float_of_int (numel out_dims));
          macs = 0;
        })
      options.layouts
    |> Array.of_list
  | Op.Transpose _ | Op.Concat _ | Op.Pad_spatial _ | Op.Upsample _ ->
    flexible_plans options (in_dims ()) out_dims
      ~cycles_of:(fun ~vin ~vout -> Streams.copy_cycles ~vectors:(vin + vout))
      ~bytes_mult:1.0 ~macs:0

(* ------------------------------------------------------------------ *)

(** The generator spec behind a chosen matmul-family plan — the same
    dimensions and knobs {!matmul_plans} costed the plan with, so
    [Matmul.generate] on it reproduces the packed kernel whose cycle
    count the plan carries.  [None] for plans that do not run on the
    SIMD multiply unit (flexible/host/fallback plans). *)
let plan_spec options (g : Graph.t) (node : Graph.node) (plan : Plan.t) =
  match (plan.Plan.simd, plan.Plan.unroll) with
  | Some simd, Some u ->
    let pad_channels c = Stats.round_up c options.channel_pad in
    let in_dims =
      match node.Graph.inputs with
      | i :: _ -> (Graph.node g i).Graph.out_shape
      | [] -> [||]
    in
    let out_dims = node.Graph.out_shape in
    let mkn =
      match node.Graph.op with
      | Op.Conv2d { kh; kw; cout; _ } ->
        let cin = pad_channels in_dims.(3) in
        Some
          (out_dims.(0) * out_dims.(1) * out_dims.(2), kh * kw * cin, pad_channels cout)
      | Op.Transposed_conv2d { kh; kw; cout; _ } ->
        Some (in_dims.(0) * in_dims.(1) * in_dims.(2), in_dims.(3), cout * kh * kw)
      | Op.Matmul { cout; _ } ->
        let m, k = mat_dims in_dims in
        Some (m, pad_channels k, pad_channels cout)
      | Op.Batch_matmul _ ->
        let r = Array.length in_dims in
        Some (in_dims.(r - 2), in_dims.(r - 1), out_dims.(Array.length out_dims - 1))
      | _ -> None
    in
    Option.map
      (fun (m, k, n) ->
        let act =
          match node.Graph.op with
          | Op.Conv2d { act; _ } | Op.Transposed_conv2d { act; _ } | Op.Matmul { act; _ }
            -> act <> None
          | _ -> false
        in
        {
          Matmul.device = options.device;
          simd;
          m;
          k;
          n;
          mult = 1 lsl 30;
          shift = 30;
          act_table = (if act then Some 1 else None);
          strategy = options.strategy;
          un = u.Unroll.un;
          ug = u.Unroll.ug;
          abuf = u.Unroll.abuf;
          wbuf = u.Unroll.wbuf;
          addressing = Matmul.Bump;
        })
      mkn
  | _ -> None
