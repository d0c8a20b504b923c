(* A traced replay of [Gcd2.Runtime.run_with_stats]: the same walk over
   the compiled graph under the chosen plans, calling the same public
   functions in the same order, with a span around each call.  The
   benchmark checks every node's output against the untraced
   [Runtime.run], so the replay cannot drift from what it measures.

   Spans: one [runtime.node] per node, tagged "id:kind"; inside it
   [runtime.host] Interp.eval_node of a host node; [tensor.stage]
   im2col, operand packing and machine writes; [codegen.generate]
   Matmul.generate / Eltwise.binary / Eltwise.unary (the packer's
   ambient [pack] span nests inside); [vm.run] Machine.run;
   [tensor.unstage] machine reads and unpacking; [codegen.rowops] the
   Softmax / LayerNorm kernels, generated and run inside one call. *)

open Common
module Q = Gcd2_tensor.Quant
module Pack = Gcd2_tensor.Pack
module Sat = Gcd2_util.Saturate
module Interp = Gcd2_kernels.Interp
module Lut = Gcd2_kernels.Lut
module Matmul = Gcd2_codegen.Matmul
module Weights = Gcd2_codegen.Weights
module Eltwise = Gcd2_codegen.Eltwise
module Rowops = Gcd2_codegen.Rowops
module Unroll = Gcd2_codegen.Unroll
module Machine = Gcd2_vm.Machine
module Plan = Gcd2_cost.Plan
module Opcost = Gcd2_cost.Opcost
module Streams = Gcd2_cost.Streams
module Compiler = Gcd2.Compiler

(* [Runtime.stats]' counters, plus the cycles executed inside [vm.run]
   spans (the row-op kernels run theirs inside [codegen.rowops]). *)
type stats = {
  mutable vm_nodes : int;
  mutable host_nodes : int;
  mutable vm_cycles : int;
  mutable run_cycles : int;
}

(* [Runtime]'s per-kind key for an operator. *)
let kind_of (op : Op.t) =
  match op with
  | Op.Input _ -> "input"
  | Op.Constant _ -> "const"
  | Op.Conv2d _ -> "conv2d"
  | Op.Depthwise_conv2d _ -> "dwconv"
  | Op.Transposed_conv2d _ -> "tconv"
  | Op.Matmul _ -> "matmul"
  | Op.Batch_matmul _ -> "bmm"
  | Op.Add -> "add"
  | Op.Mul -> "mul"
  | Op.Sub -> "sub"
  | Op.Div -> "div"
  | Op.Pow _ -> "pow"
  | Op.Relu -> "relu"
  | Op.Relu6 -> "relu6"
  | Op.Hard_swish -> "hswish"
  | Op.Sigmoid -> "sigmoid"
  | Op.Tanh -> "tanh"
  | Op.Gelu -> "gelu"
  | Op.Softmax -> "softmax"
  | Op.Layer_norm -> "layer_norm"
  | Op.Max_pool _ -> "maxpool"
  | Op.Avg_pool _ -> "avgpool"
  | Op.Global_avg_pool -> "gap"
  | Op.Reshape _ -> "reshape"
  | Op.Transpose _ -> "transpose"
  | Op.Concat _ -> "concat"
  | Op.Pad_spatial _ -> "pad"
  | Op.Upsample _ -> "upsample"

let span sp ?tag name f = Spans.with_span ?tag (Some sp) name f
let align x = Gcd2_util.Stats.round_up x 128

let executed st m =
  let cycles = (Machine.counters m).Machine.cycles in
  st.vm_cycles <- st.vm_cycles + cycles;
  st.run_cycles <- st.run_cycles + cycles

(* Testbench.run, one public call at a time. *)
let matmul sp st ?(tables = []) (spec : Matmul.spec) ~a ~w =
  let simd = spec.Matmul.simd and m = spec.Matmul.m and k = spec.Matmul.k in
  let n = spec.Matmul.n in
  let packed_a, packed_w =
    span sp "tensor.stage" (fun () ->
        (Weights.pack_activations simd ~m ~k a, Weights.prepack simd ~k ~n w))
  in
  let out_bytes = Weights.output_bytes simd ~m ~n in
  let a_base = 0 in
  let w_base = align (a_base + Array.length packed_a) in
  let c_base = align (w_base + Array.length packed_w) in
  let q_base = align (c_base + out_bytes) in
  let machine =
    span sp "tensor.stage" (fun () ->
        let machine = Machine.scratch ~mem_bytes:(max (q_base + 256) 4096) () in
        Machine.write_i8_array machine ~addr:a_base packed_a;
        Machine.write_i8_array machine ~addr:w_base packed_w;
        machine)
  in
  let prog =
    span sp "codegen.generate" (fun () ->
        Matmul.generate ~tables ~q_base spec { Matmul.a_base; w_base; c_base })
  in
  span sp "vm.run" (fun () -> Machine.run machine prog);
  let data =
    span sp "tensor.unstage" (fun () ->
        let raw = Machine.read_i8_array machine ~addr:c_base ~len:out_bytes in
        Weights.unpack_output simd ~m ~n raw)
  in
  executed st machine;
  data

let matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table =
  let u = Option.get plan.Plan.unroll in
  {
    Matmul.device = Gcd2_devices.Desc.hexagon698;
    simd = Option.get plan.Plan.simd;
    m;
    k;
    n;
    mult;
    shift;
    act_table;
    strategy = options.Opcost.strategy;
    un = u.Unroll.un;
    ug = u.Unroll.ug;
    abuf = u.Unroll.abuf;
    wbuf = u.Unroll.wbuf;
    addressing = Matmul.Bump;
  }

let run_matmul sp st ~options ~plan ~act (x : T.t) (w : T.t) ~m ~k ~n ~out_dims =
  let out_q = Q.default in
  let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:w.T.quant ~out:out_q in
  let tables, act_table =
    match act with
    | Some a -> ([ (1, Lut.of_act ~in_q:out_q ~out_q a) ], Some 1)
    | None -> ([], None)
  in
  let spec = matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table in
  let data = matmul sp st ~tables spec ~a:x.T.data ~w:w.T.data in
  st.vm_nodes <- st.vm_nodes + 1;
  T.of_array ~quant:out_q out_dims data

let run_batch_matmul sp st ~options ~plan ~transpose_b (a : T.t) (b : T.t) =
  let out_q = Q.default in
  let ra = Array.length a.T.dims in
  let batch = Array.fold_left ( * ) 1 (Array.sub a.T.dims 0 (ra - 2)) in
  let m = a.T.dims.(ra - 2) and k = a.T.dims.(ra - 1) in
  let n = if transpose_b then b.T.dims.(ra - 2) else b.T.dims.(ra - 1) in
  let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
  let spec = matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table:None in
  let out = Array.make (batch * m * n) 0 in
  for bt = 0 to batch - 1 do
    let a_slice, b_slice =
      span sp "tensor.stage" (fun () ->
          ( Array.sub a.T.data (bt * m * k) (m * k),
            if transpose_b then
              Array.init (k * n) (fun i ->
                  let l = i / n and j = i mod n in
                  b.T.data.((bt * k * n) + (j * k) + l))
            else Array.sub b.T.data (bt * k * n) (k * n) ))
    in
    let data = matmul sp st spec ~a:a_slice ~w:b_slice in
    Array.blit data 0 out (bt * m * n) (m * n)
  done;
  st.vm_nodes <- st.vm_nodes + 1;
  let dims = Array.copy a.T.dims in
  dims.(ra - 1) <- n;
  T.of_array ~quant:out_q dims out

let run_rowop sp st ~options op (x : T.t) =
  let _, cols = T.matrix_dims x in
  let rows = T.numel x / cols in
  let strategy = options.Opcost.strategy and scale = x.T.quant.Q.scale in
  let out_q, (data, cycles) =
    span sp "codegen.rowops" (fun () ->
        match op with
        | `Softmax ->
          (Q.make (1.0 /. 128.0), Rowops.run_softmax ~strategy ~rows ~cols ~scale x.T.data)
        | `Layer_norm ->
          let out_q = Q.make (1.0 /. 16.0) in
          let out_scale = out_q.Q.scale in
          (out_q, Rowops.run_layer_norm ~strategy ~rows ~cols ~scale ~out_scale x.T.data))
  in
  st.vm_nodes <- st.vm_nodes + 1;
  st.vm_cycles <- st.vm_cycles + cycles;
  T.of_array ~quant:out_q (Array.copy x.T.dims) data

let rescale_table ?(negate = false) q_mult =
  Array.init 256 (fun byte ->
      let q = Sat.sign_extend ~bits:8 byte in
      let v = Sat.apply_multiplier q q_mult in
      Sat.sat8 (if negate then -v else v) land 0xff)

let is_identity_scale ~from ~into = from.Q.scale = into.Q.scale && from.Q.zero = into.Q.zero

let stage_eltwise sp st ~tables ~spec op layout ~rows ~cols a_data b_data =
  let pack data = (Pack.pack layout ~rows ~cols data).Pack.bytes in
  let machine, bytes =
    span sp "tensor.stage" (fun () ->
        let packed_a = pack a_data in
        let bytes = Array.length packed_a in
        let machine = Machine.scratch ~mem_bytes:(max 4096 ((3 * align bytes) + 256)) () in
        Machine.write_i8_array machine ~addr:0 packed_a;
        Option.iter
          (fun b -> Machine.write_i8_array machine ~addr:(align bytes) (pack b))
          b_data;
        (machine, bytes))
  in
  let b_base = align bytes and out_base = 2 * align bytes in
  let prog =
    span sp "codegen.generate" (fun () ->
        match op with
        | `Binary bop ->
          Eltwise.binary ~tables bop spec { Eltwise.a_base = 0; b_base; out_base }
        | `Unary table -> Eltwise.unary ~tables ~table spec ~in_base:0 ~out_base)
  in
  span sp "vm.run" (fun () -> Machine.run machine prog);
  let data =
    span sp "tensor.unstage" (fun () ->
        let bytes = Machine.read_i8_array machine ~addr:out_base ~len:bytes in
        Pack.unpack { Pack.layout; rows; cols; bytes })
  in
  st.vm_nodes <- st.vm_nodes + 1;
  executed st machine;
  data

let vectors layout ~rows ~cols =
  Gcd2_util.Stats.ceil_div (Gcd2_tensor.Layout.padded_bytes layout ~rows ~cols) 128

let run_binary sp st ~options ~plan op (a : T.t) (b : T.t) =
  let out_q = Q.default in
  let layout = plan.Plan.layout in
  let rows, cols = T.matrix_dims a in
  let vectors = vectors layout ~rows ~cols in
  let base_spec = Eltwise.default_spec ~strategy:options.Opcost.strategy ~vectors () in
  let tables = ref [] in
  let rescale id ?negate (t : T.t) =
    let table = rescale_table ?negate (Q.rescale_multiplier ~from:t.T.quant ~into:out_q) in
    tables := (id, table) :: !tables;
    Some id
  in
  let spec, bop =
    match op with
    | `Add | `Sub ->
      let neg = op = `Sub in
      let ra = if is_identity_scale ~from:a.T.quant ~into:out_q then None else rescale 2 a in
      (* subtraction always rescales B through the negating table *)
      let rb =
        if (not neg) && is_identity_scale ~from:b.T.quant ~into:out_q then None
        else rescale 3 ~negate:neg b
      in
      ({ base_spec with Eltwise.rescale_a = ra; rescale_b = rb }, Eltwise.Badd)
    | `Mul ->
      let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
      ({ base_spec with Eltwise.mult; shift }, Eltwise.Bmul)
  in
  let uv =
    Streams.binary_uv ~uv:options.Opcost.eltwise_uv ~device:spec.Eltwise.device
      ~strategy:spec.Eltwise.strategy ~op:bop ~vectors ()
  in
  let data =
    stage_eltwise sp st ~tables:!tables ~spec:{ spec with Eltwise.uv } (`Binary bop) layout
      ~rows ~cols a.T.data (Some b.T.data)
  in
  T.of_array ~quant:out_q (Array.copy a.T.dims) data

let run_unary sp st ~options ~plan node_op (x : T.t) =
  match Interp.unary_spec node_op with
  | None -> None
  | Some (out_q, f) ->
    let layout = plan.Plan.layout in
    let rows, cols = T.matrix_dims x in
    let vectors = vectors layout ~rows ~cols in
    let spec = Eltwise.default_spec ~strategy:options.Opcost.strategy ~vectors () in
    let uv =
      Streams.unary_uv ~uv:options.Opcost.eltwise_uv ~device:spec.Eltwise.device
        ~strategy:spec.Eltwise.strategy ~vectors ()
    in
    let tables = [ (1, Lut.of_fn ~in_q:x.T.quant ~out_q f) ] in
    let data =
      stage_eltwise sp st ~tables ~spec:{ spec with Eltwise.uv } (`Unary 1) layout ~rows ~cols
        x.T.data None
    in
    Some (T.of_array ~quant:out_q (Array.copy x.T.dims) data)

(* Replay one inference into [sp]; returns every node's output and the
   counters [Runtime] keeps. *)
let run sp (c : Compiler.compiled) ~inputs =
  let g = c.Compiler.graph in
  let options = c.Compiler.config.Compiler.opcost in
  let attn = options.Opcost.attn_kernels in
  let st = { vm_nodes = 0; host_nodes = 0; vm_cycles = 0; run_cycles = 0 } in
  let vals = Array.make (Graph.size g) None in
  let value i =
    match vals.(i) with Some t -> t | None -> invalid_arg "Replay: dangling input"
  in
  Graph.iter
    (fun node ->
      let id = node.Graph.id in
      let plan = c.Compiler.cost.Gcd2_cost.Graphcost.plans.(id).(c.Compiler.assignment.(id)) in
      let input i = value (List.nth node.Graph.inputs i) in
      let weight () = Option.get node.Graph.weight in
      let out_dims = Array.copy node.Graph.out_shape in
      let host () =
        st.host_nodes <- st.host_nodes + 1;
        span sp "runtime.host" (fun () ->
            Interp.eval_node node (List.map value node.Graph.inputs))
      in
      let tag = Printf.sprintf "%d:%s" id (kind_of node.Graph.op) in
      let result =
        span sp ~tag "runtime.node" (fun () ->
            match node.Graph.op with
            | Op.Input { shape } -> (
              match List.assoc_opt id inputs with
              | Some t when t.T.dims = shape -> t
              | Some _ -> invalid_arg "Replay: input shape mismatch"
              | None -> invalid_arg (Printf.sprintf "Replay: missing input %d" id))
            | Op.Matmul { cout; act } when plan.Plan.simd <> None ->
              let x = input 0 in
              let m, k = T.matrix_dims x in
              run_matmul sp st ~options ~plan ~act x (weight ()) ~m ~k ~n:cout ~out_dims
            | Op.Conv2d { kh; kw; stride; pad; cout; act } when plan.Plan.simd <> None ->
              let x = input 0 in
              let staged, rows, cols, w =
                span sp "tensor.stage" (fun () ->
                    let patches, rows, cols, _, _ = Interp.im2col x ~kh ~kw ~stride ~pad in
                    ( T.of_array ~quant:x.T.quant [| rows; cols |] patches,
                      rows,
                      cols,
                      T.reshape (weight ()) [| cols; cout |] ))
              in
              run_matmul sp st ~options ~plan ~act staged w ~m:rows ~k:cols ~n:cout ~out_dims
            | Op.Batch_matmul { transpose_b }
              when attn && plan.Plan.simd <> None && plan.Plan.unroll <> None ->
              run_batch_matmul sp st ~options ~plan ~transpose_b (input 0) (input 1)
            | Op.Softmax when attn -> run_rowop sp st ~options `Softmax (input 0)
            | Op.Layer_norm when attn -> run_rowop sp st ~options `Layer_norm (input 0)
            | (Op.Add | Op.Sub | Op.Mul) as op ->
              let a = input 0 and b = input 1 in
              let bop = match op with Op.Add -> `Add | Op.Sub -> `Sub | _ -> `Mul in
              let na = T.numel a and nb = T.numel b in
              if a.T.dims = b.T.dims then run_binary sp st ~options ~plan bop a b
              else if attn && nb < na && na mod nb = 0 then
                let tiled =
                  span sp "tensor.stage" (fun () ->
                      T.of_array ~quant:b.T.quant (Array.copy a.T.dims)
                        (Array.init na (fun i -> b.T.data.(i mod nb))))
                in
                run_binary sp st ~options ~plan bop a tiled
              else host ()
            | (Op.Pow _ | Op.Relu | Op.Relu6 | Op.Hard_swish | Op.Sigmoid | Op.Tanh | Op.Gelu)
              as op -> (
              match run_unary sp st ~options ~plan op (input 0) with
              | Some t -> t
              | None -> host ())
            | _ -> host ())
      in
      vals.(id) <- Some result)
    g;
  (Array.map (function Some t -> t | None -> invalid_arg "Replay: unevaluated node") vals, st)
