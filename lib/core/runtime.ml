(** Execution of a compiled model.

    Operators whose kernels the compiler fully lowers (matmul,
    convolution-as-GEMM, elementwise, activations) run as generated VLIW
    programs on the simulated DSP, under the exact plan (instruction,
    layout, unroll, packing) the global optimizer chose; the remaining
    data-staging operators (im2col gathers, pooling windows, reductions,
    reshapes) execute host-side with the reference semantics, as DESIGN.md
    documents.  Either way every operator's results are bit-identical to
    {!Gcd2_kernels.Interp} — the test suite runs whole models both ways
    and compares — with one known exception: a batched matmul whose
    16-bit accumulator lane receives two (-128)*(-128) products
    saturates where the reference does not, and is then one step off.

    Operands are staged straight into simulator memory and results read
    straight out of it; batched-matmul slices and broadcast operands
    are read in place from their tensors, so an inference allocates
    little beyond its node outputs. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Pack = Gcd2_tensor.Pack
module Sat = Gcd2_util.Saturate
module Interp = Gcd2_kernels.Interp
module Lut = Gcd2_kernels.Lut
module Matmul = Gcd2_codegen.Matmul
module Testbench = Gcd2_codegen.Testbench
module Eltwise = Gcd2_codegen.Eltwise
module Machine = Gcd2_vm.Machine
module Plan = Gcd2_cost.Plan
open Gcd2_graph

(** Performance counters accumulated over the DSP-executed kernels. *)
type kind_stat = { mutable k_vm : int; mutable k_host : int; mutable k_cycles : int }

type stats = {
  mutable vm_nodes : int;
  mutable host_nodes : int;
  mutable vm_cycles : int;
  kinds : (string, kind_stat) Hashtbl.t;
}

(* Coarse operator kind for the per-kind split: the operator family
   without its shape parameters, so all conv2d nodes share one row. *)
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

let kind_stats stats kind =
  match Hashtbl.find_opt stats.kinds kind with
  | Some k -> k
  | None ->
    let k = { k_vm = 0; k_host = 0; k_cycles = 0 } in
    Hashtbl.add stats.kinds kind k;
    k

let rescale_table ?(negate = false) q_mult =
  Array.init 256 (fun byte ->
      let q = Sat.sign_extend ~bits:8 byte in
      let v = Sat.apply_multiplier q q_mult in
      Sat.sat8 (if negate then -v else v) land 0xff)

let is_identity_scale ~from ~into = from.Q.scale = into.Q.scale && from.Q.zero = into.Q.zero

(* ---------------- matmul-family on the VM ---------------- *)

(* The simulated DSP executes the hexagon698 ISA (128-byte vectors)
   whatever device the compile was costed for; wider targets are modeled
   analytically, not run. *)
let device = Gcd2_devices.Desc.hexagon698

(* The kernel spec of a matmul-family node under its chosen plan. *)
let matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table =
  let u = Option.get plan.Plan.unroll in
  {
    Matmul.device;
    simd = Option.get plan.Plan.simd;
    m;
    k;
    n;
    mult;
    shift;
    act_table;
    strategy = options.Gcd2_cost.Opcost.strategy;
    un = u.Gcd2_codegen.Unroll.un;
    ug = u.Gcd2_codegen.Unroll.ug;
    abuf = u.Gcd2_codegen.Unroll.abuf;
    wbuf = u.Gcd2_codegen.Unroll.wbuf;
    addressing = Matmul.Bump;
  }

let run_matmul ~stats ~options ~plan ~act (x : T.t) (w : T.t) ~m ~k ~n ~out_dims =
  let out_q = Q.default in
  let mult, shift = Q.requant_multiplier ~in_a:x.T.quant ~in_b:w.T.quant ~out:out_q in
  let tables, act_table =
    match act with
    | Some a -> ([ (1, Lut.of_act ~in_q:out_q ~out_q a) ], Some 1)
    | None -> ([], None)
  in
  let spec = matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table in
  let res = Testbench.run ~tables spec ~a:x.T.data ~w:w.T.data in
  stats.vm_nodes <- stats.vm_nodes + 1;
  stats.vm_cycles <- stats.vm_cycles + res.Testbench.cycles;
  T.of_array ~quant:out_q out_dims res.Testbench.data

(* Batched matmul: the two operands are both dynamic (attention scores
   and values), so every batch slice runs the one tiled matmul kernel
   generated for the node, with the slice's B staged as the weight
   matrix — read transposed when the graph asks for B^T, exactly as the
   reference indexes it.  Slices are staged straight from the batched
   tensors and unstaged straight into the node's output. *)
let run_batch_matmul ~stats ~options ~plan ~transpose_b (a : T.t) (b : T.t) =
  let out_q = Q.default in
  let ra = Array.length a.T.dims in
  let batch = Array.fold_left ( * ) 1 (Array.sub a.T.dims 0 (ra - 2)) in
  let m = a.T.dims.(ra - 2) and k = a.T.dims.(ra - 1) in
  let n = if transpose_b then b.T.dims.(ra - 2) else b.T.dims.(ra - 1) in
  let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
  let kernel =
    Testbench.kernel (matmul_spec ~options ~plan ~m ~k ~n ~mult ~shift ~act_table:None)
  in
  let out = Array.make (batch * m * n) 0 in
  for bt = 0 to batch - 1 do
    let c =
      Testbench.exec_into kernel ~a:a.T.data ~a_off:(bt * m * k) ~w:b.T.data
        ~w_off:(bt * k * n) ~transposed:transpose_b ~out ~out_off:(bt * m * n)
    in
    stats.vm_cycles <- stats.vm_cycles + c.Machine.cycles
  done;
  stats.vm_nodes <- stats.vm_nodes + 1;
  let dims = Array.copy a.T.dims in
  dims.(ra - 1) <- n;
  T.of_array ~quant:out_q dims out

(* ---------------- row operators on the VM ---------------- *)

let run_softmax ~stats ~options (x : T.t) =
  let out_q = Q.make (1.0 /. 128.0) in
  let _, cols = T.matrix_dims x in
  let rows = T.numel x / cols in
  let data, cycles =
    Gcd2_codegen.Rowops.run_softmax ~strategy:options.Gcd2_cost.Opcost.strategy ~rows
      ~cols ~scale:x.T.quant.Q.scale x.T.data
  in
  stats.vm_nodes <- stats.vm_nodes + 1;
  stats.vm_cycles <- stats.vm_cycles + cycles;
  T.of_array ~quant:out_q (Array.copy x.T.dims) data

let run_layer_norm ~stats ~options (x : T.t) =
  let out_q = Q.make (1.0 /. 16.0) in
  let _, cols = T.matrix_dims x in
  let rows = T.numel x / cols in
  let data, cycles =
    Gcd2_codegen.Rowops.run_layer_norm ~strategy:options.Gcd2_cost.Opcost.strategy ~rows
      ~cols ~scale:x.T.quant.Q.scale ~out_scale:out_q.Q.scale x.T.data
  in
  stats.vm_nodes <- stats.vm_nodes + 1;
  stats.vm_cycles <- stats.vm_cycles + cycles;
  T.of_array ~quant:out_q (Array.copy x.T.dims) data

(* ---------------- elementwise on the VM ---------------- *)

(* [b_data] is staged by the reference's broadcast rule (element [i]
   reads [b.(i mod nb)]), which for an operand of A's size is the operand
   itself. *)
let stage_eltwise ~stats ~tables ~spec op layout ~rows ~cols a_data b_data =
  let bytes = Gcd2_tensor.Layout.padded_bytes ~desc:device layout ~rows ~cols in
  let align x = Gcd2_util.Stats.round_up x 128 in
  let a_base = 0 in
  let b_base = align bytes in
  let out_base = 2 * align bytes in
  let m = Machine.scratch ~mem_bytes:(max 4096 ((3 * align bytes) + 256)) () in
  let window addr = Machine.window m ~addr ~len:bytes in
  Pack.store layout ~rows ~cols a_data (window a_base) a_base;
  Option.iter
    (fun b -> Pack.store_broadcast layout ~rows ~cols b (window b_base) b_base)
    b_data;
  let prog =
    match op with
    | `Binary bop -> Eltwise.binary ~tables bop spec { Eltwise.a_base; b_base; out_base }
    | `Unary table -> Eltwise.unary ~tables ~table spec ~in_base:a_base ~out_base
  in
  Machine.run m prog;
  stats.vm_nodes <- stats.vm_nodes + 1;
  stats.vm_cycles <- stats.vm_cycles + (Machine.counters m).Machine.cycles;
  Pack.load layout ~rows ~cols (window out_base) out_base

let run_binary ~stats ~options ~plan op (a : T.t) (b : T.t) =
  let out_q = Q.default in
  let layout = plan.Plan.layout in
  let rows, cols = T.matrix_dims a in
  let vectors =
    Gcd2_util.Stats.ceil_div
      (Gcd2_tensor.Layout.padded_bytes ~desc:device layout ~rows ~cols)
      128
  in
  let base_spec =
    Eltwise.default_spec ~strategy:options.Gcd2_cost.Opcost.strategy ~device ~vectors ()
  in
  let tables = ref [] in
  let add_table id t = tables := (id, t) :: !tables in
  let spec, bop =
    match op with
    | `Add | `Sub ->
      let neg = op = `Sub in
      let ra =
        if is_identity_scale ~from:a.T.quant ~into:out_q then None
        else begin
          add_table 2 (rescale_table (Q.rescale_multiplier ~from:a.T.quant ~into:out_q));
          Some 2
        end
      in
      (* subtraction always rescales B through the (negating) table so the
         reference's clamp-then-add semantics hold even at -128 *)
      let rb =
        if (not neg) && is_identity_scale ~from:b.T.quant ~into:out_q then None
        else begin
          add_table 3
            (rescale_table ~negate:neg (Q.rescale_multiplier ~from:b.T.quant ~into:out_q));
          Some 3
        end
      in
      ({ base_spec with Eltwise.rescale_a = ra; rescale_b = rb }, Eltwise.Badd)
    | `Mul ->
      let mult, shift = Q.requant_multiplier ~in_a:a.T.quant ~in_b:b.T.quant ~out:out_q in
      ({ base_spec with Eltwise.mult; shift }, Eltwise.Bmul)
  in
  (* execute with the unroll the cost model chose (outputs are
     unroll-independent; this keeps executed and costed programs equal) *)
  let spec =
    { spec with
      Eltwise.uv =
        Gcd2_cost.Streams.binary_uv ~uv:options.Gcd2_cost.Opcost.eltwise_uv
          ~device:spec.Eltwise.device ~strategy:spec.Eltwise.strategy ~op:bop ~vectors ()
    }
  in
  let data =
    stage_eltwise ~stats ~tables:!tables ~spec (`Binary bop) layout ~rows ~cols a.T.data
      (Some b.T.data)
  in
  T.of_array ~quant:out_q (Array.copy a.T.dims) data

let run_unary ~stats ~options ~plan node_op (x : T.t) =
  match Interp.unary_spec node_op with
  | None -> None
  | Some (out_q, f) ->
    let layout = plan.Plan.layout in
    let rows, cols = T.matrix_dims x in
    let vectors =
      Gcd2_util.Stats.ceil_div
        (Gcd2_tensor.Layout.padded_bytes ~desc:device layout ~rows ~cols)
        128
    in
    let spec =
      Eltwise.default_spec ~strategy:options.Gcd2_cost.Opcost.strategy ~device ~vectors ()
    in
    let spec =
      { spec with
        Eltwise.uv =
          Gcd2_cost.Streams.unary_uv ~uv:options.Gcd2_cost.Opcost.eltwise_uv
            ~device:spec.Eltwise.device ~strategy:spec.Eltwise.strategy ~vectors ()
      }
    in
    let table = Lut.of_fn ~in_q:x.T.quant ~out_q f in
    let data =
      stage_eltwise ~stats ~tables:[ (1, table) ] ~spec (`Unary 1) layout ~rows ~cols
        x.T.data None
    in
    Some (T.of_array ~quant:out_q (Array.copy x.T.dims) data)

(* ---------------- the driver ---------------- *)

let weight_of (node : Graph.node) =
  match node.Graph.weight with
  | Some w -> w
  | None -> invalid_arg (Fmt.str "Runtime: node %s has no weights" node.Graph.name)

(** Run a compiled model on the simulated DSP.  Returns all per-node
    outputs plus the VM execution statistics. *)
let run_with_stats (c : Compiler.compiled) ~inputs =
  let g = c.Compiler.graph in
  let options = c.Compiler.config.Compiler.opcost in
  let stats =
    { vm_nodes = 0; host_nodes = 0; vm_cycles = 0; kinds = Hashtbl.create 16 }
  in
  let vals = Array.make (Graph.size g) None in
  let value i =
    match vals.(i) with Some t -> t | None -> invalid_arg "Runtime: dangling input"
  in
  Graph.iter
    (fun node ->
      let plan = c.Compiler.cost.Gcd2_cost.Graphcost.plans.(node.Graph.id).(c.Compiler.assignment.(node.Graph.id)) in
      let host () =
        stats.host_nodes <- stats.host_nodes + 1;
        Interp.eval_node node (List.map value node.Graph.inputs)
      in
      let vm0 = stats.vm_nodes and cycles0 = stats.vm_cycles in
      let result =
        match node.Graph.op with
        | Op.Input { shape } -> (
          match List.assoc_opt node.Graph.id inputs with
          | Some t ->
            if t.T.dims <> shape then invalid_arg "Runtime: input shape mismatch";
            t
          | None -> invalid_arg (Fmt.str "Runtime: missing input %d" node.Graph.id))
        | Op.Matmul { cout; act } when plan.Plan.simd <> None ->
          let x = value (List.hd node.Graph.inputs) in
          let m, k = T.matrix_dims x in
          run_matmul ~stats ~options ~plan ~act x (weight_of node) ~m ~k ~n:cout
            ~out_dims:(Array.copy node.Graph.out_shape)
        | Op.Conv2d { kh; kw; stride; pad; cout; act } when plan.Plan.simd <> None ->
          let x = value (List.hd node.Graph.inputs) in
          let staged =
            if kh = 1 && kw = 1 && stride = 1 then
              (* the patch matrix of a 1x1 stride-1 convolution is its
                 input (im2col ignores the padding of a 1-wide window) *)
              let rows, cols = T.matrix_dims x in
              T.reshape x [| rows; cols |]
            else
              let patches, rows, cols, _, _ = Interp.im2col x ~kh ~kw ~stride ~pad in
              T.of_array ~quant:x.T.quant [| rows; cols |] patches
          in
          let rows, cols = T.matrix_dims staged in
          let w = weight_of node in
          let w2 = T.reshape w [| cols; cout |] in
          run_matmul ~stats ~options ~plan ~act staged w2 ~m:rows ~k:cols ~n:cout
            ~out_dims:(Array.copy node.Graph.out_shape)
        | Op.Batch_matmul { transpose_b }
          when options.Gcd2_cost.Opcost.attn_kernels && plan.Plan.simd <> None
               && plan.Plan.unroll <> None ->
          let a = value (List.hd node.Graph.inputs) in
          let b = value (List.nth node.Graph.inputs 1) in
          run_batch_matmul ~stats ~options ~plan ~transpose_b a b
        | Op.Softmax when options.Gcd2_cost.Opcost.attn_kernels ->
          run_softmax ~stats ~options (value (List.hd node.Graph.inputs))
        | Op.Layer_norm when options.Gcd2_cost.Opcost.attn_kernels ->
          run_layer_norm ~stats ~options (value (List.hd node.Graph.inputs))
        | (Op.Add | Op.Sub | Op.Mul) as op ->
          let a = value (List.hd node.Graph.inputs) in
          let b = value (List.nth node.Graph.inputs 1) in
          let bop = match op with Op.Add -> `Add | Op.Sub -> `Sub | _ -> `Mul in
          let na = T.numel a and nb = T.numel b in
          (* a broadcast operand is staged tiled by the reference's
             [i mod nb] indexing, so the vector kernel stays
             bit-identical *)
          if a.T.dims = b.T.dims
             || (options.Gcd2_cost.Opcost.attn_kernels && nb < na && na mod nb = 0)
          then run_binary ~stats ~options ~plan bop a b
          else host ()
        | (Op.Pow _ | Op.Relu | Op.Relu6 | Op.Hard_swish | Op.Sigmoid | Op.Tanh | Op.Gelu)
          as op -> (
          let x = value (List.hd node.Graph.inputs) in
          match run_unary ~stats ~options ~plan op x with
          | Some t -> t
          | None -> host ())
        | _ -> host ()
      in
      (match node.Graph.op with
      | Op.Input _ -> ()
      | op ->
        let ks = kind_stats stats (kind_of op) in
        if stats.vm_nodes > vm0 then begin
          ks.k_vm <- ks.k_vm + 1;
          ks.k_cycles <- ks.k_cycles + (stats.vm_cycles - cycles0)
        end
        else ks.k_host <- ks.k_host + 1);
      vals.(node.Graph.id) <- Some result)
    g;
  let outputs =
    Array.map
      (function Some t -> t | None -> invalid_arg "Runtime: unevaluated node")
      vals
  in
  if Gcd2_util.Trace.enabled () then begin
    Gcd2_util.Trace.count "vm-nodes" stats.vm_nodes;
    Gcd2_util.Trace.count "host-nodes" stats.host_nodes;
    Gcd2_util.Trace.count "vm-cycles" stats.vm_cycles
  end;
  (outputs, stats)

let run c ~inputs = fst (run_with_stats c ~inputs)
