(** Content-addressing of compile requests.

    A compile request is the triple (computational graph, compiler
    configuration, disabled passes): if two requests render to the same
    canonical byte string, the compiler is guaranteed to produce the
    same artifact, so the cache may answer the second from the first's
    stored result.

    The graph rendered here must be the graph the expensive phases (plan
    enumeration, global selection) actually consume — i.e. the graph
    {e after} the optimization passes have run, which is where
    {!Gcd2.Compiler} computes the digest.  This matters for the one
    non-printable knob, the [supported] predicate, which is canonicalized
    {e extensionally}: it is evaluated on each node and rendered as a
    bitmap.  Over the optimized graph that bitmap covers exactly the op
    universe selection sees — including fused/rewritten ops that do not
    exist in the user's input graph — so two configurations whose
    predicates agree on every rendered op compile identically.

    The rest of the rendering is exhaustive over everything else that
    can change the compiler's output — every operator attribute
    (including the ones {!Gcd2_graph.Op.name} elides, e.g. convolution
    padding and reshape shapes), weight contents, every costing knob of
    {!Gcd2_cost.Opcost.options}, and the sorted list of disabled pass
    names (an ablated compile must never share an entry with a full
    one).  The cosmetic configuration [name] is deliberately excluded,
    so "GCD2" and "gcd2" share entries.

    The digest is the MD5 of the canonical rendering, in lowercase hex —
    the cache's file name and the artifact header's request id. *)

module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module Opcost = Gcd2_cost.Opcost
module Packer = Gcd2_sched.Packer
module Layout = Gcd2_tensor.Layout
module Simd = Gcd2_codegen.Simd
module T = Gcd2_tensor.Tensor

let add = Buffer.add_string

let add_dims buf dims =
  add buf "[";
  Array.iter (fun d -> add buf (string_of_int d); add buf ",") dims;
  add buf "]"

(* Floats are rendered in hex so the canonical form is exact, not
   rounded. *)
let add_float buf f = add buf (Printf.sprintf "%h" f)

let add_act buf = function
  | None -> add buf "-"
  | Some a -> add buf (Op.act_name a)

(* Exhaustive over every attribute of every operator: unlike [Op.name]
   (display-oriented), nothing that changes compilation may be elided. *)
let add_op buf (op : Op.t) =
  match op with
  | Op.Input { shape } ->
    add buf "input";
    add_dims buf shape
  | Op.Constant { shape } ->
    add buf "const";
    add_dims buf shape
  | Op.Conv2d { kh; kw; stride; pad; cout; act } ->
    add buf (Printf.sprintf "conv2d:%d:%d:%d:%d:%d:" kh kw stride pad cout);
    add_act buf act
  | Op.Depthwise_conv2d { kh; kw; stride; pad; act } ->
    add buf (Printf.sprintf "dwconv:%d:%d:%d:%d:" kh kw stride pad);
    add_act buf act
  | Op.Transposed_conv2d { kh; kw; stride; pad; cout; act } ->
    add buf (Printf.sprintf "tconv:%d:%d:%d:%d:%d:" kh kw stride pad cout);
    add_act buf act
  | Op.Matmul { cout; act } ->
    add buf (Printf.sprintf "matmul:%d:" cout);
    add_act buf act
  | Op.Batch_matmul { transpose_b } ->
    add buf (if transpose_b then "bmm:t" else "bmm:n")
  | Op.Add -> add buf "add"
  | Op.Mul -> add buf "mul"
  | Op.Sub -> add buf "sub"
  | Op.Div -> add buf "div"
  | Op.Pow p ->
    add buf "pow:";
    add_float buf p
  | Op.Relu -> add buf "relu"
  | Op.Relu6 -> add buf "relu6"
  | Op.Hard_swish -> add buf "hswish"
  | Op.Sigmoid -> add buf "sigmoid"
  | Op.Tanh -> add buf "tanh"
  | Op.Gelu -> add buf "gelu"
  | Op.Softmax -> add buf "softmax"
  | Op.Layer_norm -> add buf "layer_norm"
  | Op.Max_pool { kernel; stride } -> add buf (Printf.sprintf "maxpool:%d:%d" kernel stride)
  | Op.Avg_pool { kernel; stride } -> add buf (Printf.sprintf "avgpool:%d:%d" kernel stride)
  | Op.Global_avg_pool -> add buf "gap"
  | Op.Reshape { shape } ->
    add buf "reshape";
    add_dims buf shape
  | Op.Transpose { perm } ->
    add buf "transpose";
    add_dims buf perm
  | Op.Concat { axis } -> add buf (Printf.sprintf "concat:%d" axis)
  | Op.Pad_spatial { pad } -> add buf (Printf.sprintf "pad:%d" pad)
  | Op.Upsample { factor } -> add buf (Printf.sprintf "upsample:%d" factor)

let add_weight buf = function
  | None -> add buf "w:-"
  | Some (w : T.t) ->
    (* Digest the raw parameter values; artifacts embed them, so two
       graphs differing only in weights are different requests. *)
    add buf "w:";
    add buf
      (Stdlib.Digest.to_hex
         (Stdlib.Digest.string (Marshal.to_string (w.T.dims, w.T.data, w.T.quant) [])))

let add_graph buf (g : Graph.t) =
  Graph.iter
    (fun node ->
      add buf (string_of_int node.Graph.id);
      add buf ":";
      add_op buf node.Graph.op;
      add buf "<-";
      List.iter
        (fun i ->
          add buf (string_of_int i);
          add buf ",")
        node.Graph.inputs;
      add buf "=>";
      add_dims buf node.Graph.out_shape;
      add buf ";";
      add_weight buf node.Graph.weight;
      add buf "\n")
    g

let add_unroll_mode buf (m : Opcost.unroll_mode) =
  match m with
  | `None -> add buf "none"
  | `Out f -> add buf (Printf.sprintf "out:%d" f)
  | `Adaptive -> add buf "adaptive"

let add_tune buf = function
  | None -> add buf "-"
  | Some (t : Gcd2_codegen.Autotune.config) ->
    add buf (Printf.sprintf "budget:%d:verify:%b" t.Gcd2_codegen.Autotune.budget t.Gcd2_codegen.Autotune.verify)

let add_options buf (g : Graph.t) (o : Opcost.options) =
  (* the full device descriptor, not just its name: a retuned descriptor
     under the same name must never resurrect a stale artifact *)
  add buf "device=";
  add buf (Gcd2_devices.Desc.canonical o.Opcost.device);
  add buf ";strategy=";
  add buf (Fmt.str "%a" Packer.pp_strategy o.Opcost.strategy);
  add buf ";unroll=";
  add_unroll_mode buf o.Opcost.unroll_mode;
  (* tuned and untuned compiles must never alias, and neither must two
     different budgets (a bigger budget may find a better kernel) *)
  add buf ";tune=";
  add_tune buf o.Opcost.tune;
  add buf ";eltwise_uv=";
  add buf (Fmt.str "%a" Gcd2_cost.Streams.pp_uv_choice o.Opcost.eltwise_uv);
  add buf ";layouts=";
  List.iter
    (fun l ->
      add buf (Layout.name l);
      add buf ",")
    o.Opcost.layouts;
  add buf ";simds=";
  List.iter
    (fun s ->
      add buf (Simd.name s);
      add buf ",")
    o.Opcost.simds;
  add buf (Printf.sprintf ";lut_division=%b" o.Opcost.lut_division);
  add buf (Printf.sprintf ";attn_kernels=%b" o.Opcost.attn_kernels);
  add buf ";dispatch_us=";
  add_float buf o.Opcost.dispatch_us;
  add buf (Printf.sprintf ";channel_pad=%d" o.Opcost.channel_pad);
  (* extensional rendering of the [supported] predicate over this graph *)
  add buf ";supported=";
  Graph.iter (fun node -> add buf (if o.Opcost.supported node.Graph.op then "1" else "0")) g

(** Canonical rendering of a compile request.  [selection] is the
    rendered selection strategy (e.g. ["gcd2(13)"]); [disable] is the
    list of disabled pass names (rendered sorted and deduplicated, so
    callers need not normalize); the graph is the one the selection
    phases consume, {e after} the optimization passes that [disable]
    left enabled. *)
let canonical ~selection ~optimize_graph ~disable ~options (g : Graph.t) =
  let buf = Buffer.create 4096 in
  (* v5: the request gained the transformer-kernel knob ([attn_kernels])
     and sequence models arrive as bucket-padded graphs (v4 added the
     autotuner configuration and the eltwise unroll policy, v3 the
     device descriptor) *)
  add buf "gcd2-request-v5\n";
  add buf "selection=";
  add buf selection;
  add buf (Printf.sprintf ";optimize_graph=%b" optimize_graph);
  add buf ";disable=[";
  List.iter
    (fun n ->
      add buf n;
      add buf ",")
    (List.sort_uniq String.compare disable);
  add buf "];";
  add_options buf g options;
  add buf "\n";
  add_graph buf g;
  Buffer.contents buf

(** Content-address of a compile request: lowercase-hex MD5 of the
    canonical rendering. *)
let request ~selection ~optimize_graph ~disable ~options (g : Graph.t) =
  Stdlib.Digest.to_hex
    (Stdlib.Digest.string (canonical ~selection ~optimize_graph ~disable ~options g))
