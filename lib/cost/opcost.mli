(** Per-operator execution-plan enumeration (the paper's "local analysis
    of possible implementations and associated layouts", Section IV-A).
    Multiply-heavy operators get one plan per candidate SIMD instruction,
    costed by generating and packing their kernels; layout-flexible
    operators get one plan per candidate layout, costed from streams over
    the padded buffers. *)

module Layout = Gcd2_tensor.Layout
module Simd = Gcd2_codegen.Simd
module Packer = Gcd2_sched.Packer
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op

type unroll_mode = [ `None | `Out of int | `Adaptive ]

type options = {
  device : Gcd2_devices.Desc.t;
      (** target machine description: vector width and padding, slot
          masks/latencies (through the generated kernels), DDR and gather
          bandwidth, dispatch clock *)
  strategy : Packer.strategy;  (** VLIW packing inside kernels *)
  unroll_mode : unroll_mode;
  tune : Gcd2_codegen.Autotune.config option;
      (** when set, multiply kernels search the codegen-shape space
          ({!Gcd2_codegen.Tile}) under this budget instead of taking the
          [unroll_mode] heuristic's single setting *)
  eltwise_uv : Streams.uv_choice;
      (** elementwise vector unroll: pinned (historically [`Fixed 2]) or
          costed per stream *)
  layouts : Layout.t list;  (** candidates for layout-flexible operators *)
  simds : Simd.t list;  (** candidates for multiply operators *)
  lut_division : bool;  (** division -> reciprocal table lookup *)
  attn_kernels : bool;
      (** transformer row operators (softmax, layer_norm) and batched
          matmul get DSP vector kernels, costed from their generated
          programs; off models kernel libraries that bounce them to the
          CPU *)
  dispatch_us : float;  (** per-operator invocation overhead *)
  channel_pad : int;
      (** channel granularity the kernel library pads to (32 models
          hexagon_nn's depth-32 format; 1 = GCD2's own layouts) *)
  supported : Op.t -> bool;
      (** operators the DSP backend implements; others fall back to the
          CPU with a round trip through shared memory *)
}

(** The full GCD2 configuration on the paper's hexagon698; retarget with
    [{ gcd2 with device }]. *)
val gcd2 : options

(** Matrix view of a shape: rows = leading dims product, cols = last. *)
val mat_dims : int array -> int * int

(** Enumerate the execution plans of one node. *)
val plans : options -> Graph.t -> Graph.node -> Plan.t array

(** The generator spec behind a chosen matmul-family plan — the same
    dimensions and knobs {!plans} costed it with, so
    [Gcd2_codegen.Matmul.generate] on it reproduces the packed kernel
    whose cycle count the plan carries.  [None] for plans that do not
    run on the SIMD multiply unit. *)
val plan_spec :
  options -> Graph.t -> Graph.node -> Plan.t -> Gcd2_codegen.Matmul.spec option
