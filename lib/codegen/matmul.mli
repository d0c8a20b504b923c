(** Matmul kernel generators, one per SIMD choice (paper Figure 2): lower
    C = A (MxK) * W (KxN) with int8 operands, int32 accumulation,
    fixed-point requantization and optional fused activation into a
    loop-tree of VLIW packets.  Generated code is bit-exact against
    {!Gcd2_kernels.Interp.matmul_i8} (the test suite executes it). *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer

type addressing =
  | Bump  (** pointer increments folded into immediates (GCD2's codegen) *)
  | Recompute
      (** generic loop-nest lowering: every access re-derives its address
          through the scalar unit (models the stock compilers) *)

type spec = {
  device : Gcd2_devices.Desc.t;
      (** target device (vector width, slots, latencies) — part of the
          memo key of {!cycles}, so two devices never share a costing *)
  simd : Simd.t;
  m : int;
  k : int;
  n : int;
  mult : int;  (** requantization fixed-point multiplier *)
  shift : int;
  act_table : int option;  (** table id of a fused-activation [Vlut] *)
  strategy : Packer.strategy;
  un : int;  (** output-column unroll *)
  ug : int;  (** reduction k-group unroll *)
  abuf : int;  (** activation-register rotation depth (historically 2) *)
  wbuf : int;  (** weight-register rotation depth per column (historically 2) *)
  addressing : addressing;
}

type buffers = { a_base : int; w_base : int; c_base : int }

(** Register-pressure bound on the column unroll. *)
val max_un : Simd.t -> int

(** Deepest reduction unroll the generators accept (the heuristics stay
    within the paper's window of 4; the autotuner may go to this). *)
val max_ug : int

(** Deepest register rotation ([abuf]/[wbuf]) the generators accept. *)
val max_rot : int

(** Raises [Invalid_argument] on out-of-range unroll / rotation knobs. *)
val validate_spec : spec -> unit

(** Scalar and vector registers one kernel instantiation claims,
    mirroring the generators' allocation order (pair alignment
    included). *)
val reg_demand : ?per_channel:bool -> spec -> int * int

(** Does {!reg_demand} fit the device's register files?  Heuristic
    settings fit by construction; autotuner candidates must check. *)
val fits_registers : ?per_channel:bool -> spec -> bool

(** Generate the kernel program ([tables] must hold the fused-activation
    table when [act_table] is set).  [per_channel] enables per-output-
    channel requantization: [(mults, shift)] from
    {!Gcd2_tensor.Quant.per_channel_requant}, with the multiplier vectors
    prepacked at [q_base] ({!Weights.prepack_channel_mults}); the uniform
    [mult]/[shift] of the spec are then ignored.  Raises on invalid unroll
    settings.  Memoized on all of its arguments: calls with equal
    arguments share one physical program, so the simulator's decode
    cache decodes it once. *)
val generate :
  ?tables:(int * int array) list ->
  ?per_channel:int array * int ->
  ?q_base:int ->
  spec ->
  buffers ->
  Program.t

(** Static cycles of the kernel (buffer addresses do not affect it).
    Memoizes the count only, never the program. *)
val cycles : spec -> int
