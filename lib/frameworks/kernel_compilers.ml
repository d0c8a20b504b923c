(** Kernel-level comparators: Halide, TVM and RAKE (paper Figure 7 and
    Table III).  These systems compile individual kernels (they "currently
    cannot execute full DNN models on this platform"), so the comparison
    is per-convolution.

    Modelled differences (per the paper's Section V and our DESIGN.md):
    - all three rely on LLVM's packetizer, which does not distinguish soft
      dependencies (our top-down list scheduler);
    - {b Halide} uses the schedule author's single vectorization pattern
      (the reduction-friendly vrmpy) and no unroll search;
    - {b TVM} unrolls more aggressively but keeps the same vectorization;
    - {b RAKE} synthesizes instruction selections per kernel, optimizing
      the number of instructions in the vectorized expression — which
      favours the reducing multiply even where a cheaper-by-cycles choice
      exists (exactly the Table III behaviour);
    - all three lower loop nests generically, recomputing effective
      addresses through the scalar unit ({!Matmul.Recompute}) where GCD2's
      layout-specialized codegen folds them into pointer bumps;
    - {b GCD_b} adds GCD2's cycle-driven instruction/layout selection and
      shape-adaptive unrolling; {b GCD2} adds SDA packing on top. *)

module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Packer = Gcd2_sched.Packer
module Program = Gcd2_isa.Program
module Desc = Gcd2_devices.Desc

(* Every kernel compiler of the comparison targets the paper's DSP. *)
let device = Desc.hexagon698

type t = Halide | Tvm | Rake | Gcd_b | Gcd2_kernel

let name = function
  | Halide -> "Halide"
  | Tvm -> "TVM"
  | Rake -> "RAKE"
  | Gcd_b -> "GCDb"
  | Gcd2_kernel -> "GCD2"

let all = [ Halide; Tvm; Rake; Gcd_b; Gcd2_kernel ]

type result = {
  framework : t;
  simd : Simd.t;
  unroll : Unroll.setting;
  cycles : int;
  packets : int;  (** dynamic VLIW packet count — Figure 7 (right) *)
  ms : float;
}

(** Implicit-GEMM dimensions of a convolution. *)
let conv_mkn ~n ~h ~w ~c ~kh ~kw ~stride ~pad ~cout =
  let oh = ((h + (2 * pad) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad) - kw) / stride) + 1 in
  (n * oh * ow, kh * kw * c, cout)

let base_spec ?(addressing = Matmul.Bump) simd strategy ~m ~k ~n =
  {
    Matmul.device;
    simd;
    m;
    k;
    n;
    mult = 1 lsl 30;
    shift = 30;
    act_table = None;
    strategy;
    un = Gcd2_tensor.Layout.column_group (Simd.layout simd);
    ug = 1;
    abuf = 2;
    wbuf = 2;
    addressing;
  }

let instantiate spec (u : Unroll.setting) =
  let spec =
    { spec with Matmul.un = u.Unroll.un; ug = u.Unroll.ug; abuf = u.Unroll.abuf; wbuf = u.Unroll.wbuf }
  in
  let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 0; c_base = 0 } in
  (Program.static_cycles ~desc:spec.Matmul.device prog, Program.packet_count prog)

(* RAKE synthesizes vector instruction selections for the program's given
   (standard, channel-contiguous) layout, where the reducing multiply is
   the natural fit — it does not consider re-laying-out the data to enable
   the broadcast forms (the paper: "does not consider the possibility and
   costs of data transformation to use specific instructions").  Synthesis
   covers a two-group window of the reduction. *)
let rake_pick ~m:_ ~k ~n =
  (Simd.I_vrmpy, Unroll.fixed_mid Simd.I_vrmpy ~k ~n ~factor:2)

(* GCD2's per-kernel choice: fewest cycles with adaptive unrolling. *)
let gcd2_pick strategy ~m ~k ~n =
  let best = ref None in
  List.iter
    (fun simd ->
      let u = Unroll.adaptive simd ~m ~k ~n in
      let c, _ = instantiate (base_spec simd strategy ~m ~k ~n) u in
      match !best with
      | Some (bc, _, _) when bc <= c -> ()
      | _ -> best := Some (c, simd, u))
    Simd.all;
  match !best with Some (_, s, u) -> (s, u) | None -> assert false

(** Compile one convolution kernel under a framework's strategy. *)
let conv framework ~m ~k ~n =
  let simd, unroll, strategy, addressing =
    match framework with
    | Halide ->
      ( Simd.I_vrmpy,
        Unroll.none Simd.I_vrmpy ~k ~n,
        Packer.In_order,
        Matmul.Recompute )
    | Tvm ->
      (* deeper unrolling than Halide's default schedule, same lowering *)
      ( Simd.I_vrmpy,
        Unroll.fixed_out Simd.I_vrmpy ~k ~n ~factor:8,
        Packer.In_order,
        Matmul.Recompute )
    | Rake ->
      (* synthesis does fold addressing into its vector expressions *)
      let simd, u = rake_pick ~m ~k ~n in
      (simd, u, Packer.In_order, Matmul.Bump)
    | Gcd_b ->
      let simd, u = gcd2_pick Packer.In_order ~m ~k ~n in
      (simd, u, Packer.In_order, Matmul.Bump)
    | Gcd2_kernel ->
      let simd, u = gcd2_pick Packer.sda ~m ~k ~n in
      (simd, u, Packer.sda, Matmul.Bump)
  in
  let cycles, packets = instantiate (base_spec ~addressing simd strategy ~m ~k ~n) unroll in
  {
    framework;
    simd;
    unroll;
    cycles;
    packets;
    ms = Desc.ms_of_cycles device (float_of_int cycles);
  }
