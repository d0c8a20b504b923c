(** Row-operator kernels: Softmax and LayerNorm along the last axis.

    Both stage a group of rows {e transposed} — one vector per column,
    lane [r] = row [r] — so the row-wise reductions (max, sum, sum of
    squares) become per-lane accumulations across column vectors and
    never need a cross-lane tree.  A group is [vector_bytes] rows for
    Softmax (8-bit lanes) and [vector_bytes / 2] rows for LayerNorm
    (16-bit lanes, because centering [x - mean] spans [-255, 255]).

    Each operator is two programs with a host step between them, because
    the per-row scalars (Softmax's reciprocal of the exponential sum,
    LayerNorm's mean and fused normalize-affine multiplier) must be
    computed from pass-1 results and staged as [Vscalev] multiplier
    vectors for pass 2.  The division itself is a per-row scalar (one per
    128 staged rows), host-computed like the other staging operators
    DESIGN.md documents; everything O(rows x cols) runs on the DSP.

    Bit-exactness with {!Gcd2_kernels.Interp} rests on three ISA facts:
    [Valu] subtracts saturate exactly like the reference's clamp,
    [Vscalev] lanes compute [Sat.apply_multiplier], and the pack chain
    [sat8 (sat16 v) = sat8 v] (nested monotone clamps). *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer
module Desc = Gcd2_devices.Desc
module Machine = Gcd2_vm.Machine
module Sat = Gcd2_util.Saturate

module Lut = Gcd2_kernels.Lut

let exp_table_id = 1

(* The integer steps (exponential table, reciprocal, mean, normalize-
   affine multiplier) live in Gcd2_kernels.Lut, shared with the
   reference interpreter so both sides are bit-exact by construction. *)
let exp_table ~scale = Lut.softmax_exp_table ~scale
let recip_of_sum = Lut.softmax_recip
let rounded_mean = Lut.rounded_mean
let layer_norm_multiplier = Lut.layer_norm_multiplier

(* 16-bit saturating accumulators ([Vmul] into a pair) hold at most
   [32767 / 127] exponential bytes; drain every [chunk] columns into the
   32-bit row sums ([Vaddw]). *)
let sum_chunk = 128

(* ------------------------------------------------------------------ *)
(* Program generation *)

(* Memoized on every parameter that reaches the emitter (the Streams
   discipline); programs are shared across nodes and groups, so the VM's
   decode cache sees one identity per shape.  The exponential table bakes
   the input scale into pass 1, hence the scale bits in its key. *)
let softmax_p1_memo :
    (Desc.t * Packer.strategy * int * int64, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "rowops-softmax-p1"

let softmax_p2_memo : (Desc.t * Packer.strategy * int, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "rowops-softmax-p2"

let layer_norm_p1_memo : (Desc.t * Packer.strategy * int, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "rowops-ln-p1"

let layer_norm_p2_memo : (Desc.t * Packer.strategy * int, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "rowops-ln-p2"

(* Group-scratch layout, in units of [vector_bytes]: input columns first,
   then (operator-specific) intermediate and output columns, then the
   sum/affine staging vectors.  All bases are vector-aligned. *)
let softmax_bases ~vb ~cols =
  let xt = 0 in
  let e = cols * vb in
  let out = 2 * cols * vb in
  let sums = 3 * cols * vb in
  let recip = sums + (4 * vb) in
  (xt, e, out, sums, recip, recip + (4 * vb) + 256)

let layer_norm_bases ~vb ~cols =
  let xt = 0 in
  let out = cols * vb in
  let sums = 2 * cols * vb in
  let aff = sums + (4 * vb) in
  (xt, out, sums, aff, aff + (3 * vb) + 256)

(* Pass 1: per-lane row max over all columns, then exponentials (stored
   for pass 2) accumulated into 32-bit per-row sums.  [Vmul] splits a
   vector's bytes even/odd into a pair's 16-bit lanes, so the sums come
   out row-interleaved: lane [l] of the first stored pair is row [2l],
   of the second row [2l+1]. *)
let softmax_p1 ~device ~strategy ~cols ~scale =
  let key = (device, strategy, cols, Int64.bits_of_float scale) in
  Gcd2_util.Memo.find_or_add softmax_p1_memo key (fun () ->
      let vb = device.Desc.vector_bytes in
      let xt_base, e_base, _, sum_base, _, _ = softmax_bases ~vb ~cols in
      let pool = Regs.create ~desc:device () in
      let rx = Regs.scalar pool and re = Regs.scalar pool and rs = Regs.scalar pool in
      let xv = Regs.vector pool and maxv = Regs.vector pool and dv = Regs.vector pool in
      let ones = Regs.vector pool in
      let pd = Regs.pair pool and sa = Regs.pair pool and sb = Regs.pair pool in
      let pd_lo, pd_hi = Regs.halves pd in
      let sa_lo, sa_hi = Regs.halves sa and sb_lo, sb_hi = Regs.halves sb in
      let block e = Emit.block ~desc:device ~strategy e in
      let init =
        let e = Emit.create () in
        Emit.movi e rx xt_base;
        Emit.movi e re e_base;
        Emit.movi e rs sum_base;
        Emit.vmovi e maxv (-128);
        Emit.vmovi e ones 1;
        Emit.vzero e pd;
        Emit.vzero e sa;
        Emit.vzero e sb;
        block e
      in
      let max_body =
        let e = Emit.create () in
        Emit.vload e xv rx 0;
        Emit.valu e Instr.Vmax ~width:Instr.W8 maxv maxv xv;
        Emit.bump e rx vb;
        block e
      in
      let reset =
        let e = Emit.create () in
        Emit.movi e rx xt_base;
        block e
      in
      let col_body =
        let e = Emit.create () in
        Emit.vload e xv rx 0;
        (* saturating byte subtract: d = sat8 (x - max) in [-128, 0] *)
        Emit.valu e Instr.Vsub ~width:Instr.W8 dv xv maxv;
        Emit.vlut e dv dv exp_table_id;
        Emit.vstore e re 0 dv;
        Emit.vmul e pd dv ones;
        Emit.bump e rx vb;
        Emit.bump e re vb;
        block e
      in
      let drain =
        let e = Emit.create () in
        Emit.vaddw e sa pd_lo;
        Emit.vaddw e sb pd_hi;
        Emit.vzero e pd;
        block e
      in
      let store =
        let e = Emit.create () in
        Emit.vstore e rs 0 sa_lo;
        Emit.vstore e rs vb sa_hi;
        Emit.vstore e rs (2 * vb) sb_lo;
        Emit.vstore e rs (3 * vb) sb_hi;
        block e
      in
      let full = cols / sum_chunk and rest = cols mod sum_chunk in
      let nodes =
        [ init; Emit.loop ~trip:cols [ max_body ]; reset ]
        @ (if full > 0 then
             [ Emit.loop ~trip:full [ Emit.loop ~trip:sum_chunk [ col_body ]; drain ] ]
           else [])
        @ (if rest > 0 then [ Emit.loop ~trip:rest [ col_body ]; drain ] else [])
        @ [ store ]
      in
      Program.make ~tables:[ (exp_table_id, exp_table ~scale) ] "softmax_p1" nodes)

(* Pass 2: reload the stored exponentials, widen each column to 32-bit
   lanes, scale by the staged per-row reciprocal vectors (shift 15) and
   pack back to bytes.  The byte widening inherits [Vmul]'s even/odd
   interleave, so output byte [i] of a column is row [2i] (i < vb/2) or
   row [2 (i - vb/2) + 1]; the host gather below undoes it. *)
let softmax_p2 ~device ~strategy ~cols =
  Gcd2_util.Memo.find_or_add softmax_p2_memo (device, strategy, cols) (fun () ->
      let vb = device.Desc.vector_bytes in
      let _, e_base, out_base, _, recip_base, _ = softmax_bases ~vb ~cols in
      let pool = Regs.create ~desc:device () in
      let re = Regs.scalar pool and ro = Regs.scalar pool and rs = Regs.scalar pool in
      let ev = Regs.vector pool and ones = Regs.vector pool in
      let w0 = Regs.vector pool and w1 = Regs.vector pool in
      let w2 = Regs.vector pool and w3 = Regs.vector pool in
      let pd = Regs.pair pool and qa = Regs.pair pool and qb = Regs.pair pool in
      let u = Regs.pair pool in
      let outv = Regs.vector pool in
      let pd_lo, pd_hi = Regs.halves pd in
      let qa_lo, qa_hi = Regs.halves qa and qb_lo, qb_hi = Regs.halves qb in
      let u_lo, u_hi = Regs.halves u in
      let block e = Emit.block ~desc:device ~strategy e in
      let init =
        let e = Emit.create () in
        Emit.movi e re e_base;
        Emit.movi e ro out_base;
        Emit.movi e rs recip_base;
        Emit.vload e w0 rs 0;
        Emit.vload e w1 rs vb;
        Emit.vload e w2 rs (2 * vb);
        Emit.vload e w3 rs (3 * vb);
        Emit.vmovi e ones 1;
        block e
      in
      let col_body =
        let e = Emit.create () in
        Emit.vload e ev re 0;
        Emit.vzero e pd;
        Emit.vmul e pd ev ones;
        Emit.vzero e qa;
        Emit.vaddw e qa pd_lo;
        Emit.vzero e qb;
        Emit.vaddw e qb pd_hi;
        Emit.vscalev e qa_lo qa_lo w0 15;
        Emit.vscalev e qa_hi qa_hi w1 15;
        Emit.vscalev e qb_lo qb_lo w2 15;
        Emit.vscalev e qb_hi qb_hi w3 15;
        Emit.vpack e u_lo qa Instr.W32;
        Emit.vpack e u_hi qb Instr.W32;
        Emit.vpack e outv u Instr.W16;
        Emit.vstore e ro 0 outv;
        Emit.bump e re vb;
        Emit.bump e ro vb;
        block e
      in
      Program.make "softmax_p2" [ init; Emit.loop ~trip:cols [ col_body ] ])

(* LayerNorm pass 1: per-lane sum and sum of squares.  Columns are
   16-bit lanes; [Vaddw] widens positionally to 32-bit row sums and
   [Vscalev] at shift 0 squares each lane exactly. *)
let layer_norm_p1 ~device ~strategy ~cols =
  Gcd2_util.Memo.find_or_add layer_norm_p1_memo (device, strategy, cols) (fun () ->
      let vb = device.Desc.vector_bytes in
      let xt_base, _, sum_base, _, _ = layer_norm_bases ~vb ~cols in
      let pool = Regs.create ~desc:device () in
      let rx = Regs.scalar pool and rs = Regs.scalar pool in
      let xv = Regs.vector pool in
      let sp = Regs.pair pool and sq = Regs.pair pool and p = Regs.pair pool in
      let sp_lo, sp_hi = Regs.halves sp and sq_lo, sq_hi = Regs.halves sq in
      let p_lo, p_hi = Regs.halves p in
      let block e = Emit.block ~desc:device ~strategy e in
      let init =
        let e = Emit.create () in
        Emit.movi e rx xt_base;
        Emit.movi e rs sum_base;
        Emit.vzero e sp;
        Emit.vzero e sq;
        block e
      in
      let col_body =
        let e = Emit.create () in
        Emit.vload e xv rx 0;
        Emit.vaddw e sp xv;
        Emit.vzero e p;
        Emit.vaddw e p xv;
        Emit.vscalev e p_lo p_lo p_lo 0;
        Emit.vscalev e p_hi p_hi p_hi 0;
        Emit.valu e Instr.Vadd ~width:Instr.W32 sq_lo sq_lo p_lo;
        Emit.valu e Instr.Vadd ~width:Instr.W32 sq_hi sq_hi p_hi;
        Emit.bump e rx vb;
        block e
      in
      let store =
        let e = Emit.create () in
        Emit.vstore e rs 0 sp_lo;
        Emit.vstore e rs vb sp_hi;
        Emit.vstore e rs (2 * vb) sq_lo;
        Emit.vstore e rs (3 * vb) sq_hi;
        block e
      in
      Program.make "layer_norm_p1" [ init; Emit.loop ~trip:cols [ col_body ]; store ])

(* LayerNorm pass 2: center against the staged per-row mean (exact in 16
   bits), widen, apply the fused normalize-affine multiplier at shift 15
   and pack.  Lanes stay positional throughout — no interleave. *)
let layer_norm_p2 ~device ~strategy ~cols =
  Gcd2_util.Memo.find_or_add layer_norm_p2_memo (device, strategy, cols) (fun () ->
      let vb = device.Desc.vector_bytes in
      let xt_base, out_base, _, aff_base, _ = layer_norm_bases ~vb ~cols in
      let pool = Regs.create ~desc:device () in
      let rx = Regs.scalar pool and ro = Regs.scalar pool and rs = Regs.scalar pool in
      let xv = Regs.vector pool and meanv = Regs.vector pool and dv = Regs.vector pool in
      let nm_lo = Regs.vector pool and nm_hi = Regs.vector pool in
      let p = Regs.pair pool and u = Regs.pair pool in
      let outv = Regs.vector pool in
      let p_lo, p_hi = Regs.halves p in
      let u_lo, _ = Regs.halves u in
      let block e = Emit.block ~desc:device ~strategy e in
      let init =
        let e = Emit.create () in
        Emit.movi e rx xt_base;
        Emit.movi e ro out_base;
        Emit.movi e rs aff_base;
        Emit.vload e meanv rs 0;
        Emit.vload e nm_lo rs vb;
        Emit.vload e nm_hi rs (2 * vb);
        (* the pair's high half stays zero: only the low vb/2 output
           bytes of each column are rows *)
        Emit.vzero e u;
        block e
      in
      let col_body =
        let e = Emit.create () in
        Emit.vload e xv rx 0;
        Emit.valu e Instr.Vsub ~width:Instr.W16 dv xv meanv;
        Emit.vzero e p;
        Emit.vaddw e p dv;
        Emit.vscalev e p_lo p_lo nm_lo 15;
        Emit.vscalev e p_hi p_hi nm_hi 15;
        Emit.vpack e u_lo p Instr.W32;
        Emit.vpack e outv u Instr.W16;
        Emit.vstore e ro 0 outv;
        Emit.bump e rx vb;
        Emit.bump e ro vb;
        block e
      in
      Program.make "layer_norm_p2" [ init; Emit.loop ~trip:cols [ col_body ] ])

(* ------------------------------------------------------------------ *)
(* Costing *)

let ceil_div a b = (a + b - 1) / b

(** Modeled cycles for a whole Softmax node: both passes, times the
    number of row groups.  Device-parameterized like the Matmul
    generator: wider descriptors are costed on their own vector width,
    only hexagon698 programs ever execute. *)
let softmax_cycles ~device ~strategy ~rows ~cols =
  let vb = device.Desc.vector_bytes in
  let groups = ceil_div rows vb in
  let p1 = softmax_p1 ~device ~strategy ~cols ~scale:1.0 in
  let p2 = softmax_p2 ~device ~strategy ~cols in
  let per_group =
    Program.static_cycles ~desc:device p1 + Program.static_cycles ~desc:device p2
  in
  float_of_int (groups * per_group)

(** Modeled cycles for a whole LayerNorm node. *)
let layer_norm_cycles ~device ~strategy ~rows ~cols =
  let vb = device.Desc.vector_bytes in
  let groups = ceil_div rows (vb / 2) in
  let p1 = layer_norm_p1 ~device ~strategy ~cols in
  let p2 = layer_norm_p2 ~device ~strategy ~cols in
  let per_group =
    Program.static_cycles ~desc:device p1 + Program.static_cycles ~desc:device p2
  in
  float_of_int (groups * per_group)

(* ------------------------------------------------------------------ *)
(* Execution (hexagon698 only, like Testbench) *)

(* Groups are transposed straight into simulator memory and their
   outputs read straight back out of it.  A group's input region is
   rewritten whole (the lanes past its last row zeroed), so a machine
   reused across groups computes what a fresh one would. *)

(** Execute Softmax on the simulated DSP: [x] row-major [rows * cols],
    [scale] the input quantization scale.  Returns the row-major int8
    output (quant 1/128) and the executed cycle count. *)
let run_softmax ~strategy ~rows ~cols ~scale x =
  let device = Desc.hexagon698 in
  let vb = device.Desc.vector_bytes in
  let half = vb / 2 and q = vb / 4 in
  let p1 = softmax_p1 ~device ~strategy ~cols ~scale in
  let p2 = softmax_p2 ~device ~strategy ~cols in
  let xt_base, _, out_base, sum_base, recip_base, mem_bytes =
    softmax_bases ~vb ~cols
  in
  if Array.length x <> rows * cols then invalid_arg "Rowops.run_softmax: size mismatch";
  let m = Machine.scratch ~mem_bytes:(max 4096 mem_bytes) () in
  let xt = Machine.window m ~addr:xt_base ~len:(cols * vb) in
  let ob = Machine.window m ~addr:out_base ~len:(cols * vb) in
  let out = Array.make (rows * cols) 0 in
  let wv = Array.make (4 * q) 0 in
  for g = 0 to ceil_div rows vb - 1 do
    let r0 = g * vb in
    let nr = min vb (rows - r0) in
    (* column c of the group is the vector at [c * vb], lane l = row l *)
    if nr < vb then
      for c = 0 to cols - 1 do
        Bytes.fill xt (xt_base + (c * vb) + nr) (vb - nr) '\000'
      done;
    for l = 0 to nr - 1 do
      let src = (r0 + l) * cols in
      for c = 0 to cols - 1 do
        Bytes.unsafe_set xt
          (xt_base + (c * vb) + l)
          (Char.unsafe_chr (Array.unsafe_get x (src + c) land 0xff))
      done
    done;
    Machine.run m p1;
    let sums = Machine.read_i32_array m ~addr:sum_base ~len:vb in
    (* row r's sum: lane r/2 of the first pair (r even) or second (odd) *)
    let recip r = recip_of_sum sums.((if r land 1 = 0 then 0 else half) + (r / 2)) in
    for j = 0 to q - 1 do
      wv.(j) <- (if 2 * j < nr then recip (2 * j) else 0);
      wv.(q + j) <- (if 2 * (q + j) < nr then recip (2 * (q + j)) else 0);
      wv.((2 * q) + j) <- (if (2 * j) + 1 < nr then recip ((2 * j) + 1) else 0);
      wv.((3 * q) + j) <- (if (2 * (q + j)) + 1 < nr then recip ((2 * (q + j)) + 1) else 0)
    done;
    Machine.write_i32_array m ~addr:recip_base wv;
    Machine.run m p2;
    (* output lanes are de-interleaved: even rows first, then odd *)
    for l = 0 to nr - 1 do
      let pos = out_base + (if l land 1 = 0 then l / 2 else half + (l / 2)) in
      let dst = (r0 + l) * cols in
      for c = 0 to cols - 1 do
        Array.unsafe_set out (dst + c) (Bytes.get_int8 ob (pos + (c * vb)))
      done
    done
  done;
  (out, (Machine.counters m).Machine.cycles)

(** Execute LayerNorm on the simulated DSP: [x] row-major [rows * cols]
    at quantization [scale]; output quant [out_scale].  Returns the
    row-major int8 output and the executed cycle count. *)
let run_layer_norm ~strategy ~rows ~cols ~scale ~out_scale x =
  let device = Desc.hexagon698 in
  let vb = device.Desc.vector_bytes in
  let rows_g = vb / 2 and q = vb / 4 in
  let p1 = layer_norm_p1 ~device ~strategy ~cols in
  let p2 = layer_norm_p2 ~device ~strategy ~cols in
  let xt_base, out_base, sum_base, aff_base, mem_bytes = layer_norm_bases ~vb ~cols in
  if Array.length x <> rows * cols then invalid_arg "Rowops.run_layer_norm: size mismatch";
  let m = Machine.scratch ~mem_bytes:(max 4096 mem_bytes) () in
  let xt = Machine.window m ~addr:xt_base ~len:(cols * vb) in
  let ob = Machine.window m ~addr:out_base ~len:(cols * vb) in
  let out = Array.make (rows * cols) 0 in
  let meanv = Array.make rows_g 0 in
  let nmv = Array.make (2 * q) 0 in
  for g = 0 to ceil_div rows rows_g - 1 do
    let r0 = g * rows_g in
    let nr = min rows_g (rows - r0) in
    (* column c is the vector at [c * vb]: 16-bit little-endian lanes,
       lane l = row l, sign-extended *)
    if nr < rows_g then
      for c = 0 to cols - 1 do
        Bytes.fill xt (xt_base + (c * vb) + (2 * nr)) (2 * (rows_g - nr)) '\000'
      done;
    for l = 0 to nr - 1 do
      let src = (r0 + l) * cols in
      for c = 0 to cols - 1 do
        let v = Array.unsafe_get x (src + c) in
        let o = xt_base + (c * vb) + (2 * l) in
        Bytes.unsafe_set xt o (Char.unsafe_chr (v land 0xff));
        Bytes.unsafe_set xt (o + 1) (Char.unsafe_chr ((v asr 8) land 0xff))
      done
    done;
    Machine.run m p1;
    let sums = Machine.read_i32_array m ~addr:sum_base ~len:vb in
    Array.fill meanv 0 rows_g 0;
    Array.fill nmv 0 (2 * q) 0;
    for l = 0 to nr - 1 do
      let mean, nm =
        layer_norm_multiplier ~scale ~out_scale ~cols ~sum:sums.(l)
          ~sumsq:sums.(rows_g + l)
      in
      meanv.(l) <- mean;
      nmv.(l) <- nm
    done;
    Machine.write_i16_array m ~addr:aff_base meanv;
    Machine.write_i32_array m ~addr:(aff_base + vb) nmv;
    Machine.run m p2;
    for l = 0 to nr - 1 do
      let dst = (r0 + l) * cols in
      for c = 0 to cols - 1 do
        Array.unsafe_set out (dst + c) (Bytes.get_int8 ob (out_base + (c * vb) + l))
      done
    done
  done;
  (out, (Machine.counters m).Machine.cycles)
