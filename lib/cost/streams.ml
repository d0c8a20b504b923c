(** Cost streams: representative generated-and-packed instruction
    sequences for operators that the runtime stages host-side (depthwise
    convolution taps, pooling windows, reductions).  Only their cycle
    counts are consumed — the register/class mix is what matters, since
    the packer and the latency model turn it into time. *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer
module Emit = Gcd2_codegen.Emit
module Eltwise = Gcd2_codegen.Eltwise
module Regs = Gcd2_codegen.Regs
module Desc = Gcd2_devices.Desc

(** Elementwise vector-unroll policy: pin [uv] (the historical value is
    2) or cost the candidate unrolls and take the cheapest.  Part of
    {!Gcd2_cost.Opcost.options} and of the request fingerprint. *)
type uv_choice = [ `Fixed of int | `Costed ]

let pp_uv_choice ppf = function
  | `Fixed u -> Fmt.pf ppf "fixed:%d" u
  | `Costed -> Fmt.string ppf "costed"

(* The unrolls [`Costed] sweeps ({!Eltwise.validate} accepts 1..4). *)
let uv_candidates = [ 1; 2; 3; 4 ]

(* Each costing below is memoized (Gcd2_util.Memo) on the complete set of
   parameters that reach the emitter — the memo key IS the argument
   tuple.  A new parameter to any [*_cycles] must be added to that
   table's key tuple, or distinct streams will alias one cached count.
   The device descriptor leads every key: two devices must never share a
   cached count (vector width and latencies both flow into it). *)
let unary_memo : (Desc.t * Packer.strategy * int * int, float) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "stream-unary"

let binary_memo :
    (Desc.t * Packer.strategy * Eltwise.binary * int * int, float) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "stream-binary"

let dwconv_memo : (Desc.t * Packer.strategy * int * int, float) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "stream-dwconv"

let pool_memo : (Desc.t * Packer.strategy * int * int, float) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "stream-pool"

(* Cost one unary pass at a pinned unroll. *)
let unary_cycles_at ~device ~strategy ~vectors uv =
  Gcd2_util.Memo.find_or_add unary_memo (device, strategy, uv, vectors) (fun () ->
      let s = { (Eltwise.default_spec ~strategy ~device ~vectors ()) with Eltwise.uv = uv } in
      float_of_int (Eltwise.unary_cycles s))

let binary_cycles_at ~device ~strategy ~op ~vectors uv =
  Gcd2_util.Memo.find_or_add binary_memo (device, strategy, op, uv, vectors) (fun () ->
      let s = { (Eltwise.default_spec ~strategy ~device ~vectors ()) with Eltwise.uv = uv } in
      float_of_int (Eltwise.binary_cycles op s))

(* Deterministic argmin over the candidate unrolls: strict improvement
   only, so ties resolve to the smallest uv. *)
let argmin_uv cost =
  List.fold_left
    (fun (bu, bc) u ->
      let c = cost u in
      if c < bc then (u, c) else (bu, bc))
    (List.hd uv_candidates, cost (List.hd uv_candidates))
    (List.tl uv_candidates)

(** The vector unroll a {!uv_choice} resolves to for a unary pass over
    [vectors] — what the runtime executes with, so execution and costing
    agree (outputs are unroll-independent either way). *)
let unary_uv ?(uv = `Fixed 2) ~device ~strategy ~vectors () =
  match uv with
  | `Fixed u -> u
  | `Costed ->
    if vectors <= 0 then 2
    else fst (argmin_uv (unary_cycles_at ~device ~strategy ~vectors))

(** Likewise for a binary pass. *)
let binary_uv ?(uv = `Fixed 2) ~device ~strategy ~op ~vectors () =
  match uv with
  | `Fixed u -> u
  | `Costed ->
    if vectors <= 0 then 2
    else fst (argmin_uv (binary_cycles_at ~device ~strategy ~op ~vectors))

(** Cycles of a unary pass (load, table lookup, store) over [vectors]
    device-width vectors.  [uv] defaults to the historical pinned unroll
    of 2; [`Costed] sweeps {!uv_candidates} (memoized per unroll) and
    takes the cheapest. *)
let unary_cycles ~uv ~device ~strategy ~vectors =
  if vectors <= 0 then 0.0
  else
    match uv with
    | `Fixed u -> unary_cycles_at ~device ~strategy ~vectors u
    | `Costed -> snd (argmin_uv (unary_cycles_at ~device ~strategy ~vectors))

(** Cycles of a binary elementwise pass ([uv] as in {!unary_cycles}). *)
let binary_cycles ~uv ~device ~strategy ~op ~vectors =
  if vectors <= 0 then 0.0
  else
    match uv with
    | `Fixed u -> binary_cycles_at ~device ~strategy ~op ~vectors u
    | `Costed -> snd (argmin_uv (binary_cycles_at ~device ~strategy ~op ~vectors))

(** Depthwise convolution stream: per output vector, one shifted load and
    one cyclic multiply per tap, a 16->32 drain every other tap, and the
    requantize/store epilogue.  Weight words are loaded once per tap per
    panel, amortized across the pixel dimension. *)
let dwconv_cycles ~device ~strategy ~vectors ~taps =
  if vectors <= 0 then 0.0
  else
    Gcd2_util.Memo.find_or_add dwconv_memo (device, strategy, vectors, taps) @@ fun () ->
    let vb = device.Desc.vector_bytes in
    let pool = Regs.create ~desc:device () in
    let ra = Regs.scalar pool and ro = Regs.scalar pool and rw = Regs.scalar pool in
    let rwv = [| Regs.scalar pool; Regs.scalar pool |] in
    let va = [| Regs.vector pool; Regs.vector pool |] in
    let tmp = Regs.pair pool and acc_e = Regs.pair pool and acc_o = Regs.pair pool in
    let pk = Regs.pair pool in
    let outv = Regs.vector pool in
    let e = Emit.create () in
    Emit.vzero e tmp;
    Emit.vzero e acc_e;
    Emit.vzero e acc_o;
    for t = 0 to taps - 1 do
      Emit.sload e rwv.(t mod 2) rw (t * 4);
      Emit.vload e va.(t mod 2) ra (t * vb);
      Emit.vmpy e tmp va.(t mod 2) rwv.(t mod 2);
      if t mod 2 = 1 || t = taps - 1 then begin
        let t_lo, t_hi = Regs.halves tmp in
        Emit.vaddw e acc_e t_lo;
        Emit.vaddw e acc_o t_hi;
        Emit.vzero e tmp
      end
    done;
    let sc = (1 lsl 30, 30) in
    let e_lo, e_hi = Regs.halves acc_e and o_lo, o_hi = Regs.halves acc_o in
    Emit.vscale e e_lo e_lo sc;
    Emit.vscale e e_hi e_hi sc;
    Emit.vscale e o_lo o_lo sc;
    Emit.vscale e o_hi o_hi sc;
    let pk_lo, pk_hi = Regs.halves pk in
    Emit.vpack e pk_lo acc_e Instr.W32;
    Emit.vpack e pk_hi acc_o Instr.W32;
    Emit.vshuff e tmp pk Instr.W16;
    Emit.vpack e outv tmp Instr.W16;
    Emit.vstore e ro 0 outv;
    Emit.bump e ra vb;
    Emit.bump e ro vb;
    let body = Emit.block ~desc:device ~strategy e in
    let prog = Program.make "dwconv_stream" [ Emit.loop ~trip:vectors [ body ] ] in
    float_of_int (Program.static_cycles ~desc:device prog)

(** Pooling stream: per output vector, one load and one lane-wise
    max/average per window position. *)
let pool_cycles ~device ~strategy ~vectors ~window =
  if vectors <= 0 then 0.0
  else
    Gcd2_util.Memo.find_or_add pool_memo (device, strategy, vectors, window) @@ fun () ->
    let vb = device.Desc.vector_bytes in
    let pool = Regs.create ~desc:device () in
    let ra = Regs.scalar pool and ro = Regs.scalar pool in
    let acc = Regs.vector pool in
    let va = [| Regs.vector pool; Regs.vector pool |] in
    let e = Emit.create () in
    Emit.vload e acc ra 0;
    for t = 1 to window - 1 do
      Emit.vload e va.(t mod 2) ra (t * vb);
      Emit.emit e (Instr.Valu (Instr.Vmax, Instr.W8, acc, acc, va.(t mod 2)))
    done;
    Emit.vstore e ro 0 acc;
    Emit.bump e ra vb;
    Emit.bump e ro vb;
    let body = Emit.block ~desc:device ~strategy e in
    let prog = Program.make "pool_stream" [ Emit.loop ~trip:vectors [ body ] ] in
    float_of_int (Program.static_cycles ~desc:device prog)

(** Pure data-movement cost in cycles (layout repacking, transpose,
    concat, padding): one load, one permute and one store per vector,
    about two operations per packet once scheduled. *)
let copy_cycles ~vectors = 6.0 *. float_of_int vectors
