(** Elementwise kernels: binary add/sub/mul and unary table-lookup
    operators (activations, [Pow], reciprocal for the division-to-lookup
    optimization).

    These kernels are layout-oblivious: both operands and the result use
    the same layout, so the kernel simply streams the padded buffers
    vector by vector — which is exactly why elementwise operators give the
    global layout optimizer freedom (any layout works, only neighbours'
    transform costs matter, paper Section IV-A).

    Operand rescaling (bringing both int8 inputs to the output scale
    before an add/sub) is a unary int8->int8 map and therefore a [Vlut];
    when an operand already has the output scale the lookup is skipped. *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer
module Desc = Gcd2_devices.Desc

type binary = Badd | Bsub | Bmul

type spec = {
  device : Desc.t;  (** target device (vector width, slots, latencies) *)
  vectors : int;  (** vectors to process (padded buffer size / vector bytes) *)
  uv : int;  (** vector unroll *)
  strategy : Packer.strategy;
  rescale_a : int option;  (** table id rescaling operand A into the output scale *)
  rescale_b : int option;  (** likewise for B (already negated for [Bsub]) *)
  act_table : int option;
  mult : int;  (** requantization multiplier, [Bmul] only *)
  shift : int;
}

type buffers = { a_base : int; b_base : int; out_base : int }

let validate s =
  if s.vectors <= 0 then invalid_arg "Eltwise: no data";
  if s.uv <= 0 || s.uv > 4 then invalid_arg "Eltwise: bad unroll"

(* Emit the body for [count] vectors starting at pointer offset 0;
   pointers advance by [count] vectors' worth of bytes at the end. *)
let binary_body op s ~ra ~rb ~ro ~regs count =
  let e = Emit.create () in
  let vbytes = s.device.Desc.vector_bytes in
  let va, vb, tmp, acc_e, acc_o, pk, outv = regs in
  for d = 0 to count - 1 do
    let off = d * vbytes in
    Emit.vload e va ra off;
    Emit.vload e vb rb off;
    (match s.rescale_a with Some id -> Emit.vlut e va va id | None -> ());
    (match s.rescale_b with Some id -> Emit.vlut e vb vb id | None -> ());
    (match op with
    | Badd | Bsub ->
      (* subtraction is an add of the negated-rescale of B; when B needs no
         rescale we use the true vector subtract *)
      let vop = if op = Bsub && s.rescale_b = None then Instr.Vsub else Instr.Vadd in
      Emit.emit e (Instr.Valu (vop, Instr.W8, outv, va, vb));
      (match s.act_table with Some id -> Emit.vlut e outv outv id | None -> ());
      Emit.vstore e ro off outv
    | Bmul ->
      Emit.vzero e tmp;
      Emit.vzero e acc_e;
      Emit.vzero e acc_o;
      Emit.vmul e tmp va vb;
      let t_lo, t_hi = Regs.halves tmp in
      Emit.vaddw e acc_e t_lo;
      Emit.vaddw e acc_o t_hi;
      let sc = (s.mult, s.shift) in
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
      (match s.act_table with Some id -> Emit.vlut e outv outv id | None -> ());
      Emit.vstore e ro off outv)
  done;
  Emit.bump e ra (count * vbytes);
  Emit.bump e rb (count * vbytes);
  Emit.bump e ro (count * vbytes);
  Emit.block ~desc:s.device ~strategy:s.strategy e

(* Uncached emission, the body of both [binary] and [binary_cycles]. *)
let emit_binary ~tables op s (b : buffers) =
  Gcd2_util.Trace.in_span "eltwise-emit" @@ fun () ->
  validate s;
  let pool = Regs.create ~desc:s.device () in
  let ra = Regs.scalar pool and rb = Regs.scalar pool and ro = Regs.scalar pool in
  let va = Regs.vector pool and vb = Regs.vector pool in
  let tmp = Regs.pair pool and acc_e = Regs.pair pool and acc_o = Regs.pair pool in
  let pk = Regs.pair pool in
  let outv = Regs.vector pool in
  let regs = (va, vb, tmp, acc_e, acc_o, pk, outv) in
  let init =
    let e = Emit.create () in
    Emit.movi e ra b.a_base;
    Emit.movi e rb b.b_base;
    Emit.movi e ro b.out_base;
    Emit.block ~desc:s.device ~strategy:s.strategy e
  in
  let full = s.vectors / s.uv and rest = s.vectors mod s.uv in
  let nodes =
    [ init ]
    @ (if full > 0 then
         [ Emit.loop ~trip:full [ binary_body op s ~ra ~rb ~ro ~regs s.uv ] ]
       else [])
    @ if rest > 0 then [ binary_body op s ~ra ~rb ~ro ~regs rest ] else []
  in
  let name =
    match op with Badd -> "eltwise_add" | Bsub -> "eltwise_sub" | Bmul -> "eltwise_mul"
  in
  Program.make ~tables name nodes

let emit_unary ~tables ~table s ~in_base ~out_base =
  Gcd2_util.Trace.in_span "eltwise-emit" @@ fun () ->
  validate s;
  let vbytes = s.device.Desc.vector_bytes in
  let pool = Regs.create ~desc:s.device () in
  let ra = Regs.scalar pool and ro = Regs.scalar pool in
  let va = Regs.vector pool in
  let body count =
    let e = Emit.create () in
    for d = 0 to count - 1 do
      Emit.vload e va ra (d * vbytes);
      Emit.vlut e va va table;
      Emit.vstore e ro (d * vbytes) va
    done;
    Emit.bump e ra (count * vbytes);
    Emit.bump e ro (count * vbytes);
    Emit.block ~desc:s.device ~strategy:s.strategy e
  in
  let init =
    let e = Emit.create () in
    Emit.movi e ra in_base;
    Emit.movi e ro out_base;
    Emit.block ~desc:s.device ~strategy:s.strategy e
  in
  let full = s.vectors / s.uv and rest = s.vectors mod s.uv in
  let nodes =
    [ init ]
    @ (if full > 0 then [ Emit.loop ~trip:full [ body s.uv ] ] else [])
    @ if rest > 0 then [ body rest ] else []
  in
  Program.make ~tables "eltwise_unary" nodes

(* Materialized kernels, keyed by every argument that reaches the
   emitter (see {!Matmul.generate}): each inference's elementwise nodes
   run the programs the previous one decoded. *)
let binary_memo :
    (binary * spec * (int * int array) list * buffers, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "eltwise-binary"

let unary_memo :
    (spec * (int * int array) list * int * int * int, Program.t) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "eltwise-unary"

(** Generate a binary elementwise kernel (memoized). *)
let binary ?(tables = []) op s b =
  Gcd2_util.Memo.find_or_add binary_memo (op, s, tables, b) (fun () ->
      emit_binary ~tables op s b)

(** Generate a unary lookup kernel ([table] maps input bytes to output
    bytes): activations, [Pow], reciprocal, requantize (memoized). *)
let unary ?(tables = []) ~table s ~in_base ~out_base =
  Gcd2_util.Memo.find_or_add unary_memo (s, tables, table, in_base, out_base) (fun () ->
      emit_unary ~tables ~table s ~in_base ~out_base)

(* Costing reads a count from an uncached emission: the candidates it
   visits never become programs anything retains. *)
let binary_cycles op s =
  Program.static_cycles ~desc:s.device
    (emit_binary ~tables:[] op s { a_base = 0; b_base = 4096; out_base = 8192 })

let unary_cycles s =
  Program.static_cycles ~desc:s.device
    (emit_unary ~tables:[] ~table:0 s ~in_base:0 ~out_base:0)

let default_spec ?(strategy = Packer.sda) ?(device = Desc.hexagon698) ~vectors () =
  {
    device;
    vectors;
    uv = 2;
    strategy;
    rescale_a = None;
    rescale_b = None;
    act_table = None;
    mult = 1 lsl 30;
    shift = 30;
  }
