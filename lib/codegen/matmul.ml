(** Matmul kernel generators — one per SIMD choice (paper Figure 2).

    Each generator lowers C = A (MxK) * W (KxN) with int8 operands, int32
    accumulation, fixed-point requantization and optional fused activation
    into a loop-tree of VLIW packets.  A and C live in the SIMD choice's
    layout ({!Simd.layout}); W is prepacked by {!Weights}.

    Loop structure (all three kernels):
    {v
      for tile of [un] output columns:        (weights held in scalar regs)
        for panel of rows:                    (panel height = layout's)
          zero accumulators
          for k-group:                        ([ug] groups unrolled)
            load activation vector(s), load weight words, multiply
          requantize + permute + store the output vectors
    v}

    The reduction ("Mid") unroll [ug] and the output-column ("Out") unroll
    [un] are the two factors of the paper's Figure 12. *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer
module Stats = Gcd2_util.Stats
module Desc = Gcd2_devices.Desc

type addressing =
  | Bump  (** pointer increments folded into immediates (GCD2's codegen) *)
  | Recompute
      (** every memory access recomputes its address through the scalar
          unit — the generic loop-nest lowering of compilers that do not
          specialize addressing to the layout *)

(* [spec] is the memo key of [cycles] and leads that of [generate]
   (Gcd2_util.Memo): it must stay pure data and keep determining the
   emitted loop nest completely — a new field that changes generation
   enters the keys automatically *because* the whole record is in them;
   never memoize on a projection of it. *)
type spec = {
  device : Desc.t;  (** target device (vector width, slots, latencies) *)
  simd : Simd.t;
  m : int;
  k : int;
  n : int;
  mult : int;  (** requantization fixed-point multiplier *)
  shift : int;  (** requantization shift *)
  act_table : int option;  (** table id of a fused-activation [Vlut] *)
  strategy : Packer.strategy;
  un : int;  (** output-column unroll *)
  ug : int;  (** reduction k-group unroll *)
  abuf : int;  (** activation-register rotation depth (historically 2) *)
  wbuf : int;  (** weight-register rotation depth per column (historically 2) *)
  addressing : addressing;
}

type buffers = { a_base : int; w_base : int; c_base : int }

(** Registers-per-column requirements limit the column unroll. *)
let max_un = function Simd.I_vmpy -> 4 | Simd.I_vmpa -> 4 | Simd.I_vrmpy -> 8

(** Deepest reduction unroll the generators accept.  The shape-driven
    heuristics stay within the paper's scheduler window of 4
    ({!Unroll.clamp_ug}); the autotuner may go deeper. *)
let max_ug = 8

(** Deepest register-rotation the generators accept for either operand
    stream.  Depth 2 is the historical double-buffer; deeper rotation
    lengthens the reuse distance the packer must respect, shallower
    (depth 1) serializes every load against the previous use. *)
let max_rot = 4

(* Unroll values must respect the output-column grouping so that a tile
   always produces whole output vectors. *)
let group_of simd = Gcd2_tensor.Layout.column_group (Simd.layout simd)

let validate_spec s =
  if s.m <= 0 || s.k <= 0 || s.n <= 0 then invalid_arg "Matmul: dimensions must be positive";
  if s.un <= 0 || s.un > max_un s.simd then invalid_arg "Matmul: bad column unroll";
  if s.un mod group_of s.simd <> 0 then invalid_arg "Matmul: unroll must cover whole groups";
  if s.ug <= 0 || s.ug > max_ug then invalid_arg "Matmul: bad k unroll";
  if s.abuf <= 0 || s.abuf > max_rot then invalid_arg "Matmul: bad activation rotation";
  if s.wbuf <= 0 || s.wbuf > max_rot then invalid_arg "Matmul: bad weight rotation"

(* Register demand of one kernel instantiation, mirroring the allocation
   order of the generators below exactly (including the even alignment a
   vector pair forces).  Any register the generators claim must be
   counted here — the qcheck suite cross-checks this against actual
   generation, so the two cannot drift silently. *)
let reg_demand ?(per_channel = false) s =
  let scalars =
    2 (* ra, r_out *) + s.un (* rw *)
    + (s.un * s.wbuf) (* rwv *)
    + (match s.addressing with Bump -> 0 | Recompute -> 2)
    + if per_channel then 1 else 0
  in
  let pair_align n = n + (n mod 2) in
  let vectors =
    match s.simd with
    | Simd.I_vmpy ->
      (* va singles, then pairs (pk + 3 per column), outv, pc.vq *)
      pair_align s.abuf + 2 + (6 * s.un) + 1 + if per_channel then 1 else 0
    | Simd.I_vmpa ->
      (* va is abuf pairs *)
      (2 * s.abuf) + 2 + (6 * s.un) + 1 + if per_channel then 1 else 0
    | Simd.I_vrmpy ->
      (* va singles, acc pairs (un/2), the pack pair, outv, pc.vq/vq2 *)
      pair_align s.abuf + s.un + 2 + 1 + if per_channel then 2 else 0
  in
  (scalars, vectors)

(** Does the spec's register demand fit the device's register files?
    The unroll heuristics stay inside by construction; the autotuner's
    deeper rotations and unrolls must check. *)
let fits_registers ?per_channel s =
  let scalars, vectors = reg_demand ?per_channel s in
  scalars <= s.device.Desc.scalar_count && vectors <= s.device.Desc.vector_count

(* ------------------------------------------------------------------ *)
(* Common generator skeleton                                           *)

(* Per-simd parameters wired into the skeleton. *)
type kernel_shape = {
  panel : int;  (** rows per panel *)
  k_per_group : int;  (** reduction columns consumed per k-group *)
  group_bytes : int;  (** activation bytes consumed per k-group *)
}

(* Panel height is one vector load's worth of rows; a k-group always
   spans 4 reduction columns, so its activation footprint is the panel
   times 4 columns — [vector_bytes]-proportional throughout (the default
   128-byte device gives the paper's 512/256/128). *)
let shape_of (d : Desc.t) simd =
  let vb = d.Desc.vector_bytes in
  match simd with
  | Simd.I_vmpy -> { panel = vb; k_per_group = 4; group_bytes = 4 * vb }
  | Simd.I_vmpa -> { panel = vb / 2; k_per_group = 4; group_bytes = 2 * vb }
  | Simd.I_vrmpy -> { panel = vb / 4; k_per_group = 4; group_bytes = vb }

(* Address scratch registers for the Recompute mode (round-robin pair so
   consecutive loads keep some ILP). *)
type addr_regs = { scratch : Reg.t array; mutable next : int }

(* Per-channel requantization state: a pointer into the prepacked
   multiplier-vector buffer, vector registers holding the current
   multiplier vectors, and the common shift. *)
type pc_info = {
  r_q : Reg.t;
  mutable vq : Reg.t;  (* allocated after the kernel's accumulators *)
  mutable vq2 : Reg.t option;
  q_shift : int;
}

(* State threaded through one kernel instantiation. *)
type ctx = {
  s : spec;
  ks : kernel_shape;
  kp : int;  (** padded K *)
  np : int;  (** padded N *)
  panels : int;
  groups : int;  (** total k-groups = kp / k_per_group *)
  w_stride : int;  (** weight bytes per output column *)
  ra : Reg.t;
  r_out : Reg.t;
  rw : Reg.t array;  (** one weight pointer per unrolled column *)
  rwv : Reg.t array array;  (** weight value regs, [column].(group mod wbuf) *)
  addr : addr_regs option;
  pc : pc_info option;  (** per-channel requantization, when enabled *)
  q_base : int;
}

(* Emit a scalar or vector load; under Recompute addressing, materialize
   the effective address through the scalar ALU first. *)
let emit_load ctx e kind dst base offset =
  let do_load base offset =
    match kind with
    | `Vector -> Emit.vload e dst base offset
    | `Scalar -> Emit.sload e dst base offset
  in
  match ctx.addr with
  | None -> do_load base offset
  | Some a ->
    (* affine index arithmetic: scale the index, add the base *)
    let r = a.scratch.(a.next) in
    a.next <- (a.next + 1) mod Array.length a.scratch;
    Emit.emit e (Gcd2_isa.Instr.Smul (r, base, Gcd2_isa.Instr.Imm 1));
    Emit.addi e r r offset;
    do_load r 0

let make_ctx s =
  validate_spec s;
  let ks = shape_of s.device s.simd in
  let kp, np = Weights.padded_kn s.simd ~k:s.k ~n:s.n in
  let mp = Stats.round_up s.m ks.panel in
  {
    s;
    ks;
    kp;
    np;
    panels = mp / ks.panel;
    groups = kp / ks.k_per_group;
    w_stride = Weights.column_stride s.simd ~k:s.k;
    ra = Reg.R 0 (* placeholders, replaced below *);
    r_out = Reg.R 0;
    rw = [||];
    rwv = [||];
    addr = None;
    pc = None;
    q_base = 0;
  }

let with_regs ?per_channel ?(q_base = 0) ctx pool ~ra ~r_out ~rw ~rwv =
  let addr =
    match ctx.s.addressing with
    | Bump -> None
    | Recompute -> Some { scratch = [| Regs.scalar pool; Regs.scalar pool |]; next = 0 }
  in
  let pc =
    match per_channel with
    | None -> None
    | Some (_, q_shift) ->
      (* the multiplier vectors are allocated by [alloc_pc_vectors] after
         the kernel claims its accumulators, to avoid pair-alignment waste *)
      Some { r_q = Regs.scalar pool; vq = Reg.V 0; vq2 = None; q_shift }
  in
  { ctx with ra; r_out; rw; rwv; addr; pc; q_base }

(* Claim the per-channel multiplier vector registers (call once all other
   vector registers are allocated). *)
let alloc_pc_vectors ctx pool =
  match ctx.pc with
  | None -> ()
  | Some pc ->
    pc.vq <- Regs.vector pool;
    if ctx.s.simd = Simd.I_vrmpy then pc.vq2 <- Some (Regs.vector pool)

(* ------------------------------------------------------------------ *)
(* vmpy (1-column layout)                                              *)

(* Column-j accumulator set for vmpy/vmpa: a 16-bit scratch pair and two
   32-bit pairs (even/odd lanes or k-even/k-odd partials). *)
type wide_accs = { tmp : Reg.t; acc_e : Reg.t; acc_o : Reg.t }

(* Scale a list of 32-bit vector halves belonging to output column [j]
   (tile-relative): uniform immediates, or a per-channel multiplier vector
   loaded from the prepacked buffer. *)
let emit_scale_column e ctx ~j halves =
  match ctx.pc with
  | None ->
    let sc = (ctx.s.mult, ctx.s.shift) in
    List.iter (fun h -> Emit.vscale e h h sc) halves
  | Some pc ->
    let vb = ctx.s.device.Desc.vector_bytes in
    Emit.vload e pc.vq pc.r_q (j * vb);
    List.iter (fun h -> Emit.emit e (Instr.Vscalev (h, h, pc.vq, pc.q_shift))) halves

let emit_requant_store_wide e ctx ~j ~pk ~outv ~accs ~store_offset =
  (* Shared by vmpy and vmpa: both end with two 32-bit pairs whose packed
     halves interleave (W16) into the final output vector; all lanes
     belong to one output column. *)
  let e_lo, e_hi = Regs.halves accs.acc_e and o_lo, o_hi = Regs.halves accs.acc_o in
  emit_scale_column e ctx ~j [ e_lo; e_hi; o_lo; o_hi ];
  let pk_lo, pk_hi = Regs.halves pk in
  Emit.vpack e pk_lo accs.acc_e Instr.W32;
  Emit.vpack e pk_hi accs.acc_o Instr.W32;
  Emit.vshuff e accs.tmp pk Instr.W16;
  Emit.vpack e outv accs.tmp Instr.W16;
  (match ctx.s.act_table with Some id -> Emit.vlut e outv outv id | None -> ());
  Emit.vstore e ctx.r_out store_offset outv

let generate_vmpy ?per_channel ?q_base ctx (b : buffers) =
  let s = ctx.s in
  let desc = s.device in
  let vb = desc.Desc.vector_bytes in
  let pool = Regs.create ~desc () in
  let ra = Regs.scalar pool and r_out = Regs.scalar pool in
  let rw = Array.init s.un (fun _ -> Regs.scalar pool) in
  let rwv = Array.init s.un (fun _ -> Array.init s.wbuf (fun _ -> Regs.scalar pool)) in
  let ctx = with_regs ?per_channel ?q_base ctx pool ~ra ~r_out ~rw ~rwv in
  let va = Array.init s.abuf (fun _ -> Regs.vector pool) in
  let pk = Regs.pair pool in
  let accs =
    Array.init s.un (fun _ ->
        { tmp = Regs.pair pool; acc_e = Regs.pair pool; acc_o = Regs.pair pool })
  in
  let outv = Regs.vector pool in
  alloc_pc_vectors ctx pool;
  let strategy = s.strategy in
  (* One k-group = 4 reduction steps sharing a single weight word per
     column ([Vmpyb] selects the byte); the 16-bit scratch drains into the
     32-bit accumulators every 2 steps (two int8 products fit in 16 bits
     without saturating). *)
  let emit_group e g_idx =
    for j = 0 to s.un - 1 do
      emit_load ctx e `Scalar ctx.rwv.(j).(g_idx mod s.wbuf) ctx.rw.(j) (g_idx * 4)
    done;
    for half = 0 to 1 do
      for d = 0 to 1 do
        let sel = (2 * half) + d in
        let step = (4 * g_idx) + sel in
        emit_load ctx e `Vector va.(step mod s.abuf) ctx.ra (step * vb);
        for j = 0 to s.un - 1 do
          Emit.emit e
            (Instr.Vmpyb
               (accs.(j).tmp, va.(step mod s.abuf), ctx.rwv.(j).(g_idx mod s.wbuf), sel))
        done
      done;
      for j = 0 to s.un - 1 do
        let t_lo, t_hi = Regs.halves accs.(j).tmp in
        Emit.vaddw e accs.(j).acc_e t_lo;
        Emit.vaddw e accs.(j).acc_o t_hi;
        Emit.vzero e accs.(j).tmp
      done
    done
  in
  let k_block n_groups =
    let e = Emit.create () in
    for g = 0 to n_groups - 1 do
      emit_group e g
    done;
    Emit.bump e ctx.ra (n_groups * ctx.ks.group_bytes);
    Array.iter (fun r -> Emit.bump e r (n_groups * 4)) ctx.rw;
    Emit.block ~desc ~strategy e
  in
  let zero_block width =
    let e = Emit.create () in
    for j = 0 to width - 1 do
      Emit.vzero e accs.(j).tmp;
      Emit.vzero e accs.(j).acc_e;
      Emit.vzero e accs.(j).acc_o
    done;
    Emit.block ~desc ~strategy e
  in
  let epilogue_block width =
    let e = Emit.create () in
    for j = 0 to width - 1 do
      emit_requant_store_wide e ctx ~j ~pk ~outv ~accs:accs.(j) ~store_offset:(j * vb)
    done;
    (* next panel: weights restart, output advances one panel row-stride *)
    Array.iter (fun r -> Emit.bump e r (- (4 * ctx.groups))) ctx.rw;
    Emit.bump e ctx.r_out (ctx.ks.panel * ctx.np);
    Emit.block ~desc ~strategy e
  in
  let panel_loop width =
    let full = ctx.groups / s.ug and rest = ctx.groups mod s.ug in
    let body =
      [ zero_block width ]
      @ (if full > 0 then [ Emit.loop ~trip:full [ k_block s.ug ] ] else [])
      @ (if rest > 0 then [ k_block rest ] else [])
      @ [ epilogue_block width ]
    in
    Emit.loop ~trip:ctx.panels body
  in
  let tile_bumps width =
    let e = Emit.create () in
    Emit.bump e ctx.ra (-ctx.ks.panel * ctx.kp * ctx.panels);
    Array.iter (fun r -> Emit.bump e r (width * ctx.w_stride)) ctx.rw;
    Emit.bump e ctx.r_out ((width * vb) - (ctx.ks.panel * ctx.np * ctx.panels));
    (match ctx.pc with Some pc -> Emit.bump e pc.r_q (width * vb) | None -> ());
    Emit.block ~desc ~strategy e
  in
  let init =
    let e = Emit.create () in
    Emit.movi e ctx.ra b.a_base;
    Emit.movi e ctx.r_out b.c_base;
    Array.iteri (fun j r -> Emit.movi e r (b.w_base + (j * ctx.w_stride))) ctx.rw;
    (match ctx.pc with Some pc -> Emit.movi e pc.r_q ctx.q_base | None -> ());
    Emit.block ~desc ~strategy e
  in
  let full_tiles = ctx.np / s.un and rem = ctx.np mod s.un in
  let segments =
    (if full_tiles > 0 then
       [ Emit.loop ~trip:full_tiles [ panel_loop s.un; tile_bumps s.un ] ]
     else [])
    @ if rem > 0 then [ panel_loop rem; tile_bumps rem ] else []
  in
  (init :: segments, pool)

(* ------------------------------------------------------------------ *)
(* vmpa (2-column layout)                                              *)

let generate_vmpa ?per_channel ?q_base ctx (b : buffers) =
  let s = ctx.s in
  let desc = s.device in
  let vb = desc.Desc.vector_bytes in
  let pool = Regs.create ~desc () in
  let ra = Regs.scalar pool and r_out = Regs.scalar pool in
  let rw = Array.init s.un (fun _ -> Regs.scalar pool) in
  let rwv = Array.init s.un (fun _ -> Array.init s.wbuf (fun _ -> Regs.scalar pool)) in
  let ctx = with_regs ?per_channel ?q_base ctx pool ~ra ~r_out ~rw ~rwv in
  let va = Array.init s.abuf (fun _ -> Regs.pair pool) in
  let pk = Regs.pair pool in
  let accs =
    Array.init s.un (fun _ ->
        { tmp = Regs.pair pool; acc_e = Regs.pair pool; acc_o = Regs.pair pool })
  in
  let outv = Regs.vector pool in
  alloc_pc_vectors ctx pool;
  let strategy = s.strategy in
  let emit_group e g =
    let vp = va.(g mod s.abuf) in
    let v_lo, v_hi = Regs.halves vp in
    emit_load ctx e `Vector v_lo ctx.ra (g * ctx.ks.group_bytes);
    emit_load ctx e `Vector v_hi ctx.ra ((g * ctx.ks.group_bytes) + vb);
    for j = 0 to s.un - 1 do
      emit_load ctx e `Scalar ctx.rwv.(j).(g mod s.wbuf) ctx.rw.(j) (g * 4);
      Emit.vmpa e accs.(j).tmp vp ctx.rwv.(j).(g mod s.wbuf);
      let t_lo, t_hi = Regs.halves accs.(j).tmp in
      Emit.vaddw e accs.(j).acc_e t_lo;
      Emit.vaddw e accs.(j).acc_o t_hi;
      Emit.vzero e accs.(j).tmp
    done
  in
  let k_block n_groups =
    let e = Emit.create () in
    for g = 0 to n_groups - 1 do
      emit_group e g
    done;
    Emit.bump e ctx.ra (n_groups * ctx.ks.group_bytes);
    Array.iter (fun r -> Emit.bump e r (n_groups * 4)) ctx.rw;
    Emit.block ~desc ~strategy e
  in
  let zero_block width =
    let e = Emit.create () in
    for j = 0 to width - 1 do
      Emit.vzero e accs.(j).tmp;
      Emit.vzero e accs.(j).acc_e;
      Emit.vzero e accs.(j).acc_o
    done;
    Emit.block ~desc ~strategy e
  in
  let epilogue_block width =
    let e = Emit.create () in
    (* merge k-even/k-odd partials, then interleave column pairs *)
    for jp = 0 to (width / 2) - 1 do
      let a0 = accs.(2 * jp) and a1 = accs.((2 * jp) + 1) in
      Emit.vadd e ~width:Instr.W32 a0.acc_e a0.acc_e a0.acc_o;
      Emit.vadd e ~width:Instr.W32 a1.acc_e a1.acc_e a1.acc_o;
      let lo0, hi0 = Regs.halves a0.acc_e and lo1, hi1 = Regs.halves a1.acc_e in
      emit_scale_column e ctx ~j:(2 * jp) [ lo0; hi0 ];
      emit_scale_column e ctx ~j:((2 * jp) + 1) [ lo1; hi1 ];
      let pk_lo, pk_hi = Regs.halves pk in
      Emit.vpack e pk_lo a0.acc_e Instr.W32;
      Emit.vpack e pk_hi a1.acc_e Instr.W32;
      Emit.vshuff e a0.tmp pk Instr.W16;
      Emit.vpack e outv a0.tmp Instr.W16;
      (match s.act_table with Some id -> Emit.vlut e outv outv id | None -> ());
      Emit.vstore e ctx.r_out (jp * vb) outv
    done;
    Array.iter (fun r -> Emit.bump e r (- (4 * ctx.groups))) ctx.rw;
    Emit.bump e ctx.r_out (ctx.ks.panel * ctx.np);
    Emit.block ~desc ~strategy e
  in
  let panel_loop width =
    let full = ctx.groups / s.ug and rest = ctx.groups mod s.ug in
    let body =
      [ zero_block width ]
      @ (if full > 0 then [ Emit.loop ~trip:full [ k_block s.ug ] ] else [])
      @ (if rest > 0 then [ k_block rest ] else [])
      @ [ epilogue_block width ]
    in
    Emit.loop ~trip:ctx.panels body
  in
  let tile_bumps width =
    let e = Emit.create () in
    Emit.bump e ctx.ra (-ctx.ks.panel * ctx.kp * ctx.panels);
    Array.iter (fun r -> Emit.bump e r (width * ctx.w_stride)) ctx.rw;
    Emit.bump e ctx.r_out ((width / 2 * vb) - (ctx.ks.panel * ctx.np * ctx.panels));
    (match ctx.pc with Some pc -> Emit.bump e pc.r_q (width * vb) | None -> ());
    Emit.block ~desc ~strategy e
  in
  let init =
    let e = Emit.create () in
    Emit.movi e ctx.ra b.a_base;
    Emit.movi e ctx.r_out b.c_base;
    Array.iteri (fun j r -> Emit.movi e r (b.w_base + (j * ctx.w_stride))) ctx.rw;
    (match ctx.pc with Some pc -> Emit.movi e pc.r_q ctx.q_base | None -> ());
    Emit.block ~desc ~strategy e
  in
  let full_tiles = ctx.np / s.un and rem = ctx.np mod s.un in
  let segments =
    (if full_tiles > 0 then
       [ Emit.loop ~trip:full_tiles [ panel_loop s.un; tile_bumps s.un ] ]
     else [])
    @ if rem > 0 then [ panel_loop rem; tile_bumps rem ] else []
  in
  (init :: segments, pool)

(* ------------------------------------------------------------------ *)
(* vrmpy (4-column layout)                                             *)

let generate_vrmpy ?per_channel ?q_base ctx (b : buffers) =
  let s = ctx.s in
  let desc = s.device in
  let vb = desc.Desc.vector_bytes in
  let pool = Regs.create ~desc () in
  let ra = Regs.scalar pool and r_out = Regs.scalar pool in
  let rw = Array.init s.un (fun _ -> Regs.scalar pool) in
  let rwv = Array.init s.un (fun _ -> Array.init s.wbuf (fun _ -> Regs.scalar pool)) in
  let ctx = with_regs ?per_channel ?q_base ctx pool ~ra ~r_out ~rw ~rwv in
  let va = Array.init s.abuf (fun _ -> Regs.vector pool) in
  (* accumulators in adjacent pairs: columns (4q .. 4q+3) use pairs (pa, pb) *)
  let acc_pairs = Array.init (s.un / 2) (fun _ -> Regs.pair pool) in
  let acc j =
    let lo, hi = Regs.halves acc_pairs.(j / 2) in
    if j mod 2 = 0 then lo else hi
  in
  let pc = Regs.pair pool in
  let outv = Regs.vector pool in
  alloc_pc_vectors ctx pool;
  let strategy = s.strategy in
  let emit_group e g =
    emit_load ctx e `Vector va.(g mod s.abuf) ctx.ra (g * ctx.ks.group_bytes);
    for j = 0 to s.un - 1 do
      emit_load ctx e `Scalar ctx.rwv.(j).(g mod s.wbuf) ctx.rw.(j) (g * 4);
      Emit.vrmpy e (acc j) va.(g mod s.abuf) ctx.rwv.(j).(g mod s.wbuf)
    done
  in
  let k_block n_groups =
    let e = Emit.create () in
    for g = 0 to n_groups - 1 do
      emit_group e g
    done;
    Emit.bump e ctx.ra (n_groups * ctx.ks.group_bytes);
    Array.iter (fun r -> Emit.bump e r (n_groups * 4)) ctx.rw;
    Emit.block ~desc ~strategy e
  in
  let zero_block width =
    let e = Emit.create () in
    for j = 0 to width - 1 do
      Emit.vzero e (acc j)
    done;
    Emit.block ~desc ~strategy e
  in
  let epilogue_block width =
    let e = Emit.create () in
    for q = 0 to (width / 4) - 1 do
      let pa = acc_pairs.(2 * q) and pb = acc_pairs.((2 * q) + 1) in
      Emit.vshuff e pa pa Instr.W32;
      Emit.vshuff e pb pb Instr.W32;
      let a_lo, a_hi = Regs.halves pa and b_lo, b_hi = Regs.halves pb in
      (match ctx.pc with
      | None ->
        let sc = (s.mult, s.shift) in
        Emit.vscale e a_lo a_lo sc;
        Emit.vscale e a_hi a_hi sc;
        Emit.vscale e b_lo b_lo sc;
        Emit.vscale e b_hi b_hi sc
      | Some pc ->
        (* after the W32 shuffle the lanes alternate between the group's
           column pairs; the prepacked buffer interleaves the multipliers
           the same way (two vectors per 4-column group) *)
        let vq2 = Option.get pc.vq2 in
        Emit.vload e pc.vq pc.r_q (q * 2 * vb);
        Emit.vload e vq2 pc.r_q ((q * 2 * vb) + vb);
        Emit.emit e (Instr.Vscalev (a_lo, a_lo, pc.vq, pc.q_shift));
        Emit.emit e (Instr.Vscalev (a_hi, a_hi, pc.vq, pc.q_shift));
        Emit.emit e (Instr.Vscalev (b_lo, b_lo, vq2, pc.q_shift));
        Emit.emit e (Instr.Vscalev (b_hi, b_hi, vq2, pc.q_shift)));
      let pc_lo, pc_hi = Regs.halves pc in
      Emit.vpack e pc_lo pa Instr.W32;
      Emit.vpack e pc_hi pb Instr.W32;
      Emit.vshuff e pc pc Instr.W32;
      Emit.vpack e outv pc Instr.W16;
      (match s.act_table with Some id -> Emit.vlut e outv outv id | None -> ());
      Emit.vstore e ctx.r_out (q * vb) outv
    done;
    Array.iter (fun r -> Emit.bump e r (- (4 * ctx.groups))) ctx.rw;
    Emit.bump e ctx.r_out (ctx.ks.panel * ctx.np);
    Emit.block ~desc ~strategy e
  in
  let panel_loop width =
    let full = ctx.groups / s.ug and rest = ctx.groups mod s.ug in
    let body =
      [ zero_block width ]
      @ (if full > 0 then [ Emit.loop ~trip:full [ k_block s.ug ] ] else [])
      @ (if rest > 0 then [ k_block rest ] else [])
      @ [ epilogue_block width ]
    in
    Emit.loop ~trip:ctx.panels body
  in
  let tile_bumps width =
    let e = Emit.create () in
    Emit.bump e ctx.ra (-ctx.ks.panel * ctx.kp * ctx.panels);
    Array.iter (fun r -> Emit.bump e r (width * ctx.w_stride)) ctx.rw;
    Emit.bump e ctx.r_out ((width / 4 * vb) - (ctx.ks.panel * ctx.np * ctx.panels));
    (match ctx.pc with Some pc -> Emit.bump e pc.r_q (width / 4 * 2 * vb) | None -> ());
    Emit.block ~desc ~strategy e
  in
  let init =
    let e = Emit.create () in
    Emit.movi e ctx.ra b.a_base;
    Emit.movi e ctx.r_out b.c_base;
    Array.iteri (fun j r -> Emit.movi e r (b.w_base + (j * ctx.w_stride))) ctx.rw;
    (match ctx.pc with Some pc -> Emit.movi e pc.r_q ctx.q_base | None -> ());
    Emit.block ~desc ~strategy e
  in
  let full_tiles = ctx.np / s.un and rem = ctx.np mod s.un in
  let segments =
    (if full_tiles > 0 then
       [ Emit.loop ~trip:full_tiles [ panel_loop s.un; tile_bumps s.un ] ]
     else [])
    @ if rem > 0 then [ panel_loop rem; tile_bumps rem ] else []
  in
  (init :: segments, pool)

(* ------------------------------------------------------------------ *)

(* Emit (and SDA-pack) the kernel, uncached: the body of both
   [generate] and [cycles]. *)
let emit ~tables ?per_channel ~q_base spec buffers =
  Gcd2_util.Trace.in_span "matmul-emit" @@ fun () ->
  let ctx = make_ctx spec in
  let nodes, _pool =
    match spec.simd with
    | Simd.I_vmpy -> generate_vmpy ?per_channel ~q_base ctx buffers
    | Simd.I_vmpa -> generate_vmpa ?per_channel ~q_base ctx buffers
    | Simd.I_vrmpy -> generate_vrmpy ?per_channel ~q_base ctx buffers
  in
  Program.make ~tables (Fmt.str "matmul_%s_%dx%dx%d" (Simd.name spec.simd) spec.m spec.k spec.n)
    nodes

(* Materialized kernels, keyed by every argument that reaches the
   emitter.  Calls with equal arguments (nodes of one artifact with
   equal specs, a node's execution in every inference) share one
   physical program, so the VM's decode cache decodes it once per
   process. *)
let program_memo :
    ( spec * (int * int array) list * (int array * int) option * int * buffers,
      Program.t )
    Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "matmul-program"

(** Generate the kernel program.  [tables] should already contain the
    fused-activation table if [act_table] is set.  [per_channel] enables
    per-output-channel requantization: [(mults, shift)] as produced by
    {!Gcd2_tensor.Quant.per_channel_requant}, with the multiplier vectors
    prepacked at [q_base] ({!Weights.prepack_channel_mults}).  Memoized
    on all of its arguments. *)
let generate ?(tables = []) ?per_channel ?(q_base = 0) spec buffers =
  Gcd2_util.Memo.find_or_add program_memo (spec, tables, per_channel, q_base, buffers)
    (fun () -> emit ~tables ?per_channel ~q_base spec buffers)

(* Generating and SDA-packing a kernel is ~99% of a cold compile, and the
   spec determines the program exactly, so each unique spec is costed
   once per process.  Plan enumeration repeats specs heavily (every conv
   of a given shape, every unroll candidate revisited per node).  Only
   the count is kept: the thousands of candidates costing visits never
   become programs anything retains. *)
let cycles_memo : (spec, int) Gcd2_util.Memo.t = Gcd2_util.Memo.create "matmul-cycles"

(** Static cycle count of the kernel (buffer addresses do not affect it).
    Memoized by the full [spec] — the generator is deterministic, so the
    first costing of a spec answers every later one. *)
let cycles spec =
  Gcd2_util.Memo.find_or_add cycles_memo spec (fun () ->
      Program.static_cycles ~desc:spec.device
        (emit ~tables:[] ~q_base:0 spec { a_base = 0; w_base = 0; c_base = 0 }))
