(** Instructions of the simulated mobile DSP.

    The subset below is modelled on the Hexagon HVX instruction set as the
    paper describes it (its Figures 1 and 5): wide SIMD multiplies with
    scalar-register operands ([vmpy], [vmpa], [vrmpy]), widening
    accumulation, saturating narrowing for requantization, permutes, a
    vector table lookup (used to replace division, one of the paper's
    "other optimizations"), plus the scalar/memory operations needed to
    drive them.

    Multiply semantics (paper Figure 1):
    - [Vmpy (p, v, r)] — each of the 128 byte lanes of [v] is multiplied by
      one of the four signed bytes of scalar [r] (lane [i] uses byte
      [i mod 4]); products of even lanes accumulate (saturating, 16-bit)
      into the low half of pair [p] and odd lanes into the high half.
    - [Vmpa (p, q, r)] — dual multiply-accumulate over the 256 byte lanes of
      pair [q]: for output lane [j] of the low (resp. high) half,
      [lo[j] += q0[2j]*b0 + q1[2j]*b1] and [hi[j] += q0[2j+1]*b2 +
      q1[2j+1]*b3], saturating 16-bit, where [q0]/[q1] are the two vectors
      of [q] and [b0..b3] the bytes of [r].
    - [Vrmpy (v, u, r)] — reducing multiply: each of the 32 word lanes of
      [v] accumulates the dot product of 4 consecutive bytes of [u] with
      the 4 bytes of [r] (32-bit, wrapping). *)

type width = W8 | W16 | W32

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4
let pp_width ppf w = Fmt.string ppf (match w with W8 -> "b" | W16 -> "h" | W32 -> "w")

(** Memory operand: contents of [base] plus a constant byte offset. *)
type addr = { base : Reg.t; offset : int }

type salu_op = Add | Sub | And | Or | Xor | Shl | Shr | Min | Max

type valu_op = Vadd | Vsub | Vmax | Vmin | Vavg | Vand | Vor | Vxor

type operand = Reg of Reg.t | Imm of int

type t =
  | Smovi of Reg.t * int  (** rd <- imm *)
  | Salu of salu_op * Reg.t * Reg.t * operand  (** rd <- rs op src *)
  | Smul of Reg.t * Reg.t * operand  (** rd <- rs * src (wrapping 32-bit) *)
  | Sload of Reg.t * addr  (** rd <- mem32\[addr\] *)
  | Sstore of addr * Reg.t  (** mem32\[addr\] <- rs *)
  | Vload of Reg.t * addr  (** vd <- mem\[addr .. addr+127\] *)
  | Vstore of addr * Reg.t  (** mem\[addr .. addr+127\] <- vs *)
  | Vmovi of Reg.t * int  (** splat immediate byte to every lane (V or P) *)
  | Valu of valu_op * width * Reg.t * Reg.t * Reg.t  (** vd <- va op vb, lane-wise *)
  | Vaddw of Reg.t * Reg.t  (** pair (32-bit lanes) += vector (16-bit lanes), widening *)
  | Vmpy of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += v * splat4(scalar); see module doc *)
  | Vmpyb of Reg.t * Reg.t * Reg.t * int
      (** pair (16-bit) += v * broadcast(byte \[sel\] of scalar); the
          byte-select form lets one scalar load feed four reduction steps *)
  | Vmul of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += va * vb elementwise, even/odd split *)
  | Vmpa of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += dual-mac of pair by 4 scalars *)
  | Vrmpy of Reg.t * Reg.t * Reg.t  (** vector (32-bit) += 4-lane dot products *)
  | Vscale of Reg.t * Reg.t * int * int  (** vd(32) <- sat32(round(vs * mult / 2^shift)) *)
  | Vscalev of Reg.t * Reg.t * Reg.t * int
      (** per-lane fixed-point scaling: vd.w\[l\] <- sat32(round(vs.w\[l\] *
          vm.w\[l\] / 2^shift)) — the per-channel requantization form *)
  | Vpack of Reg.t * Reg.t * width  (** vd <- saturating narrow of pair from given lane width *)
  | Vshuff of Reg.t * Reg.t * width  (** pd <- interleave the lanes of the two halves of ps *)
  | Vlut of Reg.t * Reg.t * int  (** vd\[i\] <- table\[id\]\[vs\[i\] land 255\] *)
  | Vdup of Reg.t * Reg.t  (** vd <- splat of scalar low byte *)

let operand_regs = function Reg r -> [ r ] | Imm _ -> []

(** Registers written by the instruction. *)
let defs = function
  | Smovi (rd, _) | Salu (_, rd, _, _) | Smul (rd, _, _) | Sload (rd, _) -> [ rd ]
  | Sstore _ | Vstore _ -> []
  | Vload (vd, _) | Vmovi (vd, _) -> [ vd ]
  | Valu (_, _, vd, _, _) -> [ vd ]
  | Vaddw (pd, _) -> [ pd ]
  | Vmpy (pd, _, _) | Vmpyb (pd, _, _, _) | Vmpa (pd, _, _) -> [ pd ]
  | Vmul (pd, _, _) -> [ pd ]
  | Vrmpy (vd, _, _) -> [ vd ]
  | Vscale (vd, _, _, _) | Vscalev (vd, _, _, _) | Vpack (vd, _, _) | Vshuff (vd, _, _)
  | Vlut (vd, _, _)
  | Vdup (vd, _) -> [ vd ]

(** Registers read by the instruction.  Accumulating forms read their
    destination. *)
let uses = function
  | Smovi _ | Vmovi _ -> []
  | Salu (_, _, rs, op) | Smul (_, rs, op) -> rs :: operand_regs op
  | Sload (_, a) | Vload (_, a) -> [ a.base ]
  | Sstore (a, rs) | Vstore (a, rs) -> [ a.base; rs ]
  | Valu (_, _, _, va, vb) -> [ va; vb ]
  | Vaddw (pd, vs) -> [ pd; vs ]
  | Vmpy (pd, vs, rt) | Vmpyb (pd, vs, rt, _) | Vmpa (pd, vs, rt) | Vrmpy (pd, vs, rt) ->
    [ pd; vs; rt ]
  | Vmul (pd, va, vb) -> [ pd; va; vb ]
  | Vscale (_, vs, _, _) | Vlut (_, vs, _) -> [ vs ]
  | Vscalev (_, vs, vm, _) -> [ vs; vm ]
  | Vpack (_, ps, _) | Vshuff (_, ps, _) -> [ ps ]
  | Vdup (_, rs) -> [ rs ]

(** Memory accessed by the instruction, if any. *)
type mem_access = Mem_load of addr * int | Mem_store of addr * int

let mem_access = function
  | Sload (_, a) -> Some (Mem_load (a, 4))
  | Sstore (a, _) -> Some (Mem_store (a, 4))
  | Vload (_, a) -> Some (Mem_load (a, Reg.vector_bytes))
  | Vstore (a, _) -> Some (Mem_store (a, Reg.vector_bytes))
  | _ -> None

(** Issue class, which determines slots and latency (see {!Iclass}). *)
let iclass = function
  | Smovi _ | Salu _ -> Iclass.Salu
  | Smul _ -> Iclass.Smul
  | Sload _ | Vload _ -> Iclass.Ld
  | Sstore _ | Vstore _ -> Iclass.St
  | Vmovi _ | Valu _ | Vaddw _ -> Iclass.Valu
  | Vmpy _ | Vmpyb _ | Vmul _ | Vscale _ | Vscalev _ -> Iclass.Vmpy
  | Vmpa _ | Vrmpy _ -> Iclass.Vmpy_deep
  | Vpack _ -> Iclass.Vshift
  | Vshuff _ | Vlut _ | Vdup _ -> Iclass.Vperm

(** Issue-to-writeback cycles on device [d]. *)
let latency_on d i = Iclass.latency_on d (iclass i)

(** Number of 8-bit multiply-accumulate operations performed (for the
    utilization counters). *)
let macs = function
  | Vmpy _ | Vmpyb _ | Vmul _ -> 128
  | Vmpa _ -> 256
  | Vrmpy _ -> 128
  | _ -> 0

let pp_salu_op ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
    | Shl -> "asl" | Shr -> "asr" | Min -> "min" | Max -> "max")

let pp_valu_op ppf op =
  Fmt.string ppf
    (match op with
    | Vadd -> "vadd" | Vsub -> "vsub" | Vmax -> "vmax" | Vmin -> "vmin"
    | Vavg -> "vavg" | Vand -> "vand" | Vor -> "vor" | Vxor -> "vxor")

let pp_addr ppf a = Fmt.pf ppf "[%a+%d]" Reg.pp a.base a.offset

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Fmt.pf ppf "#%d" i

let pp ppf = function
  | Smovi (rd, i) -> Fmt.pf ppf "%a = #%d" Reg.pp rd i
  | Salu (op, rd, rs, o) ->
    Fmt.pf ppf "%a = %a(%a, %a)" Reg.pp rd pp_salu_op op Reg.pp rs pp_operand o
  | Smul (rd, rs, o) -> Fmt.pf ppf "%a = mpyi(%a, %a)" Reg.pp rd Reg.pp rs pp_operand o
  | Sload (rd, a) -> Fmt.pf ppf "%a = memw%a" Reg.pp rd pp_addr a
  | Sstore (a, rs) -> Fmt.pf ppf "memw%a = %a" pp_addr a Reg.pp rs
  | Vload (vd, a) -> Fmt.pf ppf "%a = vmem%a" Reg.pp vd pp_addr a
  | Vstore (a, vs) -> Fmt.pf ppf "vmem%a = %a" pp_addr a Reg.pp vs
  | Vmovi (vd, i) -> Fmt.pf ppf "%a = vsplat(#%d)" Reg.pp vd i
  | Valu (op, w, vd, va, vb) ->
    Fmt.pf ppf "%a.%a = %a(%a, %a)" Reg.pp vd pp_width w pp_valu_op op Reg.pp va Reg.pp vb
  | Vaddw (pd, vs) -> Fmt.pf ppf "%a.w += vwiden(%a.h)" Reg.pp pd Reg.pp vs
  | Vmpy (pd, vs, rt) -> Fmt.pf ppf "%a.h += vmpy(%a.b, %a.b)" Reg.pp pd Reg.pp vs Reg.pp rt
  | Vmpyb (pd, vs, rt, sel) ->
    Fmt.pf ppf "%a.h += vmpy(%a.b, %a.b[%d])" Reg.pp pd Reg.pp vs Reg.pp rt sel
  | Vmul (pd, va, vb) -> Fmt.pf ppf "%a.h += vmul(%a.b, %a.b)" Reg.pp pd Reg.pp va Reg.pp vb
  | Vmpa (pd, ps, rt) -> Fmt.pf ppf "%a.h += vmpa(%a.ub, %a.b)" Reg.pp pd Reg.pp ps Reg.pp rt
  | Vrmpy (vd, vs, rt) -> Fmt.pf ppf "%a.w += vrmpy(%a.b, %a.b)" Reg.pp vd Reg.pp vs Reg.pp rt
  | Vscale (vd, vs, m, sh) -> Fmt.pf ppf "%a.w = vscale(%a.w, #%d, #%d)" Reg.pp vd Reg.pp vs m sh
  | Vscalev (vd, vs, vm, sh) ->
    Fmt.pf ppf "%a.w = vscale(%a.w, %a.w, #%d)" Reg.pp vd Reg.pp vs Reg.pp vm sh
  | Vpack (vd, ps, w) -> Fmt.pf ppf "%a = vpack(%a.%a)" Reg.pp vd Reg.pp ps pp_width w
  | Vshuff (pd, ps, w) -> Fmt.pf ppf "%a = vshuff(%a.%a)" Reg.pp pd Reg.pp ps pp_width w
  | Vlut (vd, vs, id) -> Fmt.pf ppf "%a = vlut(%a, table#%d)" Reg.pp vd Reg.pp vs id
  | Vdup (vd, rs) -> Fmt.pf ppf "%a = vdup(%a)" Reg.pp vd Reg.pp rs

let to_string i = Fmt.str "%a" pp i
