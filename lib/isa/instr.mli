(** Instructions of the simulated mobile DSP — a Hexagon-HVX-like subset
    as the paper describes it: wide SIMD multiplies taking scalar-register
    operands ([vmpy]/[vmpa]/[vrmpy], its Figure 1), widening accumulation,
    saturating narrowing for requantization, permutes, and a vector table
    lookup used for the division-to-lookup optimization.

    Multiply semantics (paper Figure 1):
    - [Vmpy (p, v, r)]: lane [i] of [v] times byte [i mod 4] of scalar
      [r]; even-lane products accumulate (saturating 16-bit) into the low
      half of pair [p], odd lanes into the high half.
    - [Vmpyb (p, v, r, sel)]: like [Vmpy] but every lane multiplies byte
      [sel] of [r] — the byte-select form lets one scalar load feed four
      reduction steps.
    - [Vmpa (p, q, r)]: dual multiply-accumulate over the 256 lanes of
      pair [q] against the four bytes of [r] (saturating 16-bit).
    - [Vrmpy (v, u, r)]: each 32-bit word lane of [v] accumulates the dot
      product of 4 consecutive bytes of [u] with the 4 bytes of [r]. *)

type width = W8 | W16 | W32

val width_bytes : width -> int
val pp_width : Format.formatter -> width -> unit

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
  | Vaddw of Reg.t * Reg.t  (** pair (32-bit lanes) += vector (16-bit lanes) *)
  | Vmpy of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += v * 4-byte-cyclic scalar *)
  | Vmpyb of Reg.t * Reg.t * Reg.t * int  (** pair (16-bit) += v * byte \[sel\] of scalar *)
  | Vmul of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += va * vb elementwise *)
  | Vmpa of Reg.t * Reg.t * Reg.t  (** pair (16-bit) += dual-mac of pair by 4 scalars *)
  | Vrmpy of Reg.t * Reg.t * Reg.t  (** vector (32-bit) += 4-lane dot products *)
  | Vscale of Reg.t * Reg.t * int * int  (** vd(32) <- sat32(round(vs * mult / 2^shift)) *)
  | Vscalev of Reg.t * Reg.t * Reg.t * int
      (** per-lane fixed-point scaling (per-channel requantization) *)
  | Vpack of Reg.t * Reg.t * width  (** vd <- saturating narrow of a pair *)
  | Vshuff of Reg.t * Reg.t * width  (** pd <- interleave the two halves of ps *)
  | Vlut of Reg.t * Reg.t * int  (** vd\[i\] <- table\[id\]\[vs\[i\]\] *)
  | Vdup of Reg.t * Reg.t  (** vd <- splat of scalar low byte *)

val operand_regs : operand -> Reg.t list

(** Registers written / read (accumulating forms read their destination). *)
val defs : t -> Reg.t list

val uses : t -> Reg.t list

type mem_access = Mem_load of addr * int | Mem_store of addr * int

val mem_access : t -> mem_access option

(** Issue class (slots + latency; see {!Iclass}). *)
val iclass : t -> Iclass.t

(** Issue-to-writeback cycles on a device. *)
val latency_on : Gcd2_devices.Desc.t -> t -> int

(** 8-bit multiply-accumulates performed (utilization counters). *)
val macs : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
