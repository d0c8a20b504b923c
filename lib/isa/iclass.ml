(** Instruction classes, VLIW slot constraints and latencies.

    The machine issues packets of up to four instructions.  Each class may
    execute only in certain slots, which is what makes some combinations
    unpackable (the paper's example: two shift operations can never share a
    packet, because shifts are tied to a single slot).

    Slot map (Hexagon-HVX-like):
    {v
      slot 0 : store | load | scalar ALU
      slot 1 : load  | scalar ALU | vector ALU
      slot 2 : vector multiply | vector shift | scalar ALU | vector ALU
      slot 3 : vector multiply | vector permute | scalar ALU | vector ALU
    v}

    Latencies follow the three-stage read/execute/write pipeline of the
    paper's Figure 4 (three cycles for simple operations), with one extra
    execute stage for loads and multiplies and three for the dual/reducing
    multiplies ([vmpa], [vrmpy]) whose adder trees are deeper. *)

type t =
  | Salu  (** scalar ALU: add/sub/logic/moves *)
  | Smul  (** scalar multiply *)
  | Ld    (** scalar or vector load *)
  | St    (** scalar or vector store *)
  | Valu  (** vector ALU: add/sub/min/max/widening accumulate *)
  | Vmpy  (** vector multiply: vmpy/vmpa/vrmpy/scaling *)
  | Vmpy_deep  (** dual / reducing vector multiply: vmpa, vrmpy *)
  | Vshift (** vector shift / narrowing pack *)
  | Vperm  (** vector permute: shuffle, table lookup, splat *)

let all = [ Salu; Smul; Ld; St; Valu; Vmpy; Vmpy_deep; Vshift; Vperm ]

module Desc = Gcd2_devices.Desc

(** Index of the class in a {!Gcd2_devices.Desc} per-class array (the
    descriptor's documented fixed order). *)
let index = function
  | Salu -> 0
  | Smul -> 1
  | Ld -> 2
  | St -> 3
  | Valu -> 4
  | Vmpy -> 5
  | Vmpy_deep -> 6
  | Vshift -> 7
  | Vperm -> 8

let name = function
  | Salu -> "salu"
  | Smul -> "smul"
  | Ld -> "ld"
  | St -> "st"
  | Valu -> "valu"
  | Vmpy -> "vmpy"
  | Vmpy_deep -> "vmpy+"
  | Vshift -> "vshift"
  | Vperm -> "vperm"

(** Slots in which the class may issue on device [d], as a bitmask (bit
    [s] set iff slot [s] is allowed) — the form the packer's feasibility
    check consumes. *)
let slot_mask_on (d : Desc.t) c = d.Desc.slot_masks.(index c)

(** Cycles from issue to result write-back on device [d]. *)
let latency_on (d : Desc.t) c = d.Desc.latencies.(index c)

let pp ppf c = Fmt.string ppf (name c)
