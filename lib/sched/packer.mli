(** VLIW instruction packing: the paper's Soft-Dependency-Aware algorithm
    (Algorithm 1) and the comparison strategies of its evaluation. *)

open Gcd2_isa

type strategy =
  | Sda of { w : float; p : float }
      (** Algorithm 1: [w] weights depth vs latency-matching in Equation 4,
          [p] scales the soft-dependency stall penalty; both "empirically
          decided" — the packer additionally decides the penalty policy per
          block by costing both and keeping the cheaper schedule *)
  | Soft_to_hard  (** soft dependencies treated as hard (Figure 11) *)
  | Soft_to_none  (** penalty terms removed (lines 27-28 of Algorithm 1) *)
  | List_topdown  (** conventional latency-weighted list scheduling *)
  | In_order
      (** LLVM-packetizer-like baseline: scan in program order, append
          while legal, never reorder (the stock backends' packing) *)

val default_w : float
val default_p : float

(** The tuned SDA configuration. *)
val sda : strategy

val pp_strategy : Format.formatter -> strategy -> unit

(** Pack one basic block (program order); packets as ascending
    instruction-index lists.  [desc] selects the device (slot masks,
    capacity, latencies).  Packing reads each instruction only through
    its {!Gcd2_isa.Dep.info} (registers, memory access, issue class), so
    it is memoized per process on (device, strategy, the block's
    [Dep.info] array): a block with an already-packed projection — a
    repeat, or one that differs only in immediates, ALU ops, lane widths,
    requantization constants, table ids or byte selectors — opens no
    [pack] span but records the same [packets] and [stalls] counts as the
    first packing. *)
val pack_indices : desc:Gcd2_devices.Desc.t -> strategy -> Instr.t array -> int list list

(** Pack one basic block into a legal packet sequence. *)
val pack : desc:Gcd2_devices.Desc.t -> strategy -> Instr.t array -> Packet.t list

(** The pre-optimization packer, kept as the executable specification of
    the incremental one: [pack_indices_reference s b = pack_indices s b]
    for every strategy and block (the property tests pin this).  Slower —
    per-candidate freeness rescans and from-scratch legality/stall
    recomputation — so for tests and the pack-scaling benchmark only. *)
val pack_indices_reference :
  desc:Gcd2_devices.Desc.t -> strategy -> Instr.t array -> int list list

(** Reference {!pack}. *)
val pack_reference : desc:Gcd2_devices.Desc.t -> strategy -> Instr.t array -> Packet.t list

(** Total cycles of a packed block (packets never overlap). *)
val block_cycles : desc:Gcd2_devices.Desc.t -> Packet.t list -> int
