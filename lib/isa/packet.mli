(** VLIW packets: up to four instructions issued together, kept in program
    order.  Legality = a slot assignment exists and no two members are
    hard-dependent.  Cost = max member latency + intra-packet soft stall
    chains; packets never overlap (paper footnote 5). *)

type t = Instr.t list

val max_size : int

(** Packet capacity of a device (its [slot_count]). *)
val capacity : Gcd2_devices.Desc.t -> int

(** Does an injective slot assignment exist for these
    {!Iclass.slot_mask_on} bitmasks (order-irrelevant) on the device's
    slots?  The packer's allocation-free legality primitive. *)
val masks_feasible : desc:Gcd2_devices.Desc.t -> int list -> bool

(** Does a slot assignment exist for these instructions? *)
val slots_feasible : desc:Gcd2_devices.Desc.t -> Instr.t list -> bool

(** Slot-feasible and free of intra-packet hard dependencies. *)
val legal : desc:Gcd2_devices.Desc.t -> Instr.t list -> bool

(** Extra cycles from the longest penalty-weighted soft chain inside. *)
val stall : t -> int

(** Issue-to-completion cycles of the packet (0 when empty), under the
    device's latencies. *)
val cycles : desc:Gcd2_devices.Desc.t -> t -> int

val pp : Format.formatter -> t -> unit
