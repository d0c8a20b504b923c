(** Instruction classes: VLIW slot constraints and latencies.

    Packets hold up to four instructions, one per slot; each class may
    issue only in certain slots (e.g. vector shifts only in slot 2, which
    is why two shifts can never share a packet — the paper's example). *)

type t =
  | Salu  (** scalar ALU: add/sub/logic/moves *)
  | Smul  (** scalar multiply *)
  | Ld  (** scalar or vector load *)
  | St  (** scalar or vector store *)
  | Valu  (** vector ALU: add/sub/min/max/widening accumulate *)
  | Vmpy  (** single-stage vector multiply / fixed-point scaling *)
  | Vmpy_deep  (** dual / reducing vector multiply: vmpa, vrmpy *)
  | Vshift  (** vector shift / narrowing pack *)
  | Vperm  (** vector permute: shuffle, table lookup, splat *)

val all : t list
val name : t -> string

(** Index of the class in a {!Gcd2_devices.Desc} per-class array
    ([slot_masks] / [latencies]). *)
val index : t -> int

(** Slots in which the class may issue on a device, as a bitmask: bit
    [s] set iff slot [s] is allowed. *)
val slot_mask_on : Gcd2_devices.Desc.t -> t -> int

(** Issue-to-writeback cycles on a device (on hexagon698: the
    three-stage pipeline of the paper's Fig. 4, plus extra execute stages
    for loads/multiplies). *)
val latency_on : Gcd2_devices.Desc.t -> t -> int

val pp : Format.formatter -> t -> unit
