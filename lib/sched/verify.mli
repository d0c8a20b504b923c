(** Independent validity checker for packet schedules (used heavily by the
    property-based tests). *)

open Gcd2_isa

type error =
  | Not_a_partition
  | Illegal_packet of int
  | Ordering_violation of { producer : int; consumer : int }

val pp_error : Format.formatter -> error -> unit

(** [check instrs packets] — packets as returned by
    {!Packer.pack_indices}: every instruction exactly once, every packet
    legal (under the device's slot rules) and internally in program order,
    every dependency ordered (hard: strictly earlier packet; soft: no
    later packet). *)
val check :
  desc:Gcd2_devices.Desc.t -> Instr.t array -> int list list -> (unit, error) result
