(** Bump allocator for physical registers during kernel emission.  Unroll
    limits keep kernels within the register file; exhaustion raises. *)

module Reg = Gcd2_isa.Reg

exception Out_of_registers of string

type t

(** [create ~desc ()] — fresh allocator sized to the device's register
    files. *)
val create : desc:Gcd2_devices.Desc.t -> unit -> t
val scalar : t -> Reg.t
val vector : t -> Reg.t

(** Aligned even/odd vector pair. *)
val pair : t -> Reg.t

(** Low/high vector halves of a pair. *)
val halves : Reg.t -> Reg.t * Reg.t

val free_vectors : t -> int
val free_scalars : t -> int
