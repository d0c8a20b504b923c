(** Tiny bump allocator for physical registers used while emitting a
    kernel.  Kernels are generated with unroll factors already bounded by
    {!Unroll}, so exhaustion means a generator bug; we raise rather than
    spill (the unroll heuristic's job is precisely to stay within the
    register file — paper Section IV-C, "Impact of Unrolling"). *)

module Reg = Gcd2_isa.Reg
module Desc = Gcd2_devices.Desc

exception Out_of_registers of string

type t = {
  mutable next_scalar : int;
  mutable next_vector : int;
  scalar_limit : int;
  vector_limit : int;
}

(* r0/r1 are reserved as always-zero / scratch conventions are not needed;
   allocate everything from 0.  The register-file sizes come from the
   device descriptor. *)
let create ~desc () =
  {
    next_scalar = 0;
    next_vector = 0;
    scalar_limit = desc.Desc.scalar_count;
    vector_limit = desc.Desc.vector_count;
  }

let scalar t =
  if t.next_scalar >= t.scalar_limit then raise (Out_of_registers "scalar");
  let r = Reg.R t.next_scalar in
  t.next_scalar <- t.next_scalar + 1;
  r

let vector t =
  if t.next_vector >= t.vector_limit then raise (Out_of_registers "vector");
  let v = Reg.V t.next_vector in
  t.next_vector <- t.next_vector + 1;
  v

(** Allocate an aligned even/odd pair; returns the pair register. *)
let pair t =
  if t.next_vector mod 2 = 1 then t.next_vector <- t.next_vector + 1;
  if t.next_vector + 2 > t.vector_limit then raise (Out_of_registers "vector pair");
  let p = Reg.P (t.next_vector / 2) in
  t.next_vector <- t.next_vector + 2;
  p

(** Low/high vector halves of a pair. *)
let halves = function
  | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
  | r -> invalid_arg (Fmt.str "Regs.halves: %a is not a pair" Reg.pp r)

(** Remaining capacity, used by the unroll limiter. *)
let free_vectors t = t.vector_limit - t.next_vector
let free_scalars t = t.scalar_limit - t.next_scalar
