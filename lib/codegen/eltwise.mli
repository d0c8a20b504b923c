(** Elementwise kernels (binary add/sub/mul, unary table lookups) — the
    layout-oblivious operators that give the global optimizer freedom.
    Operand rescaling is a byte lookup ([Vlut]); multiplication requants
    through the widening pipeline. *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer

type binary = Badd | Bsub | Bmul

type spec = {
  device : Gcd2_devices.Desc.t;
      (** target device (vector width, slots, latencies) — part of every
          memo key built from this spec *)
  vectors : int;  (** vectors to process (padded buffer size / vector bytes) *)
  uv : int;  (** vector unroll *)
  strategy : Packer.strategy;
  rescale_a : int option;  (** table id rescaling operand A into the output scale *)
  rescale_b : int option;  (** likewise for B (negating for subtraction) *)
  act_table : int option;
  mult : int;  (** requantization multiplier ([Bmul] only) *)
  shift : int;
}

type buffers = { a_base : int; b_base : int; out_base : int }

(** The binary kernel program, memoized on all of its arguments (see
    {!Matmul.generate}). *)
val binary : ?tables:(int * int array) list -> binary -> spec -> buffers -> Program.t

(** The unary lookup kernel program, memoized likewise. *)
val unary :
  ?tables:(int * int array) list -> table:int -> spec -> in_base:int -> out_base:int ->
  Program.t

(** Static cycles of the binary / unary kernel, from an uncached
    emission (costing keeps counts, never programs). *)
val binary_cycles : binary -> spec -> int

val unary_cycles : spec -> int

(** A plain spec: unroll 2, no rescale or activation tables.  [device]
    defaults to {!Gcd2_devices.Desc.hexagon698} only for the benchmark
    harness; library callers pass it. *)
val default_spec :
  ?strategy:Packer.strategy -> ?device:Gcd2_devices.Desc.t -> vectors:int -> unit -> spec
