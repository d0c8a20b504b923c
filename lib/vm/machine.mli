(** Functional + timing simulator for the DSP.

    Instructions inside a packet evaluate in program order, which is
    exactly what the interlocked hardware computes for the co-packings the
    packers permit (hard-dependent instructions are never co-packed).
    Executed packets accumulate {!Gcd2_isa.Packet.cycles}, so the dynamic
    cycle counter always equals {!Gcd2_isa.Program.static_cycles} of the
    program — a property the test suite checks.

    Two engines compute these semantics: the {e reference} interpreter
    (one dispatch per executed instruction) and the {e translated} engine
    (each instruction decoded once into a closure over the concrete
    operand [Bytes] windows, cached per program; every lane loop but
    [Vmpa]'s is C, in the reference's read/write order, so aliased
    operands agree too).  They
    produce bit-identical registers, memory and counters; {!run}
    dispatches on the global {!engine} selection, default
    {!Translated}. *)

open Gcd2_isa

type counters = {
  mutable cycles : int;
  mutable packets : int;
  mutable instrs : int;
  mutable macs : int;  (** 8-bit multiply-accumulates executed *)
  mutable loaded_bytes : int;
  mutable stored_bytes : int;
}

type t

(** Can this device's programs execute on the simulator?  The ISA
    semantics and the translated engine's specialized loops are fixed to
    the hexagon698 register file (128-byte vectors, 32+32 registers), and
    packets are timed under hexagon698's latencies; wider descriptors are
    costed analytically, never run. *)
val executable : Gcd2_devices.Desc.t -> bool

(** [create ~mem_bytes ()] — fresh hexagon698 machine with zeroed
    registers and memory (default 4 MiB). *)
val create : ?mem_bytes:int -> unit -> t

val counters : t -> counters
val memory_size : t -> int

val get_sreg : t -> Reg.t -> int
val set_sreg : t -> Reg.t -> int -> unit

(** Little-endian signed lane access into a vector register or pair. *)
val get_lane : t -> Reg.t -> width:Instr.width -> int -> int

val set_lane : t -> Reg.t -> width:Instr.width -> int -> int -> unit

(** Staging helpers (int8 = 1 byte/element, int32 = 4 bytes, little
    endian).  All memory access is bounds-checked. *)
val write_i8_array : t -> addr:int -> int array -> unit

val read_i8_array : t -> addr:int -> len:int -> int array
val write_i16_array : t -> addr:int -> int array -> unit
val write_i32_array : t -> addr:int -> int array -> unit
val read_i32_array : t -> addr:int -> len:int -> int array

(** [window t ~addr ~len] checks that [\[addr, addr + len)] lies in
    memory and returns the backing store, for host-side staging that
    touches only that range, at absolute addresses, without an
    intermediate array. *)
val window : t -> addr:int -> len:int -> Bytes.t

(** Execute one instruction (updates counters).  Single-instruction
    stepping always uses the reference interpreter. *)
val exec : t -> Instr.t -> unit

(** The reference interpreter for one instruction — the semantic ground
    truth the translated engine is differentially tested against. *)
val exec_reference : t -> Instr.t -> unit

(** Run a whole program through the reference interpreter, regardless of
    the selected {!engine}. *)
val run_reference : t -> Program.t -> unit

(** Run a whole program; registers and memory persist across calls.
    Under the default {!Translated} engine the program is decoded once
    into specialized closures (cached on the machine, keyed by
    {!Gcd2_isa.Program.same} identity) and replayed on every call. *)
val run : t -> Program.t -> unit

(** Which build of the native lane loops the dynamic loader bound for
    this CPU: ["avx2"] on an x86-64 CPU with AVX2, else ["default"].
    The translated engine's wall time depends on it; its results do
    not. *)
val lanes_clone : unit -> string

(** {2 Engine selection}

    Global switch so a whole model can run through the reference
    interpreter: [bench vm]'s whole-model differential runs each model
    once per engine and requires identical outputs and statistics.
    [Reference] also makes {!scratch} return fresh machines, so that
    differential also checks {!reset} against {!create}. *)

type engine = Translated | Reference

val set_engine : engine -> unit
val engine : unit -> engine

(** {2 Scratch machines} *)

(** [reset ~mem_bytes t] restores [t] to the state of
    [create ~mem_bytes ()]: zeroed registers, counters, tables and the
    first [mem_bytes] of memory, growing the backing store on demand.
    Bounds checks apply to the logical [mem_bytes] size, so a reused
    machine faults exactly like a fresh one.  The translation cache is
    kept. *)
val reset : ?mem_bytes:int -> t -> unit

(** [scratch ~mem_bytes ()] — the domain's one scratch machine, {!reset}
    and ready: per-node runners reuse it instead of allocating a fresh
    multi-MiB machine per node.  Under the [Reference] engine this
    returns a fresh {!create} instead, the state a reset machine must
    equal. *)
val scratch : ?mem_bytes:int -> unit -> t
