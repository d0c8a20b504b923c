(** Instruction Dependency Graph (the paper's IDG, Figure 5): vertices are
    the instructions of one basic block, edges the hard/soft dependencies.
    Program order is already a topological order.

    The build also precomputes the packer's hot queries: a dense n×n
    dependence-kind matrix and per-instruction latency / slot-mask
    arrays. *)

open Gcd2_isa

type t = {
  instrs : Instr.t array;
  succ : (int * Dep.kind) list array;  (** outgoing edges per instruction *)
  pred : (int * Dep.kind) list array;  (** incoming edges *)
  order : int array;  (** longest hop distance from an entry (paper's [i.order]) *)
  ancestors : int array;  (** transitive predecessor count (paper's [i.pred]) *)
  lat : int array;  (** [Instr.latency_on], by instruction index *)
  slot_mask : int array;  (** [Iclass.slot_mask_on] of the class, by index *)
  kinds : Bytes.t;  (** n×n dependence-kind matrix; query via {!edge} *)
}

(** Build the IDG, baking the device's latencies and slot masks into
    [lat]/[slot_mask].  Only pairs that share a register one of them
    defines, or a memory base register with a store among them, are
    classified; every other pair has no dependency, so the edges (and
    their order in [succ]/[pred], latest first) are those of classifying
    all pairs. *)
val build : desc:Gcd2_devices.Desc.t -> Instr.t array -> t
val size : t -> int

(** [edge t i j] — the dependency from [i] to [j] ([i < j] in program
    order), if any; O(1) via the kind matrix.  Agrees with [succ]/[pred]
    by construction. *)
val edge : t -> int -> int -> Dep.kind option

(** O(1) kind tests for the pair [(i, j)], [i < j]. *)
val hard : t -> int -> int -> bool

val soft : t -> int -> int -> bool

(** Maximum-total-latency path through the still-[alive] vertices, entry
    side first.  Raises [Invalid_argument] on an empty graph. *)
val critical_path : t -> bool array -> int list
