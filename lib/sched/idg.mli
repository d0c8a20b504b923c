(** Instruction Dependency Graph (the paper's IDG, Figure 5): vertices are
    the instructions of one basic block, edges the hard/soft dependencies.
    Program order is already a topological order.

    The graph is built from each instruction's {!Gcd2_isa.Dep.info}, the
    dependence projection, and reads nothing else of it.  The build also
    precomputes the packer's hot queries: a dense n×n dependence-kind
    matrix and per-instruction latency / slot-mask arrays. *)

open Gcd2_isa

type t = {
  succ : int array array;  (** successors per instruction, latest first *)
  pred : int array array;  (** predecessors, latest first; kinds via {!edge} *)
  cover : int array array;
      (** [succ] without the edges that a longer path implies (the
          transitive reduction), latest first: what the critical path
          walks *)
  order : int array;  (** longest hop distance from an entry (paper's [i.order]) *)
  ancestors : int array;  (** transitive predecessor count (paper's [i.pred]) *)
  lat : int array;  (** [Iclass.latency_on] of the class, by instruction index *)
  slot_mask : int array;  (** [Iclass.slot_mask_on] of the class, by index *)
  kinds : Bytes.t;  (** n×n dependence-kind matrix; query via {!edge} *)
}

(** Build the IDG of a block given as its instructions' projections
    ([Array.map Dep.info instrs]), baking the device's latencies and slot
    masks into [lat]/[slot_mask].  Only pairs that share a register one
    of them defines, or a memory base register with a store among them,
    are classified; every other pair has no dependency, so the edges (and
    their order in [pred], latest first) are those of classifying all
    pairs.  [succ] is then derived from [pred] in O(edges), also latest
    first, and [cover] falls out of the ancestor sets. *)
val build : desc:Gcd2_devices.Desc.t -> Dep.info array -> t

val size : t -> int

(** [edge t i j] — the dependency from [i] to [j] ([i < j] in program
    order), if any; O(1) via the kind matrix.  Agrees with [succ]/[pred]
    by construction. *)
val edge : t -> int -> int -> Dep.kind option

(** O(1) kind tests for the pair [(i, j)], [i < j]. *)
val hard : t -> int -> int -> bool

val soft : t -> int -> int -> bool

(** Maximum-total-latency path through the still-[alive] vertices, entry
    side first.  Ties go to the earliest successor in [succ] order and to
    the lowest entry index.  [alive] must be closed under predecessors
    (every predecessor of an alive vertex is alive), as it is in
    bottom-up packing.  Raises [Invalid_argument] on an empty graph. *)
val critical_path : t -> bool array -> int list

(** Critical-path state for repeated queries while the alive set only
    shrinks, as over the rounds of one pack: it is allocated once, and
    each query walks only the vertices and [cover] edges still alive. *)
type paths

val paths : t -> paths

(** [critical_seed t p alive] — the exit-side end of
    [critical_path t alive].  [p] must come from {!paths} on [t], and
    every vertex dead in an earlier query on [p] must still be dead.
    Raises [Invalid_argument] on an empty graph. *)
val critical_seed : t -> paths -> bool array -> int
