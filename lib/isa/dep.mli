(** Hard/soft dependency classification (paper Section IV-C, footnote 3).

    A {e hard} dependency forbids co-packing; a {e soft} one allows it at a
    stall penalty (the interlocked pipeline still computes the correct
    result).  Soft dependencies are only ever RAW or WAR. *)

type kind =
  | Hard
  | Soft of int  (** co-packing stall penalty in cycles *)

val pp_kind : Format.formatter -> kind -> unit

(** [classify i j] — with [i] before [j] in program order — the strongest
    dependency from [i] to [j], if any.  Memory accesses through different
    base registers are assumed disjoint (the code generator gives each
    buffer its own base register). *)
val classify : Instr.t -> Instr.t -> kind option

(** An instruction's dependence projection: everything {!classify} and
    the packer read of it.  Immediates, ALU and lane-width selectors,
    requantization constants, table ids and byte selectors drop out;
    memory offsets stay, because same-base overlap depends on them.  An
    O(n²) pairwise classification should build one [info] per
    instruction and use {!classify_info}. *)
type info = {
  defs : Reg.t list;  (** {!Instr.defs} *)
  uses : Reg.t list;  (** {!Instr.uses} *)
  mem : Instr.mem_access option;  (** {!Instr.mem_access} *)
  iclass : Iclass.t;  (** {!Instr.iclass}: slots and latency *)
}

val info : Instr.t -> info

(** [classify_info a b] ≡ [classify i j] for the instructions [a] and [b]
    were built from ([i] before [j] in program order). *)
val classify_info : info -> info -> kind option

(** Do the two accesses conflict: one base register, a store among them
    and overlapping byte ranges? *)
val mem_conflict : info -> info -> bool

(** [of_relations a b ~raw ~war ~waw ~mem] — the dependency from [a] to
    [b] when [raw]: [a] defines a register [b] reads, [war]: [a] reads a
    register [b] defines, [waw]: both define one, [mem]: {!mem_conflict}.
    [classify_info a b] is this with each relation computed from the
    register lists; a caller that already knows the relations (the IDG's
    def-use build) skips that. *)
val of_relations : info -> info -> raw:bool -> war:bool -> waw:bool -> mem:bool -> kind option
