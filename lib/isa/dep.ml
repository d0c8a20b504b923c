(** Classification of dependencies between instructions into the paper's
    {e hard} and {e soft} categories (Section IV-C, footnote 3).

    - A {b hard} dependency means the two instructions must not share a
      VLIW packet (co-issuing them could produce wrong results).
    - A {b soft} dependency allows co-packing: the interlocked pipeline
      still produces the correct result but stalls for [penalty] cycles
      (the paper's Figure 4: two 3-cycle instructions with a soft RAW
      dependency take 4 cycles when packed, versus 6 when not).

    Soft dependencies are only ever RAW or WAR (paper footnote 3).  In this
    machine model:
    - RAW whose producer is a load or scalar ALU/multiply is soft (the
      paper's two examples: load -> arithmetic, scalar add -> consumer);
    - RAW from a vector ALU into a store is soft (Figure 4b);
    - RAW from single-stage vector multiplies, shifts and permutes is soft
      with a longer stall (their results forward with a pipeline bubble);
      only the deep reducing multiplies ([vmpa]/[vrmpy]) are hard;
    - WAR is soft with zero penalty — within a packet the read issues
      before the write commits, so only cross-packet ordering is needed;
    - WAW and all potentially-overlapping memory dependencies are hard. *)

type kind =
  | Hard
  | Soft of int  (** co-packing stall penalty in cycles *)

let pp_kind ppf = function
  | Hard -> Fmt.string ppf "hard"
  | Soft p -> Fmt.pf ppf "soft(%d)" p

let regs_intersect xs ys = List.exists (fun x -> List.exists (Reg.overlap x) ys) xs

let raw_kind_classes producer consumer =
  match producer with
  | Iclass.Ld -> Soft 2
  | Iclass.Salu -> Soft 1
  | Iclass.Smul -> Soft 2
  | Iclass.Vmpy -> Soft 2
  | Iclass.Vshift | Iclass.Vperm -> Soft 1
  | Iclass.Valu -> (match consumer with Iclass.St -> Soft 1 | _ -> Hard)
  | Iclass.St | Iclass.Vmpy_deep -> Hard

(** Per-instruction facts {!classify} derives on every call, precomputed
    once so an O(n²) IDG build does not recompute register sets O(n²)
    times.  {!classify_info} on two [info]s is exactly {!classify} on the
    underlying instructions, and the packer reads nothing else, so an
    [info] array is also the pack memo's key. *)
type info = {
  defs : Reg.t list;
  uses : Reg.t list;
  mem : Instr.mem_access option;
  iclass : Iclass.t;
}

let info i =
  { defs = Instr.defs i; uses = Instr.uses i; mem = Instr.mem_access i; iclass = Instr.iclass i }

(* Conservative memory aliasing: accesses through different base registers
   are assumed disjoint (the code generator gives each buffer its own base
   register); same-base accesses alias iff their byte ranges overlap. *)
let mem_conflict a b =
  match (a.mem, b.mem) with
  | Some (Instr.Mem_load _), Some (Instr.Mem_load _) | None, _ | _, None -> false
  | Some x, Some y ->
    let range = function Instr.Mem_load (a, n) | Instr.Mem_store (a, n) -> (a, n) in
    let (aa, an), (ba, bn) = (range x, range y) in
    aa.Instr.base = ba.Instr.base
    && aa.offset < ba.offset + bn
    && ba.offset < aa.offset + an

(** [of_relations a b ~raw ~war ~waw ~mem] — the strongest dependency
    from [a] to [b] given which relations hold between them: WAW and
    memory conflicts are hard and beat everything; RAW takes its kind
    from the two classes (every RAW penalty is at least WAR's 0); WAR
    alone is soft with zero penalty. *)
let of_relations a b ~raw ~war ~waw ~mem =
  if waw || mem then Some Hard
  else if raw then Some (raw_kind_classes a.iclass b.iclass)
  else if war then Some (Soft 0)
  else None

(** [classify_info a b] — {!classify} over precomputed {!info}s ([a]'s
    instruction preceding [b]'s in program order). *)
let classify_info a b =
  of_relations a b ~raw:(regs_intersect a.defs b.uses) ~war:(regs_intersect a.uses b.defs)
    ~waw:(regs_intersect a.defs b.defs) ~mem:(mem_conflict a b)

(** [classify i j] — with [i] preceding [j] in program order — returns the
    dependency from [i] to [j], if any. *)
let classify i j = classify_info (info i) (info j)
