(** Content-keyed memo tables for deterministic computations.

    A table maps a {e complete} description of a computation (its key) to
    the computed value.  The contract mirrors the artifact store's
    fingerprints one layer down: the key must determine the value
    exactly, so a lookup can stand in for the computation bit-for-bit.
    The main clients are the kernel costings — a {!Gcd2_codegen.Matmul}
    generator spec determines the emitted loop nest, hence its packed
    cycle count; costing each {e unique} spec once collapses the
    hundreds of per-node kernel generations of a cold compile into the
    dozens that are actually distinct.  The rule for kernels: costing
    memoizes cycles (an int per spec, so the thousands of candidates
    the heuristics and the autotuner visit retain no program), while
    materializing a kernel ({!Gcd2_codegen.Matmul.generate},
    [Eltwise.binary]/[unary], the [Rowops] passes) memoizes the program,
    so every use of it shares one physical value.  Beneath both sits the
    packer: {!Gcd2_sched.Packer.pack_indices} is keyed by (device,
    strategy, the marshaled {!Gcd2_isa.Dep.info} array of the block), so
    a basic block that many kernels share — or that differs from one
    already packed only in immediates — is packed once; it keeps the
    packet index lists and the stall count as a compact string, never
    the instructions.

    {b Key discipline}: the key is the computation's entire input, and
    nothing more.  Always key by the full spec value (a pure-data
    record), never by a hand-picked subset of its fields — a new spec
    field then enters the key automatically.  Where a key must be
    assembled by hand (tuples over a function's arguments), every
    argument that can change the result must be a component; the spec
    types carry bump-reminder comments pointing here.  The pack memo's
    input is the dependence projection: the IDG reads each instruction
    only through its [Dep.info], so that record, not the instruction, is
    the key, and a field added to [Dep.info] enters it automatically.

    Tables are domain-safe: lookups and inserts are serialized by a
    per-table mutex, while the computation itself runs unlocked (two
    domains racing on the same key both compute; the duplicate insert is
    dropped — values are deterministic, so no caller can observe the
    race).  Hits and misses are recorded against the ambient {!Trace} as
    [memo-hits] / [memo-misses] counters.

    Values live for the whole process, deliberately: a serving loop
    compiling many models reuses kernel costings across requests, and
    repeated inferences reuse the programs (and the simulator's
    decodes of them) the first one built.
    Benchmarks measuring a {e cold} compile must call {!clear_all}
    first — "first kernel of a shape" and "repeat kernel" now cost very
    different amounts. *)

type ('a, 'b) t

(** [create name] — a fresh empty table, registered for {!clear_all}.
    Keys use structural equality and hashing, so they must be pure data
    (no functions, no cyclic values). *)
val create : string -> ('a, 'b) t

val name : ('a, 'b) t -> string

(** Number of memoized entries. *)
val size : ('a, 'b) t -> int

(** [find_or_add t key f] — the memoized value of [key], computing it
    with [f] on first use.  Equal keys always get the one stored value:
    when a racing domain stored its own first, that value is returned and
    this call's copy dropped.  Records a [memo-hits] or [memo-misses]
    ambient trace count. *)
val find_or_add : ('a, 'b) t -> 'a -> (unit -> 'b) -> 'b

val clear : ('a, 'b) t -> unit

(** Empty every table ever {!create}d — restores the process to a true
    cold-compile state (benchmarks; tests that measure miss paths). *)
val clear_all : unit -> unit
