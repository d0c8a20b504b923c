(** The searchable codegen-shape space behind the autotuner: validated
    candidates (spec invariants, register files, VTCM working set). *)

(** VTCM working set of one output tile streaming through a panel
    (activation strip, prepacked weight streams, output vectors,
    in-flight rotation windows). *)
val footprint_bytes : Matmul.spec -> int

(** Spec invariants + register files + VTCM capacity. *)
val feasible : ?per_channel:bool -> Matmul.spec -> bool

(** Every feasible {!Unroll.setting} for the spec's problem, most
    promising first (deep/wide unrolls lead; rotations fan out from the
    historical (2,2)).  Deterministic; built on {!Unroll.grid}. *)
val space : Matmul.spec -> Unroll.setting list
