(** Budgeted kernel-shape autotuning over {!Tile.space}: heuristic
    baseline always costed first (tuned is never worse), then
    promising-first full costings up to the budget, optional VM
    verification of the winner.  See the implementation's module
    documentation for the trace counters. *)

type config = {
  budget : int;  (** max full kernel costings per (problem, SIMD choice) *)
  verify : bool;
      (** run the winner on the fast VM against the heuristic kernel on
          deterministic data; fall back on mismatch.  Costs a full
          problem-size execution per tuned kernel — a debugging aid, not
          a default. *)
}

val default_budget : int

(** [{ budget = default_budget; verify = false }]. *)
val default : config

(** ["BUDGET"] or ["BUDGET+verify"] — inverse of {!of_string}. *)
val to_string : config -> string

(** Parse a request-line tune spec: a positive budget (["32"]), ["on"]
    (the default budget), ["verify"] / ["BUDGET+verify"] (VM-verify the
    winner).  [Error reason] on anything else. *)
val of_string : string -> (config, string) result

(** Best setting within budget; never worse than {!Unroll.adaptive} in
    modeled cycles.  The spec's own unroll/rotation knobs are ignored. *)
val tune : config -> Matmul.spec -> Unroll.setting
