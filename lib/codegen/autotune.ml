(** Budgeted kernel-shape autotuning.

    The shape-adaptive heuristic ({!Unroll.adaptive}) picks one loop
    nest per SIMD choice; the tuner instead searches {!Tile.space} — the
    validated (un, ug, abuf, wbuf) candidates — under a budget of full
    kernel costings.  In promising-first order, each candidate is
    generated + packed ({!Matmul.cycles}, memoized process-wide) until
    the budget is spent, and replaces the incumbent when strictly
    cheaper.

    The heuristic's setting is always costed first, so the tuned result
    is never worse than the heuristic ("tuned <= adaptive" holds by
    construction).  With [verify] set, the winner additionally runs on
    the fast VM against the heuristic kernel on deterministic data, and
    any output mismatch falls back to the heuristic (candidates only
    reshape the loop nest, so a mismatch means a generator bug — the
    qcheck suite keeps this path cold).  Verifying for a device the VM
    cannot execute raises [Invalid_argument] naming it.

    Ambient trace counters: [tune-candidates] (feasible candidates
    considered), [tune-costed] (budget actually spent),
    [tune-vm-verified] (VM verification runs). *)

module Trace = Gcd2_util.Trace

type config = {
  budget : int;  (** max full kernel costings per (problem, SIMD choice) *)
  verify : bool;  (** run the winner on the VM against the heuristic *)
}

(** Enough budget to cover the deep-unroll frontier of every SIMD choice
    while keeping tuned compiles within a small multiple of a heuristic
    compile (kernel costings are memoized process-wide, so repeated
    shapes tune once). *)
let default_budget = 32

let default = { budget = default_budget; verify = false }

(* Round-trip textual form, used by request lines (`tune=...`) and the
   daemon's single-flight key. *)
let to_string t =
  if t.verify then Printf.sprintf "%d+verify" t.budget else string_of_int t.budget

let of_string s =
  let error () =
    Error
      (Printf.sprintf "bad tune spec %S (want BUDGET[+verify], `on` or `verify`)" s)
  in
  let budget_of = function
    | "" | "on" -> Some default_budget
    | b -> ( match int_of_string_opt b with Some n when n >= 1 -> Some n | _ -> None)
  in
  match String.split_on_char '+' (String.lowercase_ascii (String.trim s)) with
  | [ "verify" ] -> Ok { default with verify = true }
  | [ b ] -> (
    match budget_of b with Some budget -> Ok { budget; verify = false } | None -> error ())
  | [ b; "verify" ] -> (
    match budget_of b with Some budget -> Ok { budget; verify = true } | None -> error ())
  | _ -> error ()

(* Deterministic operand data for VM verification: no RNG dependency,
   full int8 range, co-prime strides so rows/columns do not repeat. *)
let verify_operand n = Array.init n (fun i -> (((i * 37) + ((i * i) mod 101)) mod 256) - 128)

(* Outputs must be bit-identical across candidates: the knobs only
   reshape the loop nest.  Fused-activation tables live outside the
   kernel, so verification strips them and compares raw requantized
   outputs. *)
let vm_outputs_equal baseline_spec tuned_spec =
  let base = { baseline_spec with Matmul.act_table = None } in
  let tuned = { tuned_spec with Matmul.act_table = None } in
  let a = verify_operand (base.Matmul.m * base.Matmul.k) in
  let w = verify_operand (base.Matmul.k * base.Matmul.n) in
  Trace.count "tune-vm-verified" 1;
  let r_base = Testbench.run base ~a ~w in
  let r_tuned = Testbench.run tuned ~a ~w in
  r_base.Testbench.data = r_tuned.Testbench.data

let spec_with (base : Matmul.spec) (u : Unroll.setting) =
  { base with Matmul.un = u.Unroll.un; ug = u.Unroll.ug; abuf = u.Unroll.abuf; wbuf = u.Unroll.wbuf }

(** [tune config base] — the best {!Unroll.setting} found for [base]'s
    problem within [config.budget] kernel costings; never worse than
    {!Unroll.adaptive} (modeled cycles).  [base]'s own [un]/[ug]/[abuf]/
    [wbuf] are ignored. *)
let tune config (base : Matmul.spec) =
  Trace.in_span "autotune" @@ fun () ->
  let d = base.Matmul.device in
  if config.verify && not (Gcd2_vm.Machine.executable d) then
    invalid_arg
      (Fmt.str "tune verification runs kernels on the simulator, which cannot execute %s"
         d.Gcd2_devices.Desc.name);
  let baseline =
    Unroll.adaptive base.Matmul.simd ~m:base.Matmul.m ~k:base.Matmul.k ~n:base.Matmul.n
  in
  let best = ref baseline and best_cycles = ref (Matmul.cycles (spec_with base baseline)) in
  let costed = ref 1 in
  let consider u =
    if u <> baseline then begin
      Trace.count "tune-candidates" 1;
      if !costed < config.budget then begin
        incr costed;
        Trace.count "tune-costed" 1;
        let c = Matmul.cycles (spec_with base u) in
        if c < !best_cycles then begin
          best := u;
          best_cycles := c
        end
      end
    end
  in
  List.iter consider (Tile.space base);
  if config.verify && !best <> baseline
     && not (vm_outputs_equal (spec_with base baseline) (spec_with base !best))
  then baseline
  else !best
