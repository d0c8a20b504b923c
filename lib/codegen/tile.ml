(** The searchable codegen-shape space behind the autotuner.

    A candidate is a full {!Unroll.setting}: the output-column ("Out")
    and reduction ("Mid") unrolls of the paper's Figure 12 plus the
    generators' register-rotation depths ([abuf]/[wbuf]), which the
    heuristics pin to the historical double-buffer depth of 2.  The
    space is validated, not merely enumerated — a candidate must

    - satisfy the generator's spec invariants ({!Matmul.validate_spec}),
    - fit the device's register files ({!Matmul.fits_registers}), and
    - keep the tile's working set within VTCM
      ({!Gcd2_devices.Desc.t.vtcm_bytes}). *)

module Desc = Gcd2_devices.Desc
module Stats = Gcd2_util.Stats

(* ------------------------------------------------------------------ *)
(* VTCM working set                                                    *)

(** Bytes the kernel keeps live in VTCM while one output tile streams
    through a panel: the panel's activation strip (the full padded
    reduction extent — the k loop re-reads it per panel), the prepacked
    weight streams of the [un] unrolled columns, the tile's output
    vectors, and the in-flight rotation windows ([abuf] activation
    vectors, [wbuf] weight words per column).  Deliberately excludes
    whole-tensor staging: that is the scheduler's concern, not the
    kernel's. *)
let footprint_bytes (s : Matmul.spec) =
  let vb = s.device.Desc.vector_bytes in
  let kp, _ = Weights.padded_kn s.simd ~k:s.k ~n:s.n in
  let panel = Simd.panel_rows ~desc:s.device s.simd in
  let group = Gcd2_tensor.Layout.column_group (Simd.layout s.simd) in
  let act_strip = panel * kp in
  let weights = s.un * Weights.column_stride s.simd ~k:s.k in
  let out = Stats.ceil_div s.un group * vb in
  let in_flight = (s.abuf * 4 * vb) + (s.un * s.wbuf * 4) in
  act_strip + weights + out + in_flight

(* ------------------------------------------------------------------ *)
(* Feasibility                                                         *)

(** Is the spec one the generator accepts, that fits the register files,
    and whose working set fits VTCM?  The tuner only costs feasible
    candidates; the qcheck suite checks every feasible candidate really
    generates. *)
let feasible ?per_channel (s : Matmul.spec) =
  match Matmul.validate_spec s with
  | exception Invalid_argument _ -> false
  | () ->
    Matmul.fits_registers ?per_channel s
    && footprint_bytes s <= s.device.Desc.vtcm_bytes

(* ------------------------------------------------------------------ *)
(* Candidate space                                                     *)

(* Rotation-depth pairs, nearest the historical (2,2) first: under a
   costing budget, the candidates costed first should be the likely
   winners. *)
let rotations =
  let all =
    List.concat_map
      (fun a -> List.map (fun w -> (a, w)) (List.init Matmul.max_rot (fun i -> i + 1)))
      (List.init Matmul.max_rot (fun i -> i + 1))
  in
  let dist (a, w) = abs (a - 2) + abs (w - 2) in
  List.stable_sort (fun p q -> compare (dist p, p) (dist q, q)) all

(** Every feasible {!Unroll.setting} for [base]'s problem, most
    promising first: deep reduction unrolls and wide column unrolls
    lead (longer straight-line blocks pack denser under zero-overhead
    loops), rotation depths fan out from the historical (2,2).  The
    order is deterministic; the unroll grid is shared with the
    Figure-12 exhaustive baseline ({!Unroll.grid}). *)
let space (base : Matmul.spec) =
  let grid = Unroll.grid ~extended:true base.Matmul.simd ~k:base.Matmul.k ~n:base.Matmul.n in
  let grid =
    List.stable_sort (fun (un, ug) (un', ug') -> compare (-ug, -un) (-ug', -un')) grid
  in
  List.concat_map
    (fun (un, ug) ->
      List.filter_map
        (fun (abuf, wbuf) ->
          let setting = { Unroll.un; ug; abuf; wbuf } in
          if feasible { base with Matmul.un; ug; abuf; wbuf } then Some setting else None)
        rotations)
    grid
