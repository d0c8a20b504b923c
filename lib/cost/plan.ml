(** An execution plan for one operator (the paper's [ep_i(O)]): which SIMD
    instruction implements it (for multiply-heavy operators), the layout
    its inputs must arrive in and its output is produced in, and the cost
    components the roofline combines. *)

module Layout = Gcd2_tensor.Layout
module Simd = Gcd2_codegen.Simd
module Unroll = Gcd2_codegen.Unroll

(* Marshaled into compile artifacts (with Layout.t, Simd.t and
   Unroll.setting inside): any change to this type's layout requires
   updating Gcd2_store.Artifact.layout, or stale cache entries decode as
   garbage. *)
type t = {
  layout : Layout.t;  (** input/output data layout *)
  simd : Simd.t option;  (** multiply instruction, when applicable *)
  unroll : Unroll.setting option;
  compute_cycles : float;  (** vector-unit busy cycles (packed schedule) *)
  staging_cycles : float;  (** host-side gathers/scatters (im2col etc.) *)
  mem_bytes : float;  (** activation + weight traffic, padding included *)
  macs : int;
}

(** Roofline node cost: the DSP overlaps compute with DDR traffic, so a
    node takes the max of its compute and memory time, plus any serial
    staging.  The memory arm uses the target device's sustained DDR
    bandwidth. *)
let cycles ~desc t =
  Float.max t.compute_cycles
    (t.mem_bytes /. desc.Gcd2_devices.Desc.ddr_bytes_per_cycle)
  +. t.staging_cycles

let pp ppf t =
  Fmt.pf ppf "%a%a: %.0f cyc, %.0f B"
    Layout.pp t.layout
    Fmt.(option (fun ppf s -> Fmt.pf ppf "/%a" Simd.pp s))
    t.simd t.compute_cycles t.mem_bytes
