(** An execution plan for one operator (the paper's [ep_i(O)]): the SIMD
    instruction implementing it, the layout its tensors use, its unroll
    setting, and the roofline cost components. *)

module Layout = Gcd2_tensor.Layout
module Simd = Gcd2_codegen.Simd
module Unroll = Gcd2_codegen.Unroll

(** Marshaled into compile artifacts: any layout change requires updating
    {!Gcd2_store.Artifact}[.layout], or stale cache entries decode as
    garbage. *)
type t = {
  layout : Layout.t;  (** input/output data layout *)
  simd : Simd.t option;  (** multiply instruction, when applicable *)
  unroll : Unroll.setting option;
  compute_cycles : float;  (** vector-unit busy cycles (packed schedule) *)
  staging_cycles : float;  (** host gathers/scatters, dispatch, fallbacks *)
  mem_bytes : float;  (** activation + weight traffic, padding included *)
  macs : int;
}

(** Roofline node time: max(compute, memory) plus serial staging; the
    memory arm uses [desc]'s DDR bandwidth. *)
val cycles : desc:Gcd2_devices.Desc.t -> t -> float

val pp : Format.formatter -> t -> unit
