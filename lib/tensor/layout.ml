(** The paper's dense matrix layouts (its Figure 2), which feed the three
    SIMD multiply instructions:

    - {b 1-column} ([Col1], for [vmpy]): panels of 128 rows stored
      column-major, so one 128-byte vector load fetches 128 rows of a
      single column.  Rows pad to a multiple of 128.
    - {b 2-column} ([Col2], for [vmpa]): panels of 64 rows; two adjacent
      columns interleave within a panel, so a vector-pair load fetches
      64 rows of 4 columns.  Rows pad to 64, columns to 2.
    - {b 4-column} ([Col4], for [vrmpy]): panels of 32 rows; four adjacent
      columns interleave, so one vector load fetches 32 rows of 4 columns.
      Rows pad to 32, columns to 4.
    - [Row_major] is the framework-interchange layout (no padding).

    A tensor of any rank is viewed as a matrix: rows = product of the
    leading dimensions, columns = the last (channel/feature) dimension. *)

module Stats = Gcd2_util.Stats
module Desc = Gcd2_devices.Desc

type t = Row_major | Col1 | Col2 | Col4

let all = [ Row_major; Col1; Col2; Col4 ]

let name = function
  | Row_major -> "row-major"
  | Col1 -> "1-column"
  | Col2 -> "2-column"
  | Col4 -> "4-column"

let pp ppf l = Fmt.string ppf (name l)

(** Rows per panel: one vector load's worth of rows ([vector_bytes] over
    the column group, so 128/64/32 on the default 128-byte device). *)
let panel_rows ~desc l =
  let vb = desc.Desc.vector_bytes in
  match l with Row_major -> 1 | Col1 -> vb | Col2 -> vb / 2 | Col4 -> vb / 4

(** Columns stored adjacently within a panel. *)
let column_group = function Row_major -> 1 | Col1 -> 1 | Col2 -> 2 | Col4 -> 4

(** Dimensions after padding to the layout's panel/group granularity. *)
let padded_dims ~desc l ~rows ~cols =
  match l with
  | Row_major -> (rows, cols)
  | _ -> (Stats.round_up rows (panel_rows ~desc l), Stats.round_up cols (column_group l))

(** Bytes occupied by an int8 matrix in this layout (padding included).
    The hexagon698 default serves only the benchmark harness's replay of
    the simulator's staging; library callers pass the device. *)
let padded_bytes ?(desc = Desc.hexagon698) l ~rows ~cols =
  let r, c = padded_dims ~desc l ~rows ~cols in
  r * c

(** Linear byte offset of element [(r, c)] (paper Figure 2). *)
let offset ~desc l ~rows ~cols ~r ~c =
  let _, pc = padded_dims ~desc l ~rows ~cols in
  match l with
  | Row_major -> (r * cols) + c
  | _ ->
    let pr = panel_rows ~desc l and g = column_group l in
    let panel = r / pr and r_in = r mod pr in
    let group = c / g and c_in = c mod g in
    (panel * pr * pc) + (group * pr * g) + (r_in * g) + c_in

(** Estimated cycles to convert a [rows] x [cols] int8 matrix from layout
    [src] to layout [dst] — the paper's data-transformation cost
    [TC(ep_i, ep_j)], zero when no conversion is needed.  Repacking streams
    the source and destination buffers through memory (the permute slot is
    never the bottleneck), so the cost is the traffic over the device's
    DDR rate. *)
let transform_cycles_on (desc : Desc.t) ~src ~dst ~rows ~cols =
  if src = dst then 0
  else begin
    let bytes = padded_bytes ~desc src ~rows ~cols + padded_bytes ~desc dst ~rows ~cols in
    int_of_float (Float.ceil (float_of_int bytes /. desc.Desc.ddr_bytes_per_cycle))
  end
