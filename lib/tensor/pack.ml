(** Materialization of layout-specific int8 buffers (what the generated DSP
    code actually loads and stores).  [pack] pads with zeros; [unpack]
    recovers the logical row-major matrix.  Buffers are laid out for the
    simulator's device, hexagon698 (the only one it executes). *)

let desc = Gcd2_devices.Desc.hexagon698

type buffer = {
  layout : Layout.t;
  rows : int;  (** logical (unpadded) rows *)
  cols : int;  (** logical (unpadded) columns *)
  bytes : int array;  (** int8 values, length {!Layout.padded_bytes} *)
}

(* The Figure 2 placement as runs.  [Layout.offset] of element (r, c) is
   [panel * pr * pcols + group * pr * g + r_in * g + c_in]: along one
   column of one panel, consecutive rows sit [g] bytes apart and
   consecutive row-major indices [cols] apart.  So the walk goes panel by
   panel, column group by column group, with all division and panel
   arithmetic outside the per-element loop that [f] runs. *)
let iter_runs layout ~rows ~cols ~pcols f =
  match layout with
  | Layout.Row_major ->
    for r = 0 to rows - 1 do
      f ~src:(r * cols) ~src_step:1 ~dst:(r * pcols) ~dst_step:1 ~len:cols
    done
  | _ ->
    let pr = Layout.panel_rows ~desc layout and g = Layout.column_group layout in
    for p = 0 to ((rows + pr - 1) / pr) - 1 do
      let r0 = p * pr in
      let len = min pr (rows - r0) in
      for grp = 0 to ((cols + g - 1) / g) - 1 do
        let dst0 = (r0 * pcols) + (grp * pr * g) in
        for c_in = 0 to min g (cols - (grp * g)) - 1 do
          let c = (grp * g) + c_in in
          f ~src:((r0 * cols) + c) ~src_step:cols ~dst:(dst0 + c_in) ~dst_step:g ~len
        done
      done
    done

(* [Layout.padded_dims] with the column count padded to [pcols] instead
   when given (staged activations, whose K the kernel pads further). *)
let padded_size layout ~rows ~cols ~pcols =
  let pr, pc = Layout.padded_dims ~desc layout ~rows ~cols in
  match pcols with
  | None -> (pc, pr * pc)
  | Some p ->
    if p < cols || p mod Layout.column_group layout <> 0 then
      invalid_arg "Pack: padded column count below the columns or off the group";
    (p, pr * p)

(* Element (r, c) of the staged matrix is [data.(src_off + ((r * cols + c)
   mod period))]: [period = rows * cols] reads a matrix at [src_off], a
   smaller [period] repeats [data] (the reference's broadcast rule).  The
   index is advanced with at most one subtraction per element. *)
let store_gen ~pcols ~src_off ~period layout ~rows ~cols data dst off =
  let pcols, bytes = padded_size layout ~rows ~cols ~pcols in
  Bytes.fill dst off bytes '\000';
  if rows * cols > 0 then begin
    if period <= 0 || src_off < 0 || src_off + period > Array.length data then
      invalid_arg "Pack.store: source out of bounds";
    iter_runs layout ~rows ~cols ~pcols (fun ~src ~src_step ~dst:d ~dst_step ~len ->
        let step = src_step mod period and j = ref (src mod period) in
        for i = 0 to len - 1 do
          Bytes.unsafe_set dst
            (off + d + (i * dst_step))
            (Char.unsafe_chr (Array.unsafe_get data (src_off + !j) land 0xff));
          j := !j + step;
          if !j >= period then j := !j - period
        done)
  end

(** [store layout ~rows ~cols data dst off] writes the layout's padded
    bytes of a logical row-major [rows] x [cols] int8 matrix into [dst] at
    [off], padding zeroed. *)
let store ?pcols ?src_off layout ~rows ~cols data dst off =
  let period = rows * cols in
  (match src_off with
  | None -> if Array.length data <> period then invalid_arg "Pack.store: size mismatch"
  | Some _ -> ());
  store_gen ~pcols ~src_off:(Option.value ~default:0 src_off) ~period layout ~rows ~cols data
    dst off

(** [store_broadcast layout ~rows ~cols b dst off]: {!store} of the
    [rows] x [cols] matrix whose element [i] (row-major) is
    [b.(i mod Array.length b)]. *)
let store_broadcast layout ~rows ~cols b dst off =
  store_gen ~pcols:None ~src_off:0 ~period:(Array.length b) layout ~rows ~cols b dst off

(** [load_into layout ~rows ~cols src off out out_off]: the logical matrix
    packed in [src] at [off], as signed int8 values, into [out] from
    [out_off]. *)
let load_into layout ~rows ~cols src off out out_off =
  let pcols, bytes = padded_size layout ~rows ~cols ~pcols:None in
  if off < 0 || off + bytes > Bytes.length src then invalid_arg "Pack.load: source out of bounds";
  if out_off < 0 || out_off + (rows * cols) > Array.length out then
    invalid_arg "Pack.load: destination out of bounds";
  iter_runs layout ~rows ~cols ~pcols (fun ~src:s ~src_step ~dst ~dst_step ~len ->
      for i = 0 to len - 1 do
        Array.unsafe_set out
          (out_off + s + (i * src_step))
          ((Char.code (Bytes.unsafe_get src (off + dst + (i * dst_step))) lxor 0x80) - 0x80)
      done)

(** Inverse of {!store}: the logical matrix packed in [src] at [off]. *)
let load layout ~rows ~cols src off =
  let out = Array.make (rows * cols) 0 in
  load_into layout ~rows ~cols src off out 0;
  out

(** [pack layout ~rows ~cols data] lays out a logical row-major [rows] x
    [cols] int8 matrix: {!store}'s bytes as signed values. *)
let pack layout ~rows ~cols data =
  let b = Bytes.create (Layout.padded_bytes ~desc layout ~rows ~cols) in
  store layout ~rows ~cols data b 0;
  { layout; rows; cols; bytes = Array.init (Bytes.length b) (Bytes.get_int8 b) }

(** Inverse of {!pack} (drops padding). *)
let unpack buf =
  let { layout; rows; cols; bytes } = buf in
  let pcols, size = padded_size layout ~rows ~cols ~pcols:None in
  if Array.length bytes < size then invalid_arg "Pack.unpack: buffer too short";
  let out = Array.make (rows * cols) 0 in
  iter_runs layout ~rows ~cols ~pcols (fun ~src ~src_step ~dst ~dst_step ~len ->
      for i = 0 to len - 1 do
        Array.unsafe_set out (src + (i * src_step)) (Array.unsafe_get bytes (dst + (i * dst_step)))
      done);
  out

(** Pack a tensor through its matrix view. *)
let pack_tensor layout t =
  let rows, cols = Tensor.matrix_dims t in
  pack layout ~rows ~cols t.Tensor.data

(** Re-layout an existing buffer (the runtime transformation whose cost is
    {!Layout.transform_cycles_on}). *)
let convert buf dst_layout =
  if buf.layout = dst_layout then buf
  else pack dst_layout ~rows:buf.rows ~cols:buf.cols (unpack buf)
