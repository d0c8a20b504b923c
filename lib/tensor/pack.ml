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

(** [store layout ~rows ~cols data dst off] writes the layout's padded
    bytes of a logical row-major [rows] x [cols] int8 matrix into [dst] at
    [off], padding zeroed. *)
let store layout ~rows ~cols data dst off =
  if Array.length data <> rows * cols then invalid_arg "Pack.store: size mismatch";
  Bytes.fill dst off (Layout.padded_bytes ~desc layout ~rows ~cols) '\000';
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Bytes.set_uint8 dst
        (off + Layout.offset ~desc layout ~rows ~cols ~r ~c)
        (data.((r * cols) + c) land 0xff)
    done
  done

(** Inverse of {!store}: the logical matrix packed in [src] at [off]. *)
let load layout ~rows ~cols src off =
  let out = Array.make (rows * cols) 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      out.((r * cols) + c) <-
        Bytes.get_int8 src (off + Layout.offset ~desc layout ~rows ~cols ~r ~c)
    done
  done;
  out

(** [pack layout ~rows ~cols data] lays out a logical row-major [rows] x
    [cols] int8 matrix: {!store}'s bytes as signed values. *)
let pack layout ~rows ~cols data =
  let b = Bytes.create (Layout.padded_bytes ~desc layout ~rows ~cols) in
  store layout ~rows ~cols data b 0;
  { layout; rows; cols; bytes = Array.init (Bytes.length b) (Bytes.get_int8 b) }

(** Inverse of {!pack} (drops padding). *)
let unpack buf =
  let out = Array.make (buf.rows * buf.cols) 0 in
  for r = 0 to buf.rows - 1 do
    for c = 0 to buf.cols - 1 do
      out.((r * buf.cols) + c) <-
        buf.bytes.(Layout.offset ~desc buf.layout ~rows:buf.rows ~cols:buf.cols ~r ~c)
    done
  done;
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
