(** Materialized layout buffers — what the generated DSP code actually
    loads and stores, laid out for hexagon698, the simulator's device.
    [pack] zero-pads; [unpack] recovers the logical matrix. *)

type buffer = {
  layout : Layout.t;
  rows : int;  (** logical (unpadded) rows *)
  cols : int;  (** logical (unpadded) columns *)
  bytes : int array;  (** int8 values, length {!Layout.padded_bytes} *)
}

(** Lay out a logical row-major [rows] x [cols] int8 matrix. *)
val pack : Layout.t -> rows:int -> cols:int -> int array -> buffer

(** Inverse of {!pack} (drops padding). *)
val unpack : buffer -> int array

(** [store layout ~rows ~cols data dst off] writes the bytes {!pack}
    would build straight into [dst] at [off] (padding zeroed), with no
    intermediate buffer. *)
val store : Layout.t -> rows:int -> cols:int -> int array -> Bytes.t -> int -> unit

(** Inverse of {!store}: the logical row-major matrix packed in [src] at
    [off], as signed int8 values. *)
val load : Layout.t -> rows:int -> cols:int -> Bytes.t -> int -> int array

(** Pack a tensor through its matrix view. *)
val pack_tensor : Layout.t -> Tensor.t -> buffer

(** Re-layout a buffer (the runtime transformation whose cost is
    {!Layout.transform_cycles_on}). *)
val convert : buffer -> Layout.t -> buffer
