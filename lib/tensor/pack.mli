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
    intermediate buffer.  [pcols] pads the columns to that count instead
    of the layout's group (a multiple of the group, at least [cols]: the
    staged activations, whose K the kernel pads further); [src_off] reads
    the matrix from [data] at that index instead of requiring [data] to
    be exactly the matrix. *)
val store :
  ?pcols:int -> ?src_off:int -> Layout.t -> rows:int -> cols:int -> int array -> Bytes.t ->
  int -> unit

(** [store_broadcast layout ~rows ~cols b dst off] is {!store} of the
    [rows] x [cols] matrix whose row-major element [i] is
    [b.(i mod Array.length b)] — the reference's broadcast rule — read
    straight from [b]. *)
val store_broadcast : Layout.t -> rows:int -> cols:int -> int array -> Bytes.t -> int -> unit

(** Inverse of {!store}: the logical row-major matrix packed in [src] at
    [off], as signed int8 values. *)
val load : Layout.t -> rows:int -> cols:int -> Bytes.t -> int -> int array

(** [load_into layout ~rows ~cols src off out out_off] is {!load} written
    into [out] from index [out_off]. *)
val load_into : Layout.t -> rows:int -> cols:int -> Bytes.t -> int -> int array -> int -> unit

(** Pack a tensor through its matrix view. *)
val pack_tensor : Layout.t -> Tensor.t -> buffer

(** Re-layout a buffer (the runtime transformation whose cost is
    {!Layout.transform_cycles_on}). *)
val convert : buffer -> Layout.t -> buffer
