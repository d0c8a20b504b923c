(** Compile-time weight prepacking and activation/output staging for the
    matmul kernels: weights become 4-byte words the kernels [Sload]
    directly into the multiplies' scalar operands (byte orders per
    instruction; see the implementation notes).  Activations and outputs
    are staged for hexagon698, the simulator's device. *)

(** K and N as the kernel iterates them (padded). *)
val padded_kn : Simd.t -> k:int -> n:int -> int * int

(** [prepack simd ~k ~n w] — [w] row-major K x N; result is the byte
    buffer of packed weight words. *)
val prepack : Simd.t -> k:int -> n:int -> int array -> int array

(** [store_prepacked simd ~k ~n w dst off] writes {!prepack}'s bytes
    straight into [dst] at [off], in one pass over [w].  [src_off] reads
    the K x N matrix from [w] at that index; [transposed] reads it from
    its row-major N x K transpose there instead. *)
val store_prepacked :
  ?src_off:int -> ?transposed:bool -> Simd.t -> k:int -> n:int -> int array -> Bytes.t ->
  int -> unit

val prepacked_bytes : Simd.t -> k:int -> n:int -> int

(** Byte stride between consecutive output columns' weight streams. *)
val column_stride : Simd.t -> k:int -> int

(** Pack an M x K activation matrix (kernel layout, K padded). *)
val pack_activations : Simd.t -> m:int -> k:int -> int array -> int array

(** [store_activations simd ~m ~k a dst off] writes {!pack_activations}'s
    bytes straight into [dst] at [off]; [src_off] reads the M x K matrix
    from [a] at that index. *)
val store_activations :
  ?src_off:int -> Simd.t -> m:int -> k:int -> int array -> Bytes.t -> int -> unit

(** Staged activation buffer size (int8, layout-padded M x K). *)
val activation_bytes : Simd.t -> m:int -> k:int -> int

(** Output buffer size (int8, layout-padded M x N). *)
val output_bytes : Simd.t -> m:int -> n:int -> int

(** Recover the logical row-major M x N matrix from the output buffer. *)
val unpack_output : Simd.t -> m:int -> n:int -> int array -> int array

(** The same, read straight from the output buffer in [src] at [off]. *)
val load_output : Simd.t -> m:int -> n:int -> Bytes.t -> int -> int array

(** [load_output_into simd ~m ~n src off out out_off] is {!load_output}
    written into [out] from index [out_off]. *)
val load_output_into : Simd.t -> m:int -> n:int -> Bytes.t -> int -> int array -> int -> unit

(** Prepack per-channel requantization multipliers as the vectors the
    kernels' [Vscalev] epilogues load (see {!Matmul.generate}). *)
val prepack_channel_mults : Simd.t -> n:int -> int array -> int array
