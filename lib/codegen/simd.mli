(** The SIMD multiply instruction choices and the layout each requires
    (paper Section III). *)

module Layout = Gcd2_tensor.Layout

type t = I_vmpy | I_vmpa | I_vrmpy

val all : t list
val name : t -> string
val pp : Format.formatter -> t -> unit

(** Layout required for activations and produced for outputs. *)
val layout : t -> Layout.t

val of_layout : Layout.t -> t option

(** Rows per vector operation (the layout's panel height on the
    device). *)
val panel_rows : desc:Gcd2_devices.Desc.t -> t -> int

(** Reduction-dimension padding granularity (4 for all kernels: one
    weight word covers four reduction steps). *)
val k_pad : t -> int

(** Padded M, K, N for C = A(MxK) * W(KxN) under this choice. *)
val padded_mkn : desc:Gcd2_devices.Desc.t -> t -> m:int -> k:int -> n:int -> int * int * int

(** Total padded int8 bytes of A, W and C (the paper's Table II "Total
    Data Size w/ Pad"; a matmul plan's DDR traffic). *)
val padded_data_bytes : desc:Gcd2_devices.Desc.t -> t -> m:int -> k:int -> n:int -> int
