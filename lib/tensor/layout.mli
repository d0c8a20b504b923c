(** The paper's dense matrix layouts (Figure 2) feeding the SIMD multiply
    instructions: 1-column (vmpy), 2-column (vmpa), 4-column (vrmpy), plus
    the row-major interchange format.  Tensors of any rank are viewed as a
    matrix (rows = product of leading dims, cols = last dim). *)

type t = Row_major | Col1 | Col2 | Col4

val all : t list
val name : t -> string
val pp : Format.formatter -> t -> unit

(** Rows per panel: one vector load's worth of rows for the device's
    vector width (128 / 64 / 32 on the 128-byte
    {!Gcd2_devices.Desc.hexagon698}; 1 for row-major). *)
val panel_rows : desc:Gcd2_devices.Desc.t -> t -> int

(** Columns stored adjacently within a panel (1 / 2 / 4). *)
val column_group : t -> int

(** Dimensions after padding to panel/group granularity. *)
val padded_dims : desc:Gcd2_devices.Desc.t -> t -> rows:int -> cols:int -> int * int

(** Bytes of an int8 matrix in this layout, padding included.  [desc]
    defaults to {!Gcd2_devices.Desc.hexagon698} only for the benchmark
    harness; library callers pass it. *)
val padded_bytes : ?desc:Gcd2_devices.Desc.t -> t -> rows:int -> cols:int -> int

(** Linear byte offset of element [(r, c)] (paper Figure 2). *)
val offset : desc:Gcd2_devices.Desc.t -> t -> rows:int -> cols:int -> r:int -> c:int -> int

(** The paper's data-transformation cost [TC]: cycles to convert a matrix
    between layouts (zero when equal) — memory traffic over the device's
    DDR rate. *)
val transform_cycles_on : Gcd2_devices.Desc.t -> src:t -> dst:t -> rows:int -> cols:int -> int
