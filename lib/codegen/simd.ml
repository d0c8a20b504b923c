(** The SIMD multiply instruction choices the compiler selects among for a
    matmul-like operator, and the data layout each requires (paper
    Section III).  The K-padding granularity comes from how each kernel
    walks the reduction dimension: [vmpy] drains its 16-bit accumulator
    every 2 steps, while [vmpa]/[vrmpy] consume groups of 4 columns. *)

module Layout = Gcd2_tensor.Layout

type t = I_vmpy | I_vmpa | I_vrmpy

let all = [ I_vmpy; I_vmpa; I_vrmpy ]

let name = function I_vmpy -> "vmpy" | I_vmpa -> "vmpa" | I_vrmpy -> "vrmpy"
let pp ppf t = Fmt.string ppf (name t)

(** Layout required for the activations (and produced for the output). *)
let layout = function I_vmpy -> Layout.Col1 | I_vmpa -> Layout.Col2 | I_vrmpy -> Layout.Col4

let of_layout = function
  | Layout.Col1 -> Some I_vmpy
  | Layout.Col2 -> Some I_vmpa
  | Layout.Col4 -> Some I_vrmpy
  | Layout.Row_major -> None

(** Rows processed per vector operation (the layout's panel height on the
    device). *)
let panel_rows ~desc t = Layout.panel_rows ~desc (layout t)

(** Reduction-dimension padding required by the kernel. *)
let k_pad = function I_vmpy -> 4 | I_vmpa -> 4 | I_vrmpy -> 4

(** Padded problem dimensions for C = A(MxK) * W(KxN) under this choice.
    M pads to the panel height, K to the kernel's reduction granularity,
    N to the output layout's column group. *)
let padded_mkn ~desc t ~m ~k ~n =
  let module S = Gcd2_util.Stats in
  ( S.round_up m (panel_rows ~desc t),
    S.round_up k (k_pad t),
    S.round_up n (Layout.column_group (layout t)) )

(** Total int8 bytes (with padding) of A, W and C — the "Total Data Size
    w/ Pad" column of the paper's Table II. *)
let padded_data_bytes ~desc t ~m ~k ~n =
  let mp, kp, np = padded_mkn ~desc t ~m ~k ~n in
  (mp * kp) + (kp * np) + (mp * np)
