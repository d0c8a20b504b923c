(** Compile-time weight prepacking and activation/output staging for the
    matmul kernels.

    Each SIMD choice wants its weights as little-endian 4-byte words the
    kernel can [Sload] straight into the multiply's scalar operand:

    - [vmpy]: four consecutive-k weights per word; the kernel's
      byte-select multiply ([Vmpyb]) broadcasts one byte per reduction
      step (the "splat one element" of paper Figure 2a); word (g, n) at
      [n*(Kp/4) + g].
    - [vmpa]: four consecutive-k weights of one column in the lane order
      the instruction consumes: (k0, k2, k1, k3); word (g, n) at
      [n*(Kp/4) + g].
    - [vrmpy]: four consecutive-k weights in natural order (k0..k3); word
      (g, n) at [n*(Kp/4) + g]. *)

module Layout = Gcd2_tensor.Layout
module Pack = Gcd2_tensor.Pack
module Stats = Gcd2_util.Stats

(* Activations and outputs are staged for the simulator's device, the
   only one it executes. *)
let desc = Gcd2_devices.Desc.hexagon698

(** K and N as the kernel actually iterates them. *)
let padded_kn simd ~k ~n =
  let kp = Stats.round_up k (Simd.k_pad simd) in
  let np = Stats.round_up n (Layout.column_group (Simd.layout simd)) in
  (kp, np)

(** Byte size of the prepacked weight buffer. *)
let prepacked_bytes simd ~k ~n =
  let kp, np = padded_kn simd ~k ~n in
  ignore simd;
  4 * np * (kp / 4)

(* Weight (kk, nn) is byte [kk mod 4] of word (kk / 4, nn), at
   [nn * Kp + kk] within the buffer, except that vmpa's byte order
   (0, 2, 1, 3), being its own inverse, swaps bytes 1 and 2. *)
let[@inline] slot ~swap kk = if swap && (kk + 1) land 3 >= 2 then kk lxor 3 else kk

(** [store_prepacked simd ~k ~n w dst off] — [w] is the logical row-major
    K x N weight matrix; writes its 4-byte words as described above into
    [dst] at [off], padding zeroed.  [src_off] reads the matrix from [w]
    at that index; [transposed] reads it as its row-major N x K
    transpose. *)
let store_prepacked ?src_off ?(transposed = false) simd ~k ~n w dst off =
  (match src_off with
  | None -> if Array.length w <> k * n then invalid_arg "Weights.prepack: size mismatch"
  | Some o ->
    if o < 0 || o + (k * n) > Array.length w then invalid_arg "Weights.prepack: out of bounds");
  let src_off = Option.value ~default:0 src_off in
  let stride, _ = padded_kn simd ~k ~n in
  Bytes.fill dst off (prepacked_bytes simd ~k ~n) '\000';
  let swap = simd = Simd.I_vmpa in
  if transposed then
    (* row nn of the N x K source is column nn's word stream *)
    for nn = 0 to n - 1 do
      let s = src_off + (nn * k) and d = off + (nn * stride) in
      for kk = 0 to k - 1 do
        Bytes.unsafe_set dst (d + slot ~swap kk)
          (Char.unsafe_chr (Array.unsafe_get w (s + kk) land 0xff))
      done
    done
  else
    for kk = 0 to k - 1 do
      let s = src_off + (kk * n) and d = off + slot ~swap kk in
      for nn = 0 to n - 1 do
        Bytes.unsafe_set dst (d + (nn * stride))
          (Char.unsafe_chr (Array.unsafe_get w (s + nn) land 0xff))
      done
    done

(** [prepack simd ~k ~n w]: the bytes {!store_prepacked} writes, as an
    array of unsigned byte values. *)
let prepack simd ~k ~n w =
  let b = Bytes.create (prepacked_bytes simd ~k ~n) in
  store_prepacked simd ~k ~n w b 0;
  Array.init (Bytes.length b) (Bytes.get_uint8 b)

(** Byte stride between two consecutive output columns' weight streams. *)
let column_stride simd ~k =
  let kp = Stats.round_up k (Simd.k_pad simd) in
  ignore simd;
  4 * (kp / 4)

let activation_bytes simd ~m ~k =
  let kp, _ = padded_kn simd ~k ~n:1 in
  Layout.padded_bytes ~desc (Simd.layout simd) ~rows:m ~cols:kp

(** Pack an M x K activation matrix for the kernel (layout of the SIMD
    choice, K padded to the kernel granularity) into [dst] at [off],
    padding zeroed; [src_off] reads it from [a] at that index. *)
let store_activations ?src_off simd ~m ~k a dst off =
  let kp, _ = padded_kn simd ~k ~n:1 in
  let layout = Simd.layout simd in
  let _, pcols = Layout.padded_dims ~desc layout ~rows:m ~cols:kp in
  Pack.store ~pcols ?src_off layout ~rows:m ~cols:k a dst off

(** The bytes {!store_activations} writes, as signed int8 values. *)
let pack_activations simd ~m ~k a =
  let b = Bytes.create (activation_bytes simd ~m ~k) in
  store_activations simd ~m ~k a b 0;
  Array.init (Bytes.length b) (Bytes.get_int8 b)

(** Output buffer size (int8, layout-padded M x N). *)
let output_bytes simd ~m ~n = Layout.padded_bytes ~desc (Simd.layout simd) ~rows:m ~cols:n

(** Recover the logical row-major M x N matrix from the kernel's output
    buffer. *)
let unpack_output simd ~m ~n bytes =
  Pack.unpack { Pack.layout = Simd.layout simd; rows = m; cols = n; bytes }

(** The same, read straight from [src] at [off]. *)
let load_output simd ~m ~n src off = Pack.load (Simd.layout simd) ~rows:m ~cols:n src off

(** The same, written into [out] from index [out_off]. *)
let load_output_into simd ~m ~n src off out out_off =
  Pack.load_into (Simd.layout simd) ~rows:m ~cols:n src off out out_off

(* little-endian W32 lanes into a byte array *)
let blit_w32 bytes off v =
  for i = 0 to 3 do
    bytes.(off + i) <- (v asr (8 * i)) land 0xff
  done

(** Prepack per-channel requantization multipliers as the vectors the
    kernels' [Vscalev] epilogues load: for [vmpy]/[vmpa], one 32-lane
    splat vector per output column; for [vrmpy], two vectors per 4-column
    group whose lanes alternate between the group's column pairs (matching
    the post-shuffle lane order). *)
let prepack_channel_mults simd ~n mults =
  if Array.length mults <> n then invalid_arg "prepack_channel_mults: size mismatch";
  let _, np = padded_kn simd ~k:4 ~n in
  let at j = if j < n then mults.(j) else 0 in
  match simd with
  | Simd.I_vmpy | Simd.I_vmpa ->
    let bytes = Array.make (np * 128) 0 in
    for j = 0 to np - 1 do
      for l = 0 to 31 do
        blit_w32 bytes ((j * 128) + (4 * l)) (at j)
      done
    done;
    bytes
  | Simd.I_vrmpy ->
    let groups = np / 4 in
    let bytes = Array.make (groups * 256) 0 in
    for g = 0 to groups - 1 do
      for l = 0 to 31 do
        (* vector A: columns 4g / 4g+1 alternating; vector B: 4g+2 / 4g+3 *)
        blit_w32 bytes ((g * 256) + (4 * l)) (at ((4 * g) + (l mod 2)));
        blit_w32 bytes ((g * 256) + 128 + (4 * l)) (at ((4 * g) + 2 + (l mod 2)))
      done
    done;
    bytes
