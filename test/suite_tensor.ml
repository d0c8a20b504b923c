(* Tests for Gcd2_tensor: layouts (paper figure 2 offsets), packing
   roundtrips, quantization, tensors. *)

module Layout = Gcd2_tensor.Layout
module Pack = Gcd2_tensor.Pack
module Quant = Gcd2_tensor.Quant
module T = Gcd2_tensor.Tensor
module Rng = Gcd2_util.Rng
module Simd = Gcd2_codegen.Simd
module Weights = Gcd2_codegen.Weights

let desc = Gcd2_devices.Desc.hexagon698

let test_fig2_offsets_col1 () =
  (* paper figure 2a: 128-row panels stored column-major *)
  let off r c = Layout.offset ~desc Layout.Col1 ~rows:256 ~cols:4 ~r ~c in
  Alcotest.(check int) "(0,0)" 0 (off 0 0);
  Alcotest.(check int) "(1,0)" 1 (off 1 0);
  Alcotest.(check int) "(0,1)" 128 (off 0 1);
  Alcotest.(check int) "(127,3)" ((3 * 128) + 127) (off 127 3);
  (* second panel starts after 128 rows x 4 cols *)
  Alcotest.(check int) "(128,0)" 512 (off 128 0)

let test_fig2_offsets_col2 () =
  (* paper figure 2b: 64-row panels, 2 adjacent columns interleave *)
  let off r c = Layout.offset ~desc Layout.Col2 ~rows:64 ~cols:4 ~r ~c in
  Alcotest.(check int) "(0,0)" 0 (off 0 0);
  Alcotest.(check int) "(0,1)" 1 (off 0 1);
  Alcotest.(check int) "(1,0)" 2 (off 1 0);
  Alcotest.(check int) "(63,1)" 127 (off 63 1);
  Alcotest.(check int) "(0,2)" 128 (off 0 2);
  Alcotest.(check int) "(0,3)" 129 (off 0 3)

let test_fig2_offsets_col4 () =
  (* paper figure 2c: 32-row panels, 4 adjacent columns interleave *)
  let off r c = Layout.offset ~desc Layout.Col4 ~rows:32 ~cols:8 ~r ~c in
  Alcotest.(check int) "(0,0..3)" 0 (off 0 0);
  Alcotest.(check int) "(0,3)" 3 (off 0 3);
  Alcotest.(check int) "(1,0)" 4 (off 1 0);
  Alcotest.(check int) "(31,3)" 127 (off 31 3);
  Alcotest.(check int) "(0,4)" 128 (off 0 4)

let test_padding () =
  Alcotest.(check int) "col1 pads rows to 128" (128 * 4)
    (Layout.padded_bytes ~desc Layout.Col1 ~rows:100 ~cols:4);
  Alcotest.(check int) "col2 pads rows to 64 and cols to 2" (64 * 2)
    (Layout.padded_bytes ~desc Layout.Col2 ~rows:33 ~cols:1);
  Alcotest.(check int) "col4 pads rows to 32 and cols to 4" (32 * 4)
    (Layout.padded_bytes ~desc Layout.Col4 ~rows:5 ~cols:3);
  Alcotest.(check int) "row-major never pads" (100 * 3)
    (Layout.padded_bytes ~desc Layout.Row_major ~rows:100 ~cols:3)

let test_pack_roundtrip () =
  let rng = Rng.create 5 in
  List.iter
    (fun layout ->
      List.iter
        (fun (rows, cols) ->
          let data = Array.init (rows * cols) (fun _ -> Rng.int8 rng) in
          let name = Fmt.str "%s %dx%d" (Layout.name layout) rows cols in
          let buf = Pack.pack layout ~rows ~cols data in
          Alcotest.(check (array int)) name data (Pack.unpack buf);
          (* [store] into a dirty buffer at an offset writes exactly
             [pack]'s bytes, padding included, and [load] inverts it *)
          let off = 3 and len = Array.length buf.Pack.bytes in
          let dst = Bytes.make (len + 8) '\x55' in
          Pack.store layout ~rows ~cols data dst off;
          Alcotest.(check (array int)) (name ^ " store = pack") buf.Pack.bytes
            (Array.init len (fun i -> Bytes.get_int8 dst (off + i)));
          Alcotest.(check (array int))
            (name ^ " load") data
            (Pack.load layout ~rows ~cols dst off))
        [ (1, 1); (7, 3); (64, 2); (129, 5); (200, 17) ])
    Layout.all

let test_pack_convert () =
  let rng = Rng.create 6 in
  let data = Array.init (150 * 6) (fun _ -> Rng.int8 rng) in
  let buf = Pack.pack Layout.Col1 ~rows:150 ~cols:6 data in
  let converted = Pack.convert buf Layout.Col4 in
  Alcotest.(check (array int)) "convert preserves contents" data (Pack.unpack converted)

let test_transform_cost () =
  Alcotest.(check int) "same layout free" 0
    (Layout.transform_cycles_on desc ~src:Layout.Col1 ~dst:Layout.Col1 ~rows:128 ~cols:128);
  let c = Layout.transform_cycles_on desc ~src:Layout.Col1 ~dst:Layout.Col4 ~rows:128 ~cols:128 in
  Alcotest.(check bool) "transform proportional to traffic" true
    (c > 16384 && c < 16384 * 4)

let test_quant_roundtrip () =
  let q = Quant.make (1.0 /. 16.0) in
  for v = -127 to 127 do
    Alcotest.(check int)
      (Fmt.str "roundtrip %d" v)
      v
      (Quant.quantize q (Quant.dequantize q v))
  done

let test_quant_invalid () =
  Alcotest.check_raises "non-positive scale"
    (Invalid_argument "Quant.make: scale must be positive") (fun () ->
      ignore (Quant.make 0.0))

let test_tensor_ops () =
  let t = T.create [| 2; 3; 4 |] in
  Alcotest.(check int) "numel" 24 (T.numel t);
  Alcotest.(check int) "rank" 3 (T.rank t);
  T.set t [| 1; 2; 3 |] 42;
  Alcotest.(check int) "get/set" 42 (T.get t [| 1; 2; 3 |]);
  Alcotest.(check (pair int int)) "matrix view" (6, 4) (T.matrix_dims t);
  let r = T.reshape t [| 6; 4 |] in
  Alcotest.(check int) "reshape preserves data" 42 (T.get r [| 5; 3 |]);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: element count mismatch") (fun () ->
      ignore (T.reshape t [| 5; 5 |]))

let test_tensor_saturates () =
  let t = T.create [| 2 |] in
  T.set t [| 0 |] 1000;
  Alcotest.(check int) "set saturates to int8" 127 (T.get t [| 0 |])

let qcheck_offsets_bijective =
  QCheck.Test.make ~name:"layout offsets are a bijection" ~count:50
    QCheck.(triple (int_range 1 150) (int_range 1 9) (int_range 0 3))
    (fun (rows, cols, l) ->
      let layout = List.nth Layout.all l in
      let seen = Hashtbl.create 97 in
      let ok = ref true in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let o = Layout.offset ~desc layout ~rows ~cols ~r ~c in
          if o < 0 || o >= Layout.padded_bytes ~desc layout ~rows ~cols then ok := false;
          if Hashtbl.mem seen o then ok := false;
          Hashtbl.add seen o ()
        done
      done;
      !ok)

(* ---- staging = Figure 2, element by element ---- *)

(* The oracle: every element placed by [Layout.offset] (the Figure 2
   definition), the region zeroed first — the per-element loops the
   staging walker replaced.  [lcols] is the column count the layout is
   padded for ([cols], or the kernel's padded K for activations). *)
let oracle_store layout ~rows ~cols ~lcols get dst off =
  Bytes.fill dst off (Layout.padded_bytes ~desc layout ~rows ~cols:lcols) '\000';
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Bytes.set_uint8 dst
        (off + Layout.offset ~desc layout ~rows ~cols:lcols ~r ~c)
        (get ((r * cols) + c) land 0xff)
    done
  done

let oracle_load layout ~rows ~cols src off =
  Array.init (rows * cols) (fun i ->
      Bytes.get_int8 src (off + Layout.offset ~desc layout ~rows ~cols ~r:(i / cols) ~c:(i mod cols)))

(* The weight prepacking oracle: byte [j] of word (g, n) holds weight
   [4g + order.(j)], looked up per byte. *)
let oracle_prepack simd ~k ~n get dst off =
  let kp, _ = Weights.padded_kn simd ~k ~n in
  let groups = kp / 4 in
  let order = match simd with Simd.I_vmpa -> [| 0; 2; 1; 3 |] | _ -> [| 0; 1; 2; 3 |] in
  Bytes.fill dst off (Weights.prepacked_bytes simd ~k ~n) '\000';
  for nn = 0 to n - 1 do
    for g = 0 to groups - 1 do
      for j = 0 to 3 do
        let kk = (4 * g) + order.(j) in
        if kk < k then
          Bytes.set_uint8 dst (off + (4 * ((nn * groups) + g)) + j) (get kk nn land 0xff)
      done
    done
  done

let qcheck_staging_matches_fig2 =
  QCheck.Test.make ~name:"staging places every element as Figure 2" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let int8 () = Rng.int rng 256 - 128 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (* a dirty buffer with the window at a random offset; [check] then
         compares it whole against the oracle's, so bytes outside the
         window must be untouched and padding zero *)
      let dirty size =
        let off = Rng.int rng 40 in
        let b = Bytes.init (off + size + Rng.int rng 40) (fun _ -> Char.chr (Rng.int rng 256)) in
        (b, off)
      in
      let check what (b, off) stage oracle =
        let want = Bytes.copy b in
        stage b off;
        oracle want off;
        if not (Bytes.equal b want) then fail "%s: bytes differ from the oracle" what
      in
      let not_multiple unit = (unit * Rng.int rng 3) + 1 + Rng.int rng (max 1 (unit - 1)) in
      List.iter
        (fun layout ->
          let name = Layout.name layout in
          let rows = not_multiple (Layout.panel_rows ~desc layout) in
          let cols = not_multiple (4 * Layout.column_group layout) in
          let g = Layout.column_group layout in
          let pcols = Gcd2_util.Stats.round_up (cols + 1) g + (g * Rng.int rng 3) in
          let data = Array.init (rows * cols) (fun _ -> int8 ()) in
          let size = Layout.padded_bytes ~desc layout ~rows ~cols in
          let get i = data.(i) in
          let ((b, off) as win) = dirty size in
          check (name ^ " store") win
            (fun b off -> Pack.store layout ~rows ~cols data b off)
            (oracle_store layout ~rows ~cols ~lcols:cols get);
          if Pack.load layout ~rows ~cols b off <> data then fail "%s: load . store" name;
          if Pack.load layout ~rows ~cols b off <> oracle_load layout ~rows ~cols b off then
            fail "%s: load" name;
          let out_off = Rng.int rng 5 in
          let out = Array.make (out_off + (rows * cols) + 3) 77 in
          Pack.load_into layout ~rows ~cols b off out out_off;
          if Array.sub out out_off (rows * cols) <> data
             || Array.exists (( <> ) 77) (Array.sub out 0 out_off)
             || Array.exists (( <> ) 77) (Array.sub out (out_off + (rows * cols)) 3)
          then fail "%s: load_into" name;
          let buf = Pack.pack layout ~rows ~cols data in
          let packed = Bytes.make size '\000' in
          oracle_store layout ~rows ~cols ~lcols:cols get packed 0;
          if buf.Pack.bytes <> Array.init size (Bytes.get_int8 packed) then fail "%s: pack" name;
          if Pack.unpack buf <> data then fail "%s: unpack . pack" name;
          (* padded columns, a source offset, a broadcast source *)
          let src_off = Rng.int rng 7 in
          let big = Array.init (src_off + (rows * cols) + 5) (fun _ -> int8 ()) in
          check (name ^ " store ~pcols ~src_off")
            (dirty (Layout.padded_bytes ~desc layout ~rows ~cols:pcols))
            (fun b off -> Pack.store ~pcols ~src_off layout ~rows ~cols big b off)
            (oracle_store layout ~rows ~cols ~lcols:pcols (fun i -> big.(src_off + i)));
          let nb = 1 + Rng.int rng (2 * cols) in
          let small = Array.init nb (fun _ -> int8 ()) in
          check (name ^ " store_broadcast") (dirty size)
            (fun b off -> Pack.store_broadcast layout ~rows ~cols small b off)
            (oracle_store layout ~rows ~cols ~lcols:cols (fun i -> small.(i mod nb))))
        Layout.all;
      List.iter
        (fun simd ->
          let name = Simd.name simd in
          let layout = Simd.layout simd in
          let m = not_multiple (Layout.panel_rows ~desc layout) in
          let k = not_multiple 4 and n = not_multiple (Layout.column_group layout) in
          let kp, _ = Weights.padded_kn simd ~k ~n in
          let src_off = Rng.int rng 7 in
          let a = Array.init (src_off + (m * k)) (fun _ -> int8 ()) in
          let act = Array.sub a src_off (m * k) in
          let oracle_act get = oracle_store layout ~rows:m ~cols:k ~lcols:kp get in
          check (name ^ " store_activations")
            (dirty (Weights.activation_bytes simd ~m ~k))
            (fun b off -> Weights.store_activations simd ~m ~k act b off)
            (oracle_act (fun i -> act.(i)));
          check (name ^ " store_activations ~src_off")
            (dirty (Weights.activation_bytes simd ~m ~k))
            (fun b off -> Weights.store_activations ~src_off simd ~m ~k a b off)
            (oracle_act (fun i -> a.(src_off + i)));
          let w = Array.init (src_off + (k * n)) (fun _ -> int8 ()) in
          let wbytes = Weights.prepacked_bytes simd ~k ~n in
          check (name ^ " store_prepacked") (dirty wbytes)
            (fun b off -> Weights.store_prepacked simd ~k ~n (Array.sub w src_off (k * n)) b off)
            (oracle_prepack simd ~k ~n (fun kk nn -> w.(src_off + (kk * n) + nn)));
          (* [w] read as the N x K transpose of the weight matrix *)
          check (name ^ " store_prepacked ~transposed") (dirty wbytes)
            (fun b off -> Weights.store_prepacked ~src_off ~transposed:true simd ~k ~n w b off)
            (oracle_prepack simd ~k ~n (fun kk nn -> w.(src_off + (nn * k) + kk)));
          let out = Array.init (m * n) (fun _ -> int8 ()) in
          let b, off = dirty (Weights.output_bytes simd ~m ~n) in
          oracle_store layout ~rows:m ~cols:n ~lcols:n (fun i -> out.(i)) b off;
          if Weights.load_output simd ~m ~n b off <> out then fail "%s: load_output" name;
          let into = Array.make ((m * n) + src_off) 0 in
          Weights.load_output_into simd ~m ~n b off into src_off;
          if Array.sub into src_off (m * n) <> out then fail "%s: load_output_into" name)
        [ Simd.I_vmpy; Simd.I_vmpa; Simd.I_vrmpy ];
      true)

let tests =
  [
    Alcotest.test_case "1-column offsets (fig 2a)" `Quick test_fig2_offsets_col1;
    Alcotest.test_case "2-column offsets (fig 2b)" `Quick test_fig2_offsets_col2;
    Alcotest.test_case "4-column offsets (fig 2c)" `Quick test_fig2_offsets_col4;
    Alcotest.test_case "padding rules" `Quick test_padding;
    Alcotest.test_case "pack/unpack roundtrip" `Quick test_pack_roundtrip;
    Alcotest.test_case "layout conversion" `Quick test_pack_convert;
    Alcotest.test_case "transform cost" `Quick test_transform_cost;
    Alcotest.test_case "quantization roundtrip" `Quick test_quant_roundtrip;
    Alcotest.test_case "quantization validation" `Quick test_quant_invalid;
    Alcotest.test_case "tensor operations" `Quick test_tensor_ops;
    Alcotest.test_case "tensor saturation" `Quick test_tensor_saturates;
    QCheck_alcotest.to_alcotest qcheck_offsets_bijective;
    QCheck_alcotest.to_alcotest qcheck_staging_matches_fig2;
  ]
