(* Tests for Gcd2_tensor: layouts (paper figure 2 offsets), packing
   roundtrips, quantization, tensors. *)

module Layout = Gcd2_tensor.Layout
module Pack = Gcd2_tensor.Pack
module Quant = Gcd2_tensor.Quant
module T = Gcd2_tensor.Tensor
module Rng = Gcd2_util.Rng

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
  ]
