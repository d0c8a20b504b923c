(* Tests for Gcd2_codegen: generated matmul kernels must be bit-exact
   against the reference interpreter for every SIMD choice, layout,
   shape (including padding cases) and unroll setting. *)

module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Weights = Gcd2_codegen.Weights
module Testbench = Gcd2_codegen.Testbench
module Interp = Gcd2_kernels.Interp
module Lut = Gcd2_kernels.Lut
module Packer = Gcd2_sched.Packer
module Rng = Gcd2_util.Rng
module Sat = Gcd2_util.Saturate
module Q = Gcd2_tensor.Quant

let desc = Gcd2_devices.Desc.hexagon698

let mult, shift = Sat.quantize_multiplier 0.05

let spec ?un ?(ug = 1) ?(strategy = Packer.sda) ?act_table simd ~m ~k ~n =
  let un =
    match un with
    | Some u -> u
    | None -> max 2 (Gcd2_tensor.Layout.column_group (Simd.layout simd))
  in
  { Matmul.device = Gcd2_devices.Desc.hexagon698; simd; m; k; n; mult; shift; act_table; strategy; un; ug; abuf = 2; wbuf = 2; addressing = Matmul.Bump }

let reference ?act ~m ~k ~n a w =
  let data = Interp.matmul_i8 ~m ~k ~n a w ~mult ~shift in
  match act with
  | None -> data
  | Some table -> Array.map (fun q -> Lut.apply table q) data

let random_inputs seed ~m ~k ~n =
  let rng = Rng.create seed in
  let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
  let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
  (a, w)

let check_case ?un ?ug ?strategy simd ~m ~k ~n ~seed =
  let a, w = random_inputs seed ~m ~k ~n in
  let s = spec ?un ?ug ?strategy simd ~m ~k ~n in
  let got = Testbench.run s ~a ~w in
  let want = reference ~m ~k ~n a w in
  if got.Testbench.data <> want then begin
    let first_bad = ref (-1) in
    Array.iteri (fun i v -> if !first_bad = -1 && v <> want.(i) then first_bad := i) got.data;
    Alcotest.failf "%s m=%d k=%d n=%d: first mismatch at %d: got %d want %d"
      (Simd.name simd) m k n !first_bad got.data.(!first_bad) want.(!first_bad)
  end

let test_exact simd () =
  List.iteri
    (fun i (m, k, n) -> check_case simd ~m ~k ~n ~seed:(100 + i))
    [
      (* exact panel fits *)
      (128, 8, 4);
      (64, 16, 6);
      (32, 32, 32);
      (* paper table II shapes *)
      (64, 64, 8);
      (* padding in every dimension *)
      (5, 3, 3);
      (130, 7, 5);
      (33, 9, 2);
      (1, 1, 1);
      (* larger K exercising the k-loop and tail *)
      (32, 70, 4);
    ]

let test_unroll_settings simd () =
  let group = Gcd2_tensor.Layout.column_group (Simd.layout simd) in
  let uns = List.filter (fun u -> u mod group = 0) [ 1; 2; 4; 8 ] in
  let uns = List.filter (fun u -> u <= Matmul.max_un simd) uns in
  List.iter
    (fun un ->
      List.iter
        (fun ug -> check_case ~un ~ug simd ~m:70 ~k:24 ~n:9 ~seed:(un * 10 + ug))
        [ 1; 2; 3 ])
    uns

let test_strategies_agree () =
  (* Every packing strategy must produce the same results (only timing
     differs). *)
  let m, k, n = (40, 12, 6) in
  let a, w = random_inputs 7 ~m ~k ~n in
  let want = reference ~m ~k ~n a w in
  List.iter
    (fun simd ->
      List.iter
        (fun strategy ->
          let s = spec ~strategy simd ~m ~k ~n in
          let got = Testbench.run s ~a ~w in
          Alcotest.(check (array int))
            (Fmt.str "%s under %a" (Simd.name simd) Packer.pp_strategy strategy)
            want got.Testbench.data)
        [ Packer.sda; Packer.Soft_to_hard; Packer.Soft_to_none; Packer.List_topdown ])
    Simd.all

let test_fused_activation () =
  let m, k, n = (32, 16, 4) in
  let a, w = random_inputs 9 ~m ~k ~n in
  let out_q = Q.default in
  let table = Lut.of_act ~in_q:out_q ~out_q Gcd2_graph.Op.A_relu in
  List.iter
    (fun simd ->
      let s =
        { (spec simd ~m ~k ~n) with Matmul.act_table = Some 1 }
      in
      let got = Testbench.run ~tables:[ (1, table) ] s ~a ~w in
      let want = reference ~act:table ~m ~k ~n a w in
      Alcotest.(check (array int)) (Simd.name simd ^ " with relu") want got.Testbench.data)
    Simd.all

let test_padded_sizes () =
  (* Table II's padding accounting: at M=K=N=32 the three instructions pad
     very differently (vmpy 4x, vmpa 2x, vrmpy none on A). *)
  let bytes simd = Simd.padded_data_bytes ~desc simd ~m:32 ~k:32 ~n:32 in
  Alcotest.(check bool) "vmpy pads most" true (bytes Simd.I_vmpy > bytes Simd.I_vmpa);
  Alcotest.(check bool) "vmpa pads more than vrmpy" true
    (bytes Simd.I_vmpa > bytes Simd.I_vrmpy);
  (* at 128^3 nobody pads *)
  List.iter
    (fun simd ->
      Alcotest.(check int)
        (Simd.name simd ^ " no padding at 128")
        (3 * 128 * 128)
        (Simd.padded_data_bytes ~desc simd ~m:128 ~k:128 ~n:128))
    Simd.all

let test_cycle_counts_positive () =
  List.iter
    (fun simd ->
      let c = Matmul.cycles (spec simd ~m:128 ~k:64 ~n:8) in
      Alcotest.(check bool) (Simd.name simd ^ " cycles positive") true (c > 0))
    Simd.all

let test_sda_packs_tighter () =
  (* The SDA schedule should never be slower than treating soft deps as
     hard, on every kernel flavour. *)
  List.iter
    (fun simd ->
      let cycles strategy = Matmul.cycles (spec ~strategy simd ~m:128 ~k:64 ~n:8) in
      let sda = cycles (Packer.sda) in
      let hard = cycles Packer.Soft_to_hard in
      if sda > hard then
        Alcotest.failf "%s: sda %d > soft_to_hard %d" (Simd.name simd) sda hard)
    Simd.all

let qcheck_matmul_exact =
  QCheck.Test.make ~name:"random matmul shapes are bit-exact" ~count:60
    QCheck.(
      quad (int_range 1 70) (int_range 1 24) (int_range 1 10) (int_range 0 2))
    (fun (m, k, n, simd_i) ->
      let simd = List.nth Simd.all simd_i in
      let group = Gcd2_tensor.Layout.column_group (Simd.layout simd) in
      let un = group in
      let a, w = random_inputs (m + (k * 100) + n) ~m ~k ~n in
      let s = spec ~un simd ~m ~k ~n in
      let got = Testbench.run s ~a ~w in
      got.Testbench.data = reference ~m ~k ~n a w)

(* Word (g, n) sits at [n * (Kp/4) + g]; its bytes hold weights
   k = 4g .. 4g+3 in natural order, except (k0, k2, k1, k3) for vmpa, and
   padding reads as zero. *)
let test_prepack_layout () =
  let k = 6 and n = 3 in
  let _, w = random_inputs 17 ~m:1 ~k ~n in
  List.iter
    (fun simd ->
      let kp, np = Weights.padded_kn simd ~k ~n in
      let groups = kp / 4 in
      let order = if simd = Simd.I_vmpa then [| 0; 2; 1; 3 |] else [| 0; 1; 2; 3 |] in
      let want =
        Array.init (4 * np * groups) (fun i ->
            let word = i / 4 and j = i mod 4 in
            let nn = word / groups and kk = (4 * (word mod groups)) + order.(j) in
            if kk < k && nn < n then w.((kk * n) + nn) land 0xff else 0)
      in
      Alcotest.(check (array int)) (Simd.name simd) want (Weights.prepack simd ~k ~n w))
    Simd.all

let tests =
  [
    Alcotest.test_case "vmpy kernel bit-exact" `Quick (test_exact Simd.I_vmpy);
    Alcotest.test_case "prepacked weight byte order" `Quick test_prepack_layout;
    Alcotest.test_case "vmpa kernel bit-exact" `Quick (test_exact Simd.I_vmpa);
    Alcotest.test_case "vrmpy kernel bit-exact" `Quick (test_exact Simd.I_vrmpy);
    Alcotest.test_case "vmpy unroll settings" `Quick (test_unroll_settings Simd.I_vmpy);
    Alcotest.test_case "vmpa unroll settings" `Quick (test_unroll_settings Simd.I_vmpa);
    Alcotest.test_case "vrmpy unroll settings" `Quick (test_unroll_settings Simd.I_vrmpy);
    Alcotest.test_case "all packing strategies agree" `Quick test_strategies_agree;
    Alcotest.test_case "fused activation lut" `Quick test_fused_activation;
    Alcotest.test_case "padding accounting (table II)" `Quick test_padded_sizes;
    Alcotest.test_case "cycle counts positive" `Quick test_cycle_counts_positive;
    Alcotest.test_case "sda no slower on kernels" `Quick test_sda_packs_tighter;
    QCheck_alcotest.to_alcotest qcheck_matmul_exact;
  ]

(* ------------------------------------------------------------------ *)
(* Per-channel requantization (paper future work, implemented)         *)

let test_per_channel_requant simd () =
  let rng = Rng.create 31 in
  List.iter
    (fun (m, k, n) ->
      let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
      let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
      (* one weight scale per output channel, spanning a decade *)
      let scales =
        Array.init n (fun j -> (1.0 +. float_of_int j) /. 64.0 /. float_of_int n *. 4.0)
      in
      let mults, shift =
        Q.per_channel_requant ~in_a:Q.default ~weight_scales:scales ~out:Q.default
      in
      let s = { (spec simd ~m ~k ~n) with Matmul.shift } in
      let got = Testbench.run ~per_channel:(mults, shift) s ~a ~w in
      let want = Interp.matmul_i8_per_channel ~m ~k ~n a w ~mults ~shift in
      if got.Testbench.data <> want then begin
        let bad = ref (-1) in
        Array.iteri (fun i v -> if !bad = -1 && v <> want.(i) then bad := i) got.data;
        Alcotest.failf "%s m=%d k=%d n=%d: per-channel mismatch at %d (got %d want %d)"
          (Simd.name simd) m k n !bad got.data.(!bad) want.(!bad)
      end)
    [ (32, 8, 8); (70, 12, 9); (128, 16, 12) ]

let test_per_channel_differs_from_uniform () =
  (* sanity: with genuinely different channel scales the outputs differ
     from the uniform-requant kernel *)
  let m, k, n = (32, 8, 8) in
  let rng = Rng.create 33 in
  let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
  let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
  let scales = Array.init n (fun j -> if j mod 2 = 0 then 1.0 /. 64.0 else 1.0 /. 16.0) in
  let mults, shift =
    Q.per_channel_requant ~in_a:Q.default ~weight_scales:scales ~out:Q.default
  in
  let s = { (spec Simd.I_vrmpy ~m ~k ~n) with Matmul.shift } in
  let pc = Testbench.run ~per_channel:(mults, shift) s ~a ~w in
  let uni = Testbench.run (spec Simd.I_vrmpy ~m ~k ~n) ~a ~w in
  Alcotest.(check bool) "per-channel output differs" true (pc.Testbench.data <> uni.Testbench.data)

let tests =
  tests
  @ [
      Alcotest.test_case "per-channel requant vmpy" `Quick (test_per_channel_requant Simd.I_vmpy);
      Alcotest.test_case "per-channel requant vmpa" `Quick (test_per_channel_requant Simd.I_vmpa);
      Alcotest.test_case "per-channel requant vrmpy" `Quick
        (test_per_channel_requant Simd.I_vrmpy);
      Alcotest.test_case "per-channel differs from uniform" `Quick
        test_per_channel_differs_from_uniform;
    ]
