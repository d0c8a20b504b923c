(* Tests for the machine descriptors (Gcd2_devices.Desc) and everything
   the descriptor threads through: bit-identity of every built-in device
   with its pinned zoo goldens (hexagon698's are the historical
   constants), cross-device cost ordering, memo-key separation and slot
   monotonicity. *)

module Desc = Gcd2_devices.Desc
module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Streams = Gcd2_cost.Streams
module Plan = Gcd2_cost.Plan
module Matmul = Gcd2_codegen.Matmul
module Eltwise = Gcd2_codegen.Eltwise
module Packer = Gcd2_sched.Packer
module Packet = Gcd2_isa.Packet
module Iclass = Gcd2_isa.Iclass
module Memo = Gcd2_util.Memo
module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
open Gcd2_graph
module B = Graph.Builder

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Descriptor basics *)

let test_builtins_valid () =
  List.iter Desc.validate Desc.builtins;
  check_bool "distinct names" true
    (List.length Desc.names = List.length (List.sort_uniq compare Desc.names));
  check_bool "distinct digests" true
    (Desc.digest Desc.hexagon698 <> Desc.digest Desc.hexagon_g2);
  check_bool "distinct canonical forms" true
    (Desc.canonical Desc.hexagon698 <> Desc.canonical Desc.hexagon_g2);
  check_bool "find is case-insensitive" true
    (Desc.find "HEXAGON698" = Some Desc.hexagon698);
  check_bool "unknown name is None" true (Desc.find "hexagon9000" = None);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  match Desc.get "hexagon9000" with
  | exception Invalid_argument msg ->
    check_bool "error names the known devices" true (contains msg "hexagon698")
  | _ -> Alcotest.fail "unknown device accepted"

(* ------------------------------------------------------------------ *)
(* Zoo goldens: every built-in device reproduces its pinned compiles bit
   for bit *)

(* Captured via `bench/main.exe zoo-goldens`: total cycles and ms (hex
   floats, exact) and the MD5 of the comma-joined plan assignment of
   Compiler.compile under the default configuration retargeted to each
   device.  These move only when a change is sanctioned to move them.
   hexagon698's last regeneration accompanied the transformer kernels
   (batched MatMul / Softmax / LayerNorm costed from generated Rowops
   programs), which re-priced every model containing a softmax or a
   normalization — the classifiers, the instance-norm GANs and the
   sequence models — while every plan assignment stayed put;
   hexagon-g2's were first captured when the descriptor became a
   required argument everywhere, before that refactor. *)
let goldens_698 =
  [
    ("MobileNet-V3", "0x1.3f1e568p+26", "0x1.64ed91f79d136p+1",
     "8b5b71b8be8ebabbf55f7426a121a8d6");
    ("EfficientNet-b0", "0x1.f7168e4p+26", "0x1.1958e627587b3p+2",
     "7d05020ea4526040bfc35304e3369789");
    ("ResNet-50", "0x1.98a611ep+27", "0x1.c910db3d6142dp+2",
     "b7cfa41141ec6a77baa5d0284ad72913");
    ("FST", "0x1.0b156132p+33", "0x1.2aba54a3c6434p+8",
     "1b6ed33fcf67fc5399e0329feb3ff83f");
    ("CycleGAN", "0x1.e1d4fbf2p+32", "0x1.0d75c06ea8e37p+8",
     "e896886368cecd6c988d4fc8239c192f");
    ("WDSR-b", "0x1.c6fe2ccp+29", "0x1.fce6a21953468p+4",
     "84f18c3324bb51ad02e57689ac822713");
    ("EfficientDet-d0", "0x1.6a31345p+28", "0x1.951ae95aa20dp+3",
     "c41b2b5267a37ca005af60d1a6ee18a9");
    ("PixOr", "0x1.424f659p+29", "0x1.687f6f5dcd824p+4",
     "0e7e1eed895e9fd8cefe4ef2b759b2f6");
    ("TinyBERT", "0x1.a3c99c2p+27", "0x1.d5863ffcb6e7p+2",
     "524f1d0cd2b7db89d883f89a125071c2");
    ("Conformer", "0x1.f166b00cp+30", "0x1.162ab7f98f5bep+6",
     "bb0b7ff720de715187a0350ebb5a5bf5");
  ]

let goldens_g2 =
  [
    ("MobileNet-V3", "0x1.169e5f4p+26", "0x1.37a1325be474p+1",
     "2ffc3331c84050f61b668d59375ef4bc");
    ("EfficientNet-b0", "0x1.aedf058p+26", "0x1.e1ebd7540f4bdp+1",
     "2af23a26793549d057a6daa3e52b59e5");
    ("ResNet-50", "0x1.d048a78p+26", "0x1.03a5756feea56p+2",
     "681cab05cb5eb3256bf82aab34379d70");
    ("FST", "0x1.e46e81a8p+31", "0x1.0ee9f05136538p+7",
     "ce9b817dc598e3a06525a2d66300b25f");
    ("CycleGAN", "0x1.91e16628p+31", "0x1.c17ee59e54ea4p+6",
     "b1a51d95fc337d470f55271706c08d2a");
    ("WDSR-b", "0x1.cb48cecp+28", "0x1.00d9b7731009bp+4",
     "84f18c3324bb51ad02e57689ac822713");
    ("EfficientDet-d0", "0x1.0b2fb09p+28", "0x1.2ad7c2053a434p+3",
     "235e43fb704657c15d3619c8b470b72f");
    ("PixOr", "0x1.47f50bp+28", "0x1.6ed05cebdaf6ap+3",
     "635cf4ff7b795fc2e5ce43cfa8107b63");
    ("TinyBERT", "0x1.195be1ep+27", "0x1.3ab1d2994dd2bp+2",
     "afc84c124ac19b4eb1fcbffdb9a742e8");
    ("Conformer", "0x1.1b9bbd2cp+30", "0x1.3d35e84a8fff7p+5",
     "3b4deb25a1d28b29282096d60275896d");
  ]

(* One compile per (model, device), shared by the golden and the
   cross-device tests. *)
let zoo_compiled =
  lazy
    (List.map
       (fun (e : Zoo.entry) ->
         let g = e.Zoo.build () in
         let c698 = Compiler.compile g in
         let cg2 =
           Compiler.compile
             ~config:(Compiler.with_device Desc.hexagon_g2 Compiler.default)
             g
         in
         (e.Zoo.name, c698, cg2))
       Zoo.all)

(* [compiled] picks one device's compile out of a [zoo_compiled] row. *)
let check_zoo_goldens goldens compiled =
  List.iter
    (fun (name, cycles_hex, ms_hex, asg_md5) ->
      let c = compiled (List.find (fun (n, _, _) -> n = name) (Lazy.force zoo_compiled)) in
      check_string (name ^ " cycles") cycles_hex
        (Printf.sprintf "%h" c.Compiler.report.Graphcost.cycles);
      check_string (name ^ " ms") ms_hex
        (Printf.sprintf "%h" c.Compiler.report.Graphcost.ms);
      let asg =
        String.concat ","
          (Array.to_list (Array.map string_of_int c.Compiler.assignment))
      in
      check_string (name ^ " assignment") asg_md5
        (Stdlib.Digest.to_hex (Stdlib.Digest.string asg)))
    goldens

let test_zoo_golden_hexagon698 () =
  check_bool "default config targets hexagon698" true
    (Desc.equal (Compiler.device Compiler.default) Desc.hexagon698);
  check_zoo_goldens goldens_698 (fun (_, c698, _) -> c698)

let test_zoo_golden_hexagon_g2 () = check_zoo_goldens goldens_g2 (fun (_, _, cg2) -> cg2)

let test_zoo_g2_faster () =
  let results = Lazy.force zoo_compiled in
  let wins =
    List.length
      (List.filter
         (fun (_, c698, cg2) ->
           cg2.Compiler.report.Graphcost.ms < c698.Compiler.report.Graphcost.ms)
         results)
  in
  let n = List.length results in
  (* acceptance bar: strictly faster modeled latency on >= 80% of the
     zoo (the wider vectors, extra slot and doubled DDR should dominate
     on every model, but only the 80% bar is contractual) *)
  check_bool
    (Printf.sprintf "hexagon-g2 faster on %d/%d models (need >= 80%%)" wins n)
    true
    (float_of_int wins >= 0.8 *. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Memo-key discipline: two devices must never share a memoized cost *)

let test_memo_no_cross_device_sharing () =
  let dwconv device =
    Streams.dwconv_cycles ~device ~strategy:Packer.sda ~vectors:2 ~taps:9
  in
  (* forward order *)
  Memo.clear_all ();
  let a698 = dwconv Desc.hexagon698 in
  let ag2 = dwconv Desc.hexagon_g2 in
  (* the two devices genuinely cost differently here, so a memo table
     whose key dropped the descriptor would return the first device's
     value for the second *)
  check_bool "devices cost differently" true (a698 <> ag2);
  (* reverse order: with per-device keys the values are call-order
     independent; with shared keys the first call would win both times *)
  Memo.clear_all ();
  let bg2 = dwconv Desc.hexagon_g2 in
  let b698 = dwconv Desc.hexagon698 in
  Alcotest.(check (float 0.0)) "698 cost is order-independent" a698 b698;
  Alcotest.(check (float 0.0)) "g2 cost is order-independent" ag2 bg2;
  (* spec-keyed kernel memos: the device is a spec field, so the memo
     key separates automatically — same check through Matmul *)
  let mm device =
    Matmul.cycles
      {
        Matmul.device;
        simd = Gcd2_codegen.Simd.I_vrmpy;
        m = 64;
        k = 64;
        n = 32;
        mult = 1 lsl 30;
        shift = 30;
        act_table = None;
        strategy = Packer.sda;
        un = 4;
        ug = 1;
        abuf = 2;
        wbuf = 2;
        addressing = Matmul.Bump;
      }
  in
  Memo.clear_all ();
  let m698 = mm Desc.hexagon698 in
  let mg2 = mm Desc.hexagon_g2 in
  check_bool "matmul kernels cost differently per device" true (m698 <> mg2)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

(* Adding an issue slot (and never removing a class from a slot) can
   only widen the set of feasible packets: any instruction-class mix
   that fits hexagon698's 4 slots fits hexagon-g2's 5. *)
let qcheck_slot_monotone =
  QCheck.Test.make ~name:"a wider device never rejects a feasible packet" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 4) (int_range 0 (List.length Iclass.all - 1)))
    (fun classes ->
      let classes = List.map (fun i -> List.nth Iclass.all i) classes in
      let masks d = List.map (Iclass.slot_mask_on d) classes in
      QCheck.assume (Packet.masks_feasible ~desc:Desc.hexagon698 (masks Desc.hexagon698));
      Packet.masks_feasible ~desc:Desc.hexagon_g2 (masks Desc.hexagon_g2))

(* Doubling the vector width halves the vector count of a same-sized
   tensor; with latencies equal and a strictly wider slot assignment the
   modeled stream cycles must not increase. *)
let qcheck_wider_vector_streams =
  QCheck.Test.make
    ~name:"doubled vector width never slows an eltwise stream" ~count:200
    QCheck.(pair (int_range 1 128) (int_range 0 2))
    (fun (vectors, strat) ->
      let strategy =
        List.nth [ Packer.sda; Packer.In_order; Packer.List_topdown ] strat
      in
      let halved = (vectors + 1) / 2 in
      Streams.unary_cycles ~uv:(`Fixed 2) ~device:Desc.hexagon_g2 ~strategy ~vectors:halved
      <= Streams.unary_cycles ~uv:(`Fixed 2) ~device:Desc.hexagon698 ~strategy ~vectors
      && Streams.binary_cycles ~uv:(`Fixed 2) ~device:Desc.hexagon_g2 ~strategy ~op:Eltwise.Badd
           ~vectors:halved
         <= Streams.binary_cycles ~uv:(`Fixed 2) ~device:Desc.hexagon698 ~strategy ~op:Eltwise.Badd
              ~vectors)

(* Roofline monotonicity in bandwidth: a device that only moves bytes
   faster can never make a plan slower. *)
let qcheck_bandwidth_monotone =
  QCheck.Test.make ~name:"more DDR bandwidth never slows a plan" ~count:200
    QCheck.(triple (float_bound_exclusive 1e9) (float_bound_exclusive 1e9)
              (float_bound_exclusive 1e6))
    (fun (compute, mem, staging) ->
      let plan =
        {
          Plan.layout = Gcd2_tensor.Layout.Row_major;
          simd = None;
          unroll = None;
          compute_cycles = compute;
          staging_cycles = staging;
          mem_bytes = mem;
          macs = 0;
        }
      in
      Plan.cycles ~desc:Desc.hexagon_g2 plan <= Plan.cycles ~desc:Desc.hexagon698 plan)

(* ------------------------------------------------------------------ *)
(* Every built-in device must behave, whichever one GCD2_DEVICE picks for
   the CLI. *)

let weight_q = Q.make (1.0 /. 64.0)

let small_cnn seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 8; 8; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 8 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:8 in
  let r1 = B.add b Op.Relu [ c1 ] in
  let w2 = T.random ~quant:weight_q rng [| 1; 1; 8; 8 |] in
  let c2 = B.conv2d ~weight:w2 b r1 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:8 in
  let _ = B.add b Op.Add [ r1; c2 ] in
  B.finish b

let test_builtin_devices_compile () =
  let g = small_cnn 3 in
  List.iter
    (fun (dut : Desc.t) ->
      let what = dut.Desc.name ^ ": " in
      Desc.validate dut;
      let config = Compiler.with_device dut Compiler.default in
      let c = Compiler.compile ~config g in
      check_bool (what ^ "latency positive") true (Compiler.latency_ms c > 0.0);
      check_bool (what ^ "report cycles finite") true
        (Float.is_finite c.Compiler.report.Graphcost.cycles);
      check_string (what ^ "fingerprint deterministic") (Compiler.fingerprint config g)
        (Compiler.fingerprint config g))
    Desc.builtins

let tests =
  [
    Alcotest.test_case "builtins validate; names/digests distinct" `Quick
      test_builtins_valid;
    Alcotest.test_case "zoo goldens: hexagon698 = seed, bit for bit" `Slow
      test_zoo_golden_hexagon698;
    Alcotest.test_case "zoo goldens: hexagon-g2 pinned, bit for bit" `Slow
      test_zoo_golden_hexagon_g2;
    Alcotest.test_case "zoo: hexagon-g2 faster on >= 80%" `Slow test_zoo_g2_faster;
    Alcotest.test_case "memo keys separate devices" `Quick
      test_memo_no_cross_device_sharing;
    QCheck_alcotest.to_alcotest qcheck_slot_monotone;
    QCheck_alcotest.to_alcotest qcheck_wider_vector_streams;
    QCheck_alcotest.to_alcotest qcheck_bandwidth_monotone;
    Alcotest.test_case "every built-in device compiles" `Quick
      test_builtin_devices_compile;
  ]
