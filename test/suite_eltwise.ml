(* Direct tests for the elementwise kernel generators: bit-exactness
   against the reference semantics for every layout, with and without
   operand rescaling, fused activations, and across packing strategies. *)

module Eltwise = Gcd2_codegen.Eltwise
module Machine = Gcd2_vm.Machine
module Layout = Gcd2_tensor.Layout
module Pack = Gcd2_tensor.Pack
module Q = Gcd2_tensor.Quant
module Sat = Gcd2_util.Saturate
module Rng = Gcd2_util.Rng
module Lut = Gcd2_kernels.Lut
module Packer = Gcd2_sched.Packer

(* The simulator's device: these kernels run on the VM. *)
let device = Gcd2_devices.Desc.hexagon698

(* Stage packed operands, run the kernel, unpack the result. *)
let run_kernel ?(tables = []) op spec layout ~rows ~cols a b =
  let pa = (Pack.pack layout ~rows ~cols a).Pack.bytes in
  let bytes = Array.length pa in
  let align = Gcd2_util.Stats.round_up bytes 128 in
  let m = Machine.create ~mem_bytes:(max 4096 ((3 * align) + 256)) () in
  Machine.write_i8_array m ~addr:0 pa;
  (match b with
  | Some b -> Machine.write_i8_array m ~addr:align (Pack.pack layout ~rows ~cols b).Pack.bytes
  | None -> ());
  let prog =
    match op with
    | `Binary bop ->
      Eltwise.binary ~tables bop spec { Eltwise.a_base = 0; b_base = align; out_base = 2 * align }
    | `Unary t -> Eltwise.unary ~tables ~table:t spec ~in_base:0 ~out_base:(2 * align)
  in
  Machine.run m prog;
  Pack.unpack
    { Pack.layout; rows; cols; bytes = Machine.read_i8_array m ~addr:(2 * align) ~len:bytes }

let rescale_table ?(negate = false) q_mult =
  Array.init 256 (fun byte ->
      let q = Sat.sign_extend ~bits:8 byte in
      let v = Sat.apply_multiplier q q_mult in
      Sat.sat8 (if negate then -v else v) land 0xff)

let vectors_for layout ~rows ~cols =
  Gcd2_util.Stats.ceil_div (Layout.padded_bytes ~desc:device layout ~rows ~cols) 128

let random_pair seed n =
  let rng = Rng.create seed in
  (Array.init n (fun _ -> Rng.int8 rng), Array.init n (fun _ -> Rng.int8 rng))

let test_add_all_layouts () =
  let rows, cols = (37, 11) in
  let a, b = random_pair 1 (rows * cols) in
  let want = Array.map2 (fun x y -> Sat.sat8 (x + y)) a b in
  List.iter
    (fun layout ->
      let spec =
        Eltwise.default_spec ~device ~vectors:(vectors_for layout ~rows ~cols) ()
      in
      let got = run_kernel (`Binary Eltwise.Badd) spec layout ~rows ~cols a (Some b) in
      Alcotest.(check (array int)) (Layout.name layout) want got)
    Layout.all

let test_add_with_rescale () =
  (* operand A at scale 1/32 rescaled into output scale 1/16 *)
  let rows, cols = (16, 8) in
  let a, b = random_pair 2 (rows * cols) in
  let qa = Q.make (1.0 /. 32.0) and out = Q.default in
  let ma = Q.rescale_multiplier ~from:qa ~into:out in
  let table = rescale_table ma in
  let spec =
    {
      (Eltwise.default_spec ~device ~vectors:(vectors_for Layout.Col1 ~rows ~cols) ()) with
      Eltwise.rescale_a = Some 2;
    }
  in
  let got =
    run_kernel ~tables:[ (2, table) ] (`Binary Eltwise.Badd) spec Layout.Col1 ~rows ~cols a
      (Some b)
  in
  let want =
    Array.map2 (fun x y -> Sat.sat8 (Sat.sat8 (Sat.apply_multiplier x ma) + y)) a b
  in
  Alcotest.(check (array int)) "rescaled add" want got

let test_sub_via_negating_table () =
  let rows, cols = (8, 16) in
  let a, b = random_pair 3 (rows * cols) in
  let identity = Q.rescale_multiplier ~from:Q.default ~into:Q.default in
  let table = rescale_table ~negate:true identity in
  let spec =
    {
      (Eltwise.default_spec ~device ~vectors:(vectors_for Layout.Col4 ~rows ~cols) ()) with
      Eltwise.rescale_b = Some 3;
    }
  in
  let got =
    run_kernel ~tables:[ (3, table) ] (`Binary Eltwise.Badd) spec Layout.Col4 ~rows ~cols a
      (Some b)
  in
  let want =
    Array.map2
      (fun x y -> Sat.sat8 (x + Sat.sat8 (-Sat.apply_multiplier y identity)))
      a b
  in
  Alcotest.(check (array int)) "negating-table subtract" want got

let test_plain_vsub () =
  let rows, cols = (12, 12) in
  let a, b = random_pair 4 (rows * cols) in
  let spec = Eltwise.default_spec ~device ~vectors:(vectors_for Layout.Col2 ~rows ~cols) () in
  let got = run_kernel (`Binary Eltwise.Bsub) spec Layout.Col2 ~rows ~cols a (Some b) in
  let want = Array.map2 (fun x y -> Sat.sat8 (x - y)) a b in
  Alcotest.(check (array int)) "vector subtract" want got

let test_mul_requant () =
  let rows, cols = (24, 6) in
  let a, b = random_pair 5 (rows * cols) in
  let mult, shift = Q.requant_multiplier ~in_a:Q.default ~in_b:Q.default ~out:Q.default in
  let spec =
    {
      (Eltwise.default_spec ~device ~vectors:(vectors_for Layout.Col1 ~rows ~cols) ()) with
      Eltwise.mult;
      shift;
    }
  in
  let got = run_kernel (`Binary Eltwise.Bmul) spec Layout.Col1 ~rows ~cols a (Some b) in
  let want = Array.map2 (fun x y -> Sat.requantize (x * y) ~mult ~shift ~zero:0) a b in
  Alcotest.(check (array int)) "requantized multiply" want got

let test_mul_with_activation () =
  let rows, cols = (16, 16) in
  let a, b = random_pair 6 (rows * cols) in
  let mult, shift = Q.requant_multiplier ~in_a:Q.default ~in_b:Q.default ~out:Q.default in
  let act = Lut.of_act ~in_q:Q.default ~out_q:Q.default Gcd2_graph.Op.A_relu in
  let spec =
    {
      (Eltwise.default_spec ~device ~vectors:(vectors_for Layout.Row_major ~rows ~cols) ()) with
      Eltwise.mult;
      shift;
      act_table = Some 1;
    }
  in
  let got =
    run_kernel ~tables:[ (1, act) ] (`Binary Eltwise.Bmul) spec Layout.Row_major ~rows ~cols a
      (Some b)
  in
  let want =
    Array.map2
      (fun x y -> Lut.apply act (Sat.requantize (x * y) ~mult ~shift ~zero:0))
      a b
  in
  Alcotest.(check (array int)) "multiply + fused relu" want got

let test_unary_all_layouts () =
  let rows, cols = (19, 7) in
  let a, _ = random_pair 7 (rows * cols) in
  let table = Lut.of_fn ~in_q:Q.default ~out_q:Q.default Lut.hswish in
  let want = Array.map (fun q -> Lut.apply table q) a in
  List.iter
    (fun layout ->
      let spec = Eltwise.default_spec ~device ~vectors:(vectors_for layout ~rows ~cols) () in
      let got =
        run_kernel ~tables:[ (1, table) ] (`Unary 1) spec layout ~rows ~cols a None
      in
      Alcotest.(check (array int)) (Layout.name layout) want got)
    Layout.all

let test_strategies_agree () =
  let rows, cols = (32, 9) in
  let a, b = random_pair 8 (rows * cols) in
  let results =
    List.map
      (fun strategy ->
        let vectors = vectors_for Layout.Col1 ~rows ~cols in
        let spec = Eltwise.default_spec ~device ~strategy ~vectors () in
        run_kernel (`Binary Eltwise.Badd) spec Layout.Col1 ~rows ~cols a (Some b))
      [ Packer.sda; Packer.Soft_to_hard; Packer.Soft_to_none; Packer.List_topdown; Packer.In_order ]
  in
  match results with
  | first :: rest ->
    List.iteri
      (fun i r -> Alcotest.(check (array int)) (Fmt.str "strategy %d" i) first r)
      rest
  | [] -> ()

let test_unroll_tail () =
  (* vector counts not divisible by the unroll exercise the tail path *)
  let rows, cols = (129, 3) in
  let a, b = random_pair 9 (rows * cols) in
  List.iter
    (fun uv ->
      let vectors = vectors_for Layout.Col1 ~rows ~cols in
      let spec = { (Eltwise.default_spec ~device ~vectors ()) with Eltwise.uv } in
      let got = run_kernel (`Binary Eltwise.Badd) spec Layout.Col1 ~rows ~cols a (Some b) in
      let want = Array.map2 (fun x y -> Sat.sat8 (x + y)) a b in
      Alcotest.(check (array int)) (Fmt.str "uv=%d" uv) want got)
    [ 1; 2; 3; 4 ]

let qcheck_add_random =
  QCheck.Test.make ~name:"elementwise add bit-exact on random shapes" ~count:40
    QCheck.(triple (int_range 1 80) (int_range 1 12) (int_range 0 3))
    (fun (rows, cols, li) ->
      let layout = List.nth Layout.all li in
      let a, b = random_pair ((rows * 100) + cols) (rows * cols) in
      let spec = Eltwise.default_spec ~device ~vectors:(vectors_for layout ~rows ~cols) () in
      let got = run_kernel (`Binary Eltwise.Badd) spec layout ~rows ~cols a (Some b) in
      got = Array.map2 (fun x y -> Sat.sat8 (x + y)) a b)

let tests =
  [
    Alcotest.test_case "add across layouts" `Quick test_add_all_layouts;
    Alcotest.test_case "add with operand rescale" `Quick test_add_with_rescale;
    Alcotest.test_case "subtract via negating table" `Quick test_sub_via_negating_table;
    Alcotest.test_case "plain vector subtract" `Quick test_plain_vsub;
    Alcotest.test_case "requantized multiply" `Quick test_mul_requant;
    Alcotest.test_case "multiply with fused activation" `Quick test_mul_with_activation;
    Alcotest.test_case "unary lut across layouts" `Quick test_unary_all_layouts;
    Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
    Alcotest.test_case "unroll tails" `Quick test_unroll_tail;
    QCheck_alcotest.to_alcotest qcheck_add_random;
  ]
