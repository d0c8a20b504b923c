(* Kernel explorer: pick a convolution shape and inspect what the compiler
   does with it at every level — candidate instructions and layouts,
   padding, generated inner loop, packed VLIW schedule, cycle costs —
   then execute the chosen kernel on the simulator and check it against
   the reference matmul.

   Run with:  dune exec examples/kernel_explorer.exe -- [M K N]
   (defaults to the 64x64x1x1 convolution of ResNet-50: M=3136 K=64 N=64,
   scaled down for display) *)

module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Weights = Gcd2_codegen.Weights
module Testbench = Gcd2_codegen.Testbench
module Layout = Gcd2_tensor.Layout
module Packer = Gcd2_sched.Packer
module Program = Gcd2_isa.Program
module Interp = Gcd2_kernels.Interp
module Rng = Gcd2_util.Rng
module Sat = Gcd2_util.Saturate

let usage () =
  prerr_endline "usage: kernel_explorer [M K N]";
  exit 1

let () =
  let m, k, n =
    match Sys.argv with
    | [| _ |] -> (256, 64, 64)
    | [| _; m; k; n |] -> (
      try (int_of_string m, int_of_string k, int_of_string n) with _ -> usage ())
    | _ -> usage ()
  in
  Fmt.pr "exploring C[%d x %d] = A[%d x %d] * W[%d x %d]@.@." m n m k k n;

  (* 1. the three candidate execution plans *)
  Fmt.pr "candidate SIMD instructions and layouts:@.";
  let mult, shift = Sat.quantize_multiplier 0.05 in
  let desc = Gcd2_devices.Desc.hexagon698 in
  let spec_of simd =
    let u = Unroll.adaptive simd ~m ~k ~n in
    {
      Matmul.device = desc;
      simd;
      m;
      k;
      n;
      mult;
      shift;
      act_table = None;
      strategy = Packer.sda;
      un = u.Unroll.un;
      ug = u.Unroll.ug;
      abuf = u.Unroll.abuf;
      wbuf = u.Unroll.wbuf;
      addressing = Matmul.Bump;
    }
  in
  let best = ref None in
  List.iter
    (fun simd ->
      let spec = spec_of simd in
      let cycles = Matmul.cycles spec in
      let mp, kp, np = Simd.padded_mkn ~desc simd ~m ~k ~n in
      let pad_pct =
        100.0
        *. (float_of_int (Simd.padded_data_bytes ~desc simd ~m ~k ~n)
            /. float_of_int ((m * k) + (k * n) + (m * n))
           -. 1.0)
      in
      Fmt.pr "  %-6s layout %-9s padded %4dx%3dx%3d (+%4.0f%% data)  unroll un=%d ug=%d  %8d cycles@."
        (Simd.name simd)
        (Layout.name (Simd.layout simd))
        mp kp np pad_pct spec.Matmul.un spec.Matmul.ug cycles;
      match !best with
      | Some (_, c) when c <= cycles -> ()
      | _ -> best := Some (spec, cycles))
    Simd.all;
  let spec, best_cycles = Option.get !best in
  Fmt.pr "@.chosen: %s (%d cycles, %.1f effective GMAC/s)@." (Simd.name spec.Matmul.simd)
    best_cycles
    (float_of_int (m * k * n)
    /. (float_of_int best_cycles /. desc.Gcd2_devices.Desc.model_cycles_per_sec)
    /. 1e9);

  (* 2. the packed inner loop, as the scheduler emitted it *)
  let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 65536; c_base = 131072 } in
  let rec innermost nodes =
    List.fold_left
      (fun acc node ->
        match node with
        | Program.Block _ -> acc
        | Program.Loop { body = [ Program.Block ps ]; trip } -> Some (trip, ps)
        | Program.Loop { body; _ } -> ( match innermost body with Some x -> Some x | None -> acc))
      None nodes
  in
  (match innermost prog.Program.nodes with
  | Some (trip, packets) ->
    Fmt.pr "@.innermost loop (trip %d), %d packets:@." trip (List.length packets);
    List.iteri
      (fun i p ->
        Fmt.pr "  %2d (%d cyc) %a@." i (Gcd2_isa.Packet.cycles ~desc p) Gcd2_isa.Packet.pp p)
      packets
  | None -> Fmt.pr "@.(no inner loop at this size)@.");

  (* 3. how the packing strategies compare on this kernel *)
  Fmt.pr "@.packing strategy comparison on this kernel:@.";
  List.iter
    (fun (name, strategy) ->
      let c = Matmul.cycles { spec with Matmul.strategy = strategy } in
      Fmt.pr "  %-14s %8d cycles (%.2fx vs SDA)@." name c
        (float_of_int c /. float_of_int best_cycles))
    [
      ("sda", Packer.sda);
      ("soft_to_hard", Packer.Soft_to_hard);
      ("soft_to_none", Packer.Soft_to_none);
      ("in_order", Packer.In_order);
    ];

  (* 4. execute on the simulator and verify (small shapes only) *)
  if m * k + k * n <= 1 lsl 20 then begin
    let rng = Rng.create 7 in
    let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
    let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
    let res = Testbench.run spec ~a ~w in
    let want = Interp.matmul_i8 ~m ~k ~n a w ~mult ~shift in
    assert (res.Testbench.data = want);
    Fmt.pr
      "@.executed on the simulator: %d packets, %d cycles, %d MACs - bit-exact vs the reference@."
      res.Testbench.packets res.Testbench.cycles res.Testbench.macs
  end
  else Fmt.pr "@.(too large to execute functionally here; cycle model only)@."
