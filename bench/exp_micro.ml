(* Bechamel micro-benchmarks of the compiler's core algorithms: how long
   the optimizations themselves take (the paper reports compilation times
   of 5-25 minutes for full models on-device; these measure our
   implementations). *)

open Bechamel
open Toolkit

module Packer = Gcd2_sched.Packer
module Matmul = Gcd2_codegen.Matmul
module Simd = Gcd2_codegen.Simd
module Solver = Gcd2_layout.Solver
module Graphcost = Gcd2_cost.Graphcost
module Machine = Gcd2_vm.Machine
module Zoo = Gcd2_models.Zoo

let desc = Gcd2_devices.Desc.hexagon698

(* A representative inner-loop block to pack (from the vmpy kernel). *)
let kernel_block =
  lazy
    (let spec =
       {
         Matmul.device = desc;
         simd = Simd.I_vmpy;
         m = 128;
         k = 64;
         n = 8;
         mult = 1 lsl 30;
         shift = 30;
         act_table = None;
         strategy = Packer.sda;
         un = 4;
         ug = 2;
         abuf = 2;
         wbuf = 2;
         addressing = Matmul.Bump;
       }
     in
     let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 0; c_base = 0 } in
     (* flatten the innermost block back to an instruction array *)
     let rec find nodes =
       List.fold_left
         (fun acc node ->
           match node with
           | Gcd2_isa.Program.Block _ -> acc
           | Gcd2_isa.Program.Loop { body = [ Gcd2_isa.Program.Block ps ]; _ } ->
             Some (Array.of_list (List.concat ps))
           | Gcd2_isa.Program.Loop { body; _ } -> (
             match find body with Some x -> Some x | None -> acc))
         None nodes
     in
     match find prog.Gcd2_isa.Program.nodes with
     | Some instrs -> instrs
     | None -> [||])

let mobilenet_cost =
  lazy
    (let g = (Zoo.find "MobileNet-V3").Zoo.build () in
     let g = Gcd2_graph.Passes.optimize g in
     Graphcost.build Gcd2_cost.Opcost.gcd2 g)

(* The packer and [Matmul.cycles] are memoized, so after its first run a
   row would time a hash lookup.  These rows empty every memo table at the
   start of each run, so each run does the work its label names; the
   clear itself costs about a microsecond. *)
let cold f () =
  Gcd2_util.Memo.clear_all ();
  f ()

let test_sda_packing =
  Test.make ~name:"sda packing (vmpy inner block)"
    (Staged.stage
       (cold (fun () -> ignore (Packer.pack ~desc Packer.sda (Lazy.force kernel_block)))))

let test_list_packing =
  Test.make ~name:"list packing (same block)"
    (Staged.stage
       (cold (fun () ->
            ignore (Packer.pack ~desc Packer.List_topdown (Lazy.force kernel_block)))))

let test_codegen =
  Test.make ~name:"matmul codegen + packing (128x64x8)"
    (Staged.stage
       (cold @@ fun () ->
         ignore
           (Matmul.cycles
              {
                Matmul.device = desc;
                simd = Simd.I_vrmpy;
                m = 128;
                k = 64;
                n = 8;
                mult = 1 lsl 30;
                shift = 30;
                act_table = None;
                strategy = Packer.sda;
                un = 8;
                ug = 1;
                abuf = 2;
                wbuf = 2;
                addressing = Matmul.Bump;
              })))

let test_partitioned_selection =
  Test.make ~name:"global selection gcd2(13) (MobileNet-V3)"
    (Staged.stage (fun () ->
         let cost = Lazy.force mobilenet_cost in
         ignore (Solver.partitioned ~max_size:13 cost.Graphcost.problem)))

let test_local_selection =
  Test.make ~name:"local selection (MobileNet-V3)"
    (Staged.stage (fun () ->
         let cost = Lazy.force mobilenet_cost in
         ignore (Solver.local cost.Graphcost.problem)))

let test_vm_matmul =
  Test.make ~name:"vm execution of a 32x32x8 matmul kernel"
    (Staged.stage (fun () ->
         let rng = Gcd2_util.Rng.create 1 in
         let a = Array.init (32 * 32) (fun _ -> Gcd2_util.Rng.int8 rng) in
         let w = Array.init (32 * 8) (fun _ -> Gcd2_util.Rng.int8 rng) in
         ignore
           (Gcd2_codegen.Testbench.run
              {
                Matmul.device = desc;
                simd = Simd.I_vrmpy;
                m = 32;
                k = 32;
                n = 8;
                mult = 1 lsl 30;
                shift = 30;
                act_table = None;
                strategy = Packer.sda;
                un = 8;
                ug = 1;
                abuf = 2;
                wbuf = 2;
                addressing = Matmul.Bump;
              }
              ~a ~w)))

(* ------------------------------------------------------------------ *)
(* pack-scaling: incremental vs reference SDA packer wall time as the
   block grows.  Blocks are the vmpy inner block tiled back-to-back; the
   copies reuse the same registers, so the packer sees one long block
   threaded by WAW/RAW dependences rather than k independent ones. *)

let replicate k block = Array.concat (List.init k (fun _ -> block))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let time_pack pack block =
  let reps = max 3 (2000 / max 1 (Array.length block)) in
  let samples =
    List.init reps (fun _ ->
        (* untimed: a memo hit would time a lookup, not a pack *)
        Gcd2_util.Memo.clear_all ();
        let t0 = Gcd2_util.Trace.now () in
        ignore (pack Packer.sda block);
        Gcd2_util.Trace.now () -. t0)
  in
  median samples

let pack_scaling () =
  Report.header "pack-scaling: incremental vs reference SDA packer (median wall time)";
  let base = Lazy.force kernel_block in
  Report.row "   base block: %d instructions (vmpy inner block)\n\n" (Array.length base);
  Report.row "   %8s %14s %14s %9s\n" "instrs" "incremental" "reference" "speedup";
  List.iter
    (fun k ->
      let block = replicate k base in
      let inc = time_pack (Packer.pack_indices ~desc) block in
      let reference = time_pack (Packer.pack_indices_reference ~desc) block in
      Report.row "   %8d %11.3f ms %11.3f ms %8.1fx\n" (Array.length block)
        (inc *. 1e3) (reference *. 1e3)
        (reference /. Float.max inc 1e-9))
    [ 1; 2; 4; 8; 16 ]

let benchmark () =
  let tests =
    [
      test_sda_packing;
      test_list_packing;
      test_codegen;
      test_partitioned_selection;
      test_local_selection;
      test_vm_matmul;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      (List.map (fun t -> Test.make_grouped ~name:(Test.name t) [ t ]) tests)
  in
  let results =
    List.map (fun r -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) Instance.monotonic_clock r) raw
  in
  Report.header "Micro-benchmarks (bechamel, monotonic clock)";
  List.iter2
    (fun test result ->
      Hashtbl.iter
        (fun name ols ->
          ignore name;
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Report.row "%-44s %12.1f ns/run\n" (Test.name test) est
          | _ -> Report.row "%-44s %12s\n" (Test.name test) "n/a")
        result)
    tests results;
  pack_scaling ()
