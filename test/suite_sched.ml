(* Tests for Gcd2_sched: IDG construction, critical path, the SDA packer
   (paper Algorithm 1) and its ablations, schedule validity (including
   property-based tests over random basic blocks). *)

open Gcd2_isa
open Gcd2_sched

let desc = Gcd2_devices.Desc.hexagon698

let r n = Reg.R n
let v n = Reg.V n
let p n = Reg.P n
let addr base offset = { Instr.base; offset }

(* A block in the spirit of the paper's Figure 5: 2-D elementwise addition
   R = A + B + C.  Loads, widening adds, narrowing, store, plus scalar
   pointer bumps. *)
let fig5_block () =
  [|
    Instr.Vload (v 0, addr (r 0) 0);
    Instr.Vload (v 1, addr (r 1) 0);
    Instr.Vload (v 2, addr (r 2) 0);
    Instr.Valu (Instr.Vadd, Instr.W8, v 3, v 0, v 1);
    Instr.Valu (Instr.Vadd, Instr.W8, v 4, v 3, v 2);
    Instr.Vstore (addr (r 3) 0, v 4);
    Instr.Salu (Instr.Add, r 0, r 0, Instr.Imm 128);
    Instr.Salu (Instr.Add, r 1, r 1, Instr.Imm 128);
    Instr.Salu (Instr.Add, r 2, r 2, Instr.Imm 128);
    Instr.Salu (Instr.Add, r 3, r 3, Instr.Imm 128);
  |]

let test_idg_structure () =
  let idg = Idg.build ~desc (fig5_block ()) in
  (* the first vadd depends on loads 0 and 1 *)
  Alcotest.(check bool) "vadd depends on load0" true (List.mem_assoc 0 idg.Idg.pred.(3));
  Alcotest.(check bool) "vadd depends on load1" true (List.mem_assoc 1 idg.Idg.pred.(3));
  Alcotest.(check bool) "vadd independent of load2" false (List.mem_assoc 2 idg.Idg.pred.(3));
  (* order: loads at 0, first vadd at 1, second at 2, store at 3 *)
  Alcotest.(check int) "load order" 0 idg.Idg.order.(0);
  Alcotest.(check int) "first vadd order" 1 idg.Idg.order.(3);
  Alcotest.(check int) "second vadd order" 2 idg.Idg.order.(4);
  Alcotest.(check int) "store order" 3 idg.Idg.order.(5);
  (* ancestors of the store: loads 0,1,2 + two vadds = 5 *)
  Alcotest.(check int) "store ancestors" 5 idg.Idg.ancestors.(5)

let test_critical_path () =
  let instrs = fig5_block () in
  let idg = Idg.build ~desc instrs in
  let alive = Array.make (Array.length instrs) true in
  let path = Idg.critical_path idg alive in
  (* The heaviest chain is load -> vadd -> vadd -> store -> pointer bump
     (the last hop is the WAR edge from the store to the bump of its base
     register). *)
  Alcotest.(check int) "path length" 5 (List.length path);
  (match List.rev path with
  | last :: _ -> Alcotest.(check int) "path ends at the r3 bump" 9 last
  | [] -> Alcotest.fail "empty path")

let all_strategies =
  [
    ("sda", Packer.sda);
    ("soft_to_hard", Packer.Soft_to_hard);
    ("soft_to_none", Packer.Soft_to_none);
    ("list_topdown", Packer.List_topdown);
    ("in_order", Packer.In_order);
  ]

let test_all_strategies_valid () =
  let instrs = fig5_block () in
  List.iter
    (fun (name, strategy) ->
      let packets = Packer.pack_indices ~desc strategy instrs in
      match Verify.check ~desc instrs packets with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %a" name Verify.pp_error e)
    all_strategies

let cycles_of strategy instrs = Packer.block_cycles ~desc (Packer.pack ~desc strategy instrs)

let test_sda_beats_soft_to_hard () =
  let instrs = fig5_block () in
  let sda = cycles_of (Packer.sda) instrs in
  let hard = cycles_of Packer.Soft_to_hard instrs in
  if sda > hard then Alcotest.failf "SDA %d cycles > soft_to_hard %d cycles" sda hard;
  let sda_packets = List.length (Packer.pack ~desc (Packer.sda) instrs) in
  let hard_packets = List.length (Packer.pack ~desc Packer.Soft_to_hard instrs) in
  if sda_packets > hard_packets then
    Alcotest.failf "SDA %d packets > soft_to_hard %d packets" sda_packets hard_packets

let test_sda_beats_soft_to_none () =
  (* Build a block where ignoring penalties hurts: long soft chains plus
     independent work that SDA prefers to interleave. *)
  let instrs =
    [|
      Instr.Sload (r 1, addr (r 0) 0);
      Instr.Salu (Instr.Add, r 2, r 1, Instr.Imm 1);
      Instr.Salu (Instr.Add, r 3, r 2, Instr.Imm 1);
      Instr.Sload (r 4, addr (r 0) 8);
      Instr.Salu (Instr.Add, r 5, r 4, Instr.Imm 1);
      Instr.Salu (Instr.Add, r 6, r 5, Instr.Imm 1);
      Instr.Sload (r 7, addr (r 0) 16);
      Instr.Salu (Instr.Add, r 8, r 7, Instr.Imm 1);
      Instr.Salu (Instr.Add, r 9, r 8, Instr.Imm 1);
      Instr.Sstore (addr (r 10) 0, r 3);
      Instr.Sstore (addr (r 10) 4, r 6);
      Instr.Sstore (addr (r 10) 8, r 9);
    |]
  in
  let sda = cycles_of (Packer.sda) instrs in
  let none = cycles_of Packer.Soft_to_none instrs in
  if sda > none then Alcotest.failf "SDA %d cycles > soft_to_none %d cycles" sda none

let test_single_instruction () =
  let instrs = [| Instr.Smovi (r 1, 42) |] in
  List.iter
    (fun (name, strategy) ->
      let packets = Packer.pack ~desc strategy instrs in
      Alcotest.(check int) (name ^ ": one packet") 1 (List.length packets))
    all_strategies

let test_empty_block () =
  List.iter
    (fun (_, strategy) ->
      Alcotest.(check int) "no packets" 0 (List.length (Packer.pack ~desc strategy [||])))
    all_strategies

let test_packets_bounded () =
  let instrs = fig5_block () in
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun packet ->
          if List.length packet > Packet.max_size then
            Alcotest.failf "%s produced an oversized packet" name)
        (Packer.pack ~desc strategy instrs))
    all_strategies

(* ------------------------------------------------------------------ *)
(* Property tests: random straight-line blocks.                        *)

let gen_instr =
  let open QCheck.Gen in
  let reg = map (fun n -> r n) (int_range 0 7) in
  let vec = map (fun n -> v n) (int_range 0 7) in
  let pair = map (fun n -> p n) (int_range 0 3) in
  let ad = map2 (fun b o -> addr b (o * 4)) (map (fun n -> r (8 + n)) (int_range 0 3)) (int_range 0 15) in
  frequency
    [
      (3, map2 (fun d a -> Instr.Sload (d, a)) reg ad);
      (2, map2 (fun a s -> Instr.Sstore (a, s)) ad reg);
      (4, map3 (fun d s i -> Instr.Salu (Instr.Add, d, s, Instr.Imm i)) reg reg (int_range 0 100));
      (2, map3 (fun d a b -> Instr.Valu (Instr.Vadd, Instr.W8, d, a, b)) vec vec vec);
      (2, map2 (fun d a -> Instr.Vload (d, a)) vec ad);
      (2, map2 (fun a s -> Instr.Vstore (a, s)) ad vec);
      (2, map3 (fun d s t -> Instr.Vmpy (d, s, t)) pair vec reg);
      (1, map3 (fun d s t -> Instr.Vrmpy (d, s, t)) vec vec reg);
      (1, map2 (fun d s -> Instr.Vpack (d, s, Instr.W16)) vec pair);
      (1, map2 (fun d s -> Instr.Vshuff (d, s, Instr.W16)) pair pair);
    ]

let gen_block = QCheck.Gen.(map Array.of_list (list_size (int_range 1 40) gen_instr))

let arbitrary_block =
  QCheck.make gen_block ~print:(fun b ->
      String.concat "\n" (Array.to_list (Array.map Instr.to_string b)))

let prop_schedules_valid strategy name =
  QCheck.Test.make ~name:(Fmt.str "%s schedules are valid" name) ~count:100 arbitrary_block
    (fun instrs ->
      match Verify.check ~desc instrs (Packer.pack_indices ~desc strategy instrs) with
      | Ok () -> true
      | Error _ -> false)

(* The incremental packer must be an exact drop-in for the original
   O(n)-rescan implementation it replaced: same packet-index lists (so
   same order, same tie-breaks) and same cycle counts, on every strategy.
   This is what lets the compile-time optimization claim bit-identical
   schedules. *)
let prop_incremental_matches_reference =
  QCheck.Test.make ~name:"incremental packer = reference packer" ~count:100
    arbitrary_block (fun instrs ->
      List.for_all
        (fun (name, strategy) ->
          let fast = Packer.pack_indices ~desc strategy instrs in
          let ref_ = Packer.pack_indices_reference ~desc strategy instrs in
          if fast <> ref_ then
            QCheck.Test.fail_reportf "%s: packets differ@.fast %a@.ref  %a" name
              Fmt.(Dump.list (Dump.list int))
              fast
              Fmt.(Dump.list (Dump.list int))
              ref_
          else
            Packer.block_cycles ~desc (Packer.pack ~desc strategy instrs)
            = Packer.block_cycles ~desc (Packer.pack_reference ~desc strategy instrs))
        all_strategies)

let prop_packing_never_slower_than_sequential =
  QCheck.Test.make ~name:"packed cycles never exceed fully sequential" ~count:100
    arbitrary_block (fun instrs ->
      let sequential =
        Array.fold_left (fun a i -> a + Packet.cycles ~desc [ i ]) 0 instrs
      in
      List.for_all
        (fun (_, strategy) -> Packer.block_cycles ~desc (Packer.pack ~desc strategy instrs) <= sequential)
        all_strategies)

let tests =
  [
    Alcotest.test_case "idg structure" `Quick test_idg_structure;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "all strategies produce valid schedules" `Quick test_all_strategies_valid;
    Alcotest.test_case "sda no worse than soft_to_hard" `Quick test_sda_beats_soft_to_hard;
    Alcotest.test_case "sda no worse than soft_to_none" `Quick test_sda_beats_soft_to_none;
    Alcotest.test_case "single instruction" `Quick test_single_instruction;
    Alcotest.test_case "empty block" `Quick test_empty_block;
    Alcotest.test_case "packet size bounded" `Quick test_packets_bounded;
    QCheck_alcotest.to_alcotest (prop_schedules_valid (Packer.sda) "sda");
    QCheck_alcotest.to_alcotest (prop_schedules_valid Packer.Soft_to_hard "soft_to_hard");
    QCheck_alcotest.to_alcotest (prop_schedules_valid Packer.Soft_to_none "soft_to_none");
    QCheck_alcotest.to_alcotest (prop_schedules_valid Packer.List_topdown "list_topdown");
    QCheck_alcotest.to_alcotest (prop_schedules_valid Packer.In_order "in_order");
    QCheck_alcotest.to_alcotest prop_incremental_matches_reference;
    QCheck_alcotest.to_alcotest prop_packing_never_slower_than_sequential;
  ]

(* ------------------------------------------------------------------ *)
(* Semantic equivalence: packing must preserve machine state.          *)

module Machine = Gcd2_vm.Machine

(* Execute a block on a fresh machine (random-but-fixed memory, base
   registers pointing at disjoint regions) and fingerprint the result. *)
let execute_block packets =
  let m = Machine.create ~mem_bytes:8192 () in
  (* deterministic memory contents *)
  let rng = Gcd2_util.Rng.create 99 in
  Machine.write_i8_array m ~addr:0
    (Array.init 8192 (fun _ -> Gcd2_util.Rng.int8 rng));
  (* address bases used by the generator (r8..r11) *)
  List.iteri (fun i b -> Machine.set_sreg m (r (8 + i)) b) [ 2048; 3072; 4096; 5120 ];
  Machine.run m (Program.make "prop" [ Program.Block packets ]);
  let scalars = List.init 12 (fun i -> Machine.get_sreg m (r i)) in
  let vectors =
    List.init 8 (fun i ->
        List.init 16 (fun l -> Machine.get_lane m (v i) ~width:Instr.W8 (l * 8)))
  in
  let mem = Machine.read_i8_array m ~addr:0 ~len:8192 in
  (scalars, vectors, mem)

let prop_packing_preserves_semantics =
  QCheck.Test.make ~name:"packed execution = sequential execution" ~count:60
    arbitrary_block (fun instrs ->
      let sequential = List.map (fun i -> [ i ]) (Array.to_list instrs) in
      let want = execute_block sequential in
      List.for_all
        (fun (_, strategy) -> execute_block (Packer.pack ~desc strategy instrs) = want)
        all_strategies)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_packing_preserves_semantics ]
