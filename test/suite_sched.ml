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

let idg_of instrs = Idg.build ~desc (Array.map Dep.info instrs)

let test_idg_structure () =
  let idg = idg_of (fig5_block ()) in
  (* the first vadd depends on loads 0 and 1 *)
  Alcotest.(check bool) "vadd depends on load0" true (Array.mem 0 idg.Idg.pred.(3));
  Alcotest.(check bool) "vadd depends on load1" true (Array.mem 1 idg.Idg.pred.(3));
  Alcotest.(check bool) "vadd independent of load2" false (Array.mem 2 idg.Idg.pred.(3));
  (* order: loads at 0, first vadd at 1, second at 2, store at 3 *)
  Alcotest.(check int) "load order" 0 idg.Idg.order.(0);
  Alcotest.(check int) "first vadd order" 1 idg.Idg.order.(3);
  Alcotest.(check int) "second vadd order" 2 idg.Idg.order.(4);
  Alcotest.(check int) "store order" 3 idg.Idg.order.(5);
  (* ancestors of the store: loads 0,1,2 + two vadds = 5 *)
  Alcotest.(check int) "store ancestors" 5 idg.Idg.ancestors.(5)

let test_critical_path () =
  let instrs = fig5_block () in
  let idg = idg_of instrs in
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

(* [Vlut] table ids the generator draws; [execute_block] installs them *)
let lut_ids = [ 0; 1; 2; 3 ]

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
      (1, map2 (fun d i -> Instr.Smovi (d, i)) reg (int_range (-1000) 1000));
      (1, map3 (fun d s i -> Instr.Smul (d, s, Instr.Imm i)) reg reg (int_range (-100) 100));
      (2, map3 (fun d a b -> Instr.Valu (Instr.Vadd, Instr.W8, d, a, b)) vec vec vec);
      (1, map2 (fun d b -> Instr.Vmovi (d, b)) (oneof [ vec; pair ]) (int_range 0 255));
      (2, map2 (fun d a -> Instr.Vload (d, a)) vec ad);
      (2, map2 (fun a s -> Instr.Vstore (a, s)) ad vec);
      (2, map3 (fun d s t -> Instr.Vmpy (d, s, t)) pair vec reg);
      (1, map4 (fun d s t sel -> Instr.Vmpyb (d, s, t, sel)) pair vec reg (int_range 0 3));
      (1, map3 (fun d s t -> Instr.Vrmpy (d, s, t)) vec vec reg);
      ( 1,
        map4
          (fun d s m sh -> Instr.Vscale (d, s, m, sh))
          vec vec (int_range 1 (1 lsl 20)) (int_range 0 20) );
      (1, map4 (fun d s m sh -> Instr.Vscalev (d, s, m, sh)) vec vec vec (int_range 0 20));
      (1, map3 (fun d s id -> Instr.Vlut (d, s, id)) vec vec (oneofl lut_ids));
      (1, map2 (fun d s -> Instr.Vpack (d, s, Instr.W16)) vec pair);
      (1, map2 (fun d s -> Instr.Vshuff (d, s, Instr.W16)) pair pair);
      (* pointer bumps of the memory bases, so RAW and WAR edges on a base
         register occur; small and positive, so the four regions stay
         disjoint and in bounds in [execute_block] *)
      ( 1,
        map2
          (fun b i -> Instr.Salu (Instr.Add, r (8 + b), r (8 + b), Instr.Imm (4 * i)))
          (int_range 0 3) (int_range 1 4) );
    ]

let gen_block = QCheck.Gen.(map Array.of_list (list_size (int_range 1 40) gen_instr))

let print_block b = String.concat "\n" (Array.to_list (Array.map Instr.to_string b))
let arbitrary_block = QCheck.make gen_block ~print:print_block

(* The instruction with every field {!Dep.info} drops drawn afresh:
   immediates, ALU ops and lane widths, requantization constants, table
   ids and byte selectors.  Registers and memory operands stay. *)
let redraw_dropped =
  let open QCheck.Gen in
  let imm = int_range (-1000) 1000 in
  let operand = function Instr.Imm _ -> map (fun i -> Instr.Imm i) imm | o -> return o in
  let salu_op = oneofl Instr.[ Add; Sub; And; Or; Xor; Shl; Shr; Min; Max ] in
  let valu_op = oneofl Instr.[ Vadd; Vsub; Vmax; Vmin; Vavg; Vand; Vor; Vxor ] in
  let width = oneofl Instr.[ W8; W16; W32 ] in
  function
  | Instr.Smovi (d, _) -> map (fun i -> Instr.Smovi (d, i)) imm
  | Instr.Salu (_, d, s, o) -> map2 (fun op o -> Instr.Salu (op, d, s, o)) salu_op (operand o)
  | Instr.Smul (d, s, o) -> map (fun o -> Instr.Smul (d, s, o)) (operand o)
  | Instr.Vmovi (d, _) -> map (fun b -> Instr.Vmovi (d, b)) (int_range 0 255)
  | Instr.Valu (_, _, d, a, b) -> map2 (fun op w -> Instr.Valu (op, w, d, a, b)) valu_op width
  | Instr.Vmpyb (d, s, t, _) -> map (fun sel -> Instr.Vmpyb (d, s, t, sel)) (int_range 0 3)
  | Instr.Vscale (d, s, _, _) ->
    map2 (fun m sh -> Instr.Vscale (d, s, m, sh)) (int_range 1 (1 lsl 20)) (int_range 0 20)
  | Instr.Vscalev (d, s, m, _) -> map (fun sh -> Instr.Vscalev (d, s, m, sh)) (int_range 0 20)
  | Instr.Vlut (d, s, _) -> map (fun id -> Instr.Vlut (d, s, id)) nat
  | Instr.Vpack (d, s, _) -> map (fun w -> Instr.Vpack (d, s, w)) width
  | Instr.Vshuff (d, s, _) -> map (fun w -> Instr.Vshuff (d, s, w)) width
  | i -> return i

let arbitrary_block_and_redrawn =
  let gen =
    QCheck.Gen.(
      gen_block >>= fun b ->
      map (fun c -> (b, Array.of_list c)) (flatten_l (List.map redraw_dropped (Array.to_list b))))
  in
  QCheck.make gen ~print:(fun (b, c) -> print_block b ^ "\n--- redrawn ---\n" ^ print_block c)

(* [f ()] under a fresh trace: its value, the [pack] spans it opened and
   the [packets] and [stalls] it counted. *)
let traced_packs f =
  let module Trace = Gcd2_util.Trace in
  let t = Trace.create "packs" in
  let v = Trace.with_ambient t f in
  let spans = match Trace.find t "pack" with Some s -> s.Trace.calls | None -> 0 in
  (v, spans, Trace.counter t "packets", Trace.counter t "stalls")

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

(* The pack memo is keyed by the dependence projection, so packing may
   read nothing else: a block and its copy with every dropped field
   redrawn get the same packets from the reference packer, and once the
   first is packed the copy is a memo hit (no [pack] span) that counts
   the same [packets] and [stalls]. *)
let prop_packing_reads_projection =
  QCheck.Test.make ~name:"packing reads only the dependence projection" ~count:100
    arbitrary_block_and_redrawn (fun (block, copy) ->
      List.for_all
        (fun (name, strategy) ->
          let want = Packer.pack_indices_reference ~desc strategy block in
          if Packer.pack_indices_reference ~desc strategy copy <> want then
            QCheck.Test.fail_reportf "%s: the reference packs the copy differently" name;
          Gcd2_util.Memo.clear_all ();
          let _, _, packets, stalls =
            traced_packs (fun () -> Packer.pack_indices ~desc strategy block)
          in
          let got, spans, packets', stalls' =
            traced_packs (fun () -> Packer.pack_indices ~desc strategy copy)
          in
          if spans <> 0 then QCheck.Test.fail_reportf "%s: the copy was packed again" name;
          got = want && packets' = packets && stalls' = stalls)
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

(* The IDG, built straight from the definition: every program-order pair
   classified by [Dep.classify], edges collected latest first, [order] and
   [ancestors] from those edges, and [cover] as the edges no other
   successor reaches.  [Idg.build] only classifies the pairs that share a
   register or a memory base, so this is what it must equal, adjacency
   order included ([critical_path] breaks ties by it). *)
let check_idg_all_pairs instrs =
  let n = Array.length instrs in
  let g = idg_of instrs in
  let succ = Array.make n [] and pred = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let kind = Dep.classify instrs.(i) instrs.(j) in
      if Idg.edge g i j <> kind then
        QCheck.Test.fail_reportf "edge %d -> %d: idg %s, classify %s" i j
          (Option.fold ~none:"none" ~some:(Fmt.str "%a" Dep.pp_kind) (Idg.edge g i j))
          (Option.fold ~none:"none" ~some:(Fmt.str "%a" Dep.pp_kind) kind);
      Option.iter
        (fun k ->
          succ.(i) <- (j, k) :: succ.(i);
          pred.(j) <- (i, k) :: pred.(j))
        kind
    done
  done;
  let order = Array.make n 0 and anc = Array.make_matrix n n false in
  for j = 0 to n - 1 do
    List.iter
      (fun (i, _) ->
        order.(j) <- max order.(j) (order.(i) + 1);
        anc.(j).(i) <- true;
        Array.iteri (fun a x -> if x then anc.(j).(a) <- true) anc.(i))
      pred.(j)
  done;
  let ancestors =
    Array.map (Array.fold_left (fun c x -> if x then c + 1 else c) 0) anc
  in
  let cover =
    Array.map
      (fun ks -> List.filter (fun k -> not (List.exists (fun j -> anc.(k).(j)) ks)) ks)
      (Array.map (List.map fst) succ)
  in
  let indices = Array.map (fun l -> Array.of_list (List.map fst l)) in
  g.Idg.succ = indices succ && g.Idg.pred = indices pred
  && g.Idg.cover = Array.map Array.of_list cover
  && g.Idg.order = order && g.Idg.ancestors = ancestors

let prop_idg_matches_all_pairs =
  QCheck.Test.make ~name:"def-use IDG = all-pairs classification" ~count:300
    arbitrary_block check_idg_all_pairs

(* The same check on real code: every block of every kernel program the
   MobileNet-V3 and TinyBERT (seq 64) artifacts store, in packed order. *)
let test_idg_on_zoo_blocks () =
  let module Compiler = Gcd2.Compiler in
  let blocks = Hashtbl.create 256 in
  let rec collect = function
    | Program.Block ps -> Hashtbl.replace blocks (Array.of_list (List.concat ps)) ()
    | Program.Loop { body; _ } -> List.iter collect body
  in
  List.iter
    (fun (name, seq) ->
      let config = Compiler.with_device desc Compiler.default in
      let c = Compiler.compile ~config (Gcd2_models.Zoo.build ?seq name) in
      Gcd2_store.Artifact.programs_of ~options:c.Compiler.config.Compiler.opcost
        c.Compiler.graph c.Compiler.cost.Gcd2_cost.Graphcost.plans c.Compiler.assignment
      |> Array.iter (Option.iter (fun prog -> List.iter collect prog.Program.nodes)))
    [ ("MobileNet-V3", None); ("TinyBERT", Some 64) ];
  Alcotest.(check bool) "some blocks" true (Hashtbl.length blocks > 0);
  Hashtbl.iter
    (fun instrs () ->
      if not (check_idg_all_pairs instrs) then
        Alcotest.failf "IDG differs on a %d-instruction block" (Array.length instrs))
    blocks

(* A block the same process already packed is answered from the pack
   memo: no second [pack] span, the same packets, and the same [packets]
   and [stalls] counts as the first call.  The device and the strategy are
   part of the key, [Memo.clear_all] makes it cold again, and a
   [memo-lookup] fault forces a repack. *)
let test_repeated_block_packed_once () =
  let module Memo = Gcd2_util.Memo in
  let module Fault = Gcd2_util.Fault in
  let block = fig5_block () in
  let traced = traced_packs in
  let pack ?(desc = desc) strategy () = Packer.pack ~desc strategy block in
  Memo.clear_all ();
  let once, spans1, packets1, stalls1 = traced (pack Packer.sda) in
  Alcotest.(check int) "a cold pack opens a span" 1 spans1;
  Alcotest.(check bool) "some packets" true (packets1 > 0);
  Memo.clear_all ();
  let twice, spans2, packets2, stalls2 =
    traced (fun () ->
        let a = pack Packer.sda () in
        let b = pack Packer.sda () in
        Alcotest.(check bool) "same packets" true (a = b);
        a)
  in
  Alcotest.(check bool) "same packets as a cold pack" true (once = twice);
  Alcotest.(check int) "one pack span for two packs" 1 spans2;
  Alcotest.(check int) "packets counted twice" (2 * packets1) packets2;
  Alcotest.(check int) "stalls counted twice" (2 * stalls1) stalls2;
  let _, spans, _, _ = traced (pack Packer.Soft_to_hard) in
  Alcotest.(check int) "another strategy misses" 1 spans;
  let _, spans, _, _ = traced (pack ~desc:Gcd2_devices.Desc.hexagon_g2 Packer.sda) in
  Alcotest.(check int) "another device misses" 1 spans;
  Memo.clear_all ();
  let _, spans, _, _ = traced (pack Packer.sda) in
  Alcotest.(check int) "clear_all makes it cold" 1 spans;
  Fault.with_spec (Fault.parse_exn "seed=1,memo-lookup=1") (fun () ->
      let packets, spans, _, _ =
        traced (fun () -> List.init 3 (fun _ -> pack Packer.sda ()))
      in
      Alcotest.(check int) "a lookup fault repacks every time" 3 spans;
      List.iter
        (fun p -> Alcotest.(check bool) "faulted packs agree" true (p = once))
        packets)

let tests =
  [
    Alcotest.test_case "idg structure" `Quick test_idg_structure;
    Alcotest.test_case "def-use IDG = all pairs on zoo blocks" `Quick test_idg_on_zoo_blocks;
    Alcotest.test_case "a repeated block is packed once" `Quick
      test_repeated_block_packed_once;
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
    QCheck_alcotest.to_alcotest prop_idg_matches_all_pairs;
    QCheck_alcotest.to_alcotest prop_incremental_matches_reference;
    QCheck_alcotest.to_alcotest prop_packing_reads_projection;
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
  let tables =
    List.map (fun id -> (id, Array.init 256 (fun x -> ((x * (id + 3)) + id) land 255))) lut_ids
  in
  Machine.run m (Program.make ~tables "prop" [ Program.Block packets ]);
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
