(* Tests for Gcd2_isa: registers, slot model, dependency classification,
   packet legality and timing. *)

open Gcd2_isa

let desc = Gcd2_devices.Desc.hexagon698

let r n = Reg.R n
let v n = Reg.V n
let p n = Reg.P n
let addr base offset = { Instr.base; offset }

let test_reg_overlap () =
  let check = Alcotest.(check bool) in
  check "pair covers low vector" true (Reg.overlap (p 0) (v 0));
  check "pair covers high vector" true (Reg.overlap (p 0) (v 1));
  check "pair does not cover next vector" false (Reg.overlap (p 0) (v 2));
  check "scalar vs vector disjoint" false (Reg.overlap (r 0) (v 0));
  check "same scalar overlaps" true (Reg.overlap (r 3) (r 3));
  check "pairs sharing a vector" true (Reg.overlap (p 0) (p 0));
  check "disjoint pairs" false (Reg.overlap (p 0) (p 1))

let test_reg_validate () =
  let check = Alcotest.(check bool) in
  check "r31 valid" true (Reg.validate (r 31));
  check "r32 invalid" false (Reg.validate (r 32));
  check "v31 valid" true (Reg.validate (v 31));
  check "p15 valid" true (Reg.validate (p 15));
  check "p16 invalid" false (Reg.validate (p 16))

let vload d a = Instr.Vload (v d, addr (r a) 0)
let vstore a s = Instr.Vstore (addr (r a) 0, v s)
let salu d s = Instr.Salu (Instr.Add, r d, r s, Instr.Imm 1)

let test_slots () =
  let check = Alcotest.(check bool) in
  (* Two narrowing packs need the single shift slot: unpackable (the
     paper's "packing two shift operations together is not allowed"). *)
  check "two vpack infeasible" false
    (Packet.slots_feasible ~desc [ Instr.Vpack (v 0, p 1, Instr.W32); Instr.Vpack (v 1, p 2, Instr.W32) ]);
  check "two loads feasible" true (Packet.slots_feasible ~desc [ vload 0 1; vload 2 3 ]);
  check "two loads + store infeasible" false
    (Packet.slots_feasible ~desc [ vload 0 1; vload 2 3; vstore 4 5 ]);
  check "load + store feasible" true (Packet.slots_feasible ~desc [ vload 0 1; vstore 4 5 ]);
  check "three multiplies infeasible" false
    (Packet.slots_feasible ~desc
       [ Instr.Vmpy (p 1, v 0, r 0); Instr.Vmpy (p 2, v 0, r 0); Instr.Vmpy (p 3, v 0, r 0) ]);
  check "four salu feasible" true
    (Packet.slots_feasible ~desc [ salu 0 1; salu 2 3; salu 4 5; salu 6 7 ]);
  check "five instructions infeasible" false
    (Packet.slots_feasible ~desc [ salu 0 1; salu 2 3; salu 4 5; salu 6 7; salu 8 9 ]);
  (* mixed: store, load, vmpy, vperm fills slots 0..3 exactly *)
  check "full mixed packet feasible" true
    (Packet.slots_feasible ~desc
       [ vstore 4 5; vload 0 1; Instr.Vmpy (p 3, v 2, r 0); Instr.Vshuff (p 4, p 5, Instr.W16) ])

let dep_kind = Alcotest.testable Dep.pp_kind ( = )

let test_dep_classify () =
  let check name want i j = Alcotest.(check (option dep_kind)) name want (Dep.classify i j) in
  (* load -> consumer: soft (paper fig 4a) *)
  check "load to alu is soft" (Some (Dep.Soft 2))
    (Instr.Sload (r 1, addr (r 0) 0))
    (Instr.Salu (Instr.Add, r 3, r 2, Instr.Reg (r 1)));
  (* scalar alu -> consumer: soft *)
  check "salu to consumer is soft" (Some (Dep.Soft 1))
    (Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 4))
    (Instr.Sload (r 2, addr (r 1) 0));
  (* vector alu -> store: soft (paper fig 4b) *)
  check "valu to store is soft" (Some (Dep.Soft 1))
    (Instr.Valu (Instr.Vadd, Instr.W8, v 1, v 2, v 3))
    (Instr.Vstore (addr (r 0) 0, v 1));
  (* vector alu -> vector alu: hard *)
  check "valu to valu is hard" (Some Dep.Hard)
    (Instr.Valu (Instr.Vadd, Instr.W8, v 1, v 2, v 3))
    (Instr.Valu (Instr.Vadd, Instr.W8, v 4, v 1, v 3));
  (* vmpy -> consumer: forwards with a 2-cycle bubble (soft) *)
  check "vmpy result use is soft" (Some (Dep.Soft 2))
    (Instr.Vmpy (p 1, v 0, r 0))
    (Instr.Vpack (v 6, p 1, Instr.W16));
  (* deep reducing multiply -> consumer: hard *)
  check "vrmpy result use is hard" (Some Dep.Hard)
    (Instr.Vrmpy (v 1, v 0, r 0))
    (Instr.Vscale (v 2, v 1, 5, 3));
  (* WAW: hard *)
  check "waw is hard" (Some Dep.Hard)
    (Instr.Smovi (r 1, 0))
    (Instr.Smovi (r 1, 1));
  (* WAR: soft with no penalty *)
  check "war is free soft" (Some (Dep.Soft 0))
    (Instr.Salu (Instr.Add, r 2, r 1, Instr.Imm 0))
    (Instr.Smovi (r 1, 5));
  (* pair aliasing: writing p0 conflicts with a read of v1 *)
  check "pair alias raw" (Some (Dep.Soft 2))
    (Instr.Vmpy (p 0, v 2, r 0))
    (Instr.Valu (Instr.Vadd, Instr.W16, v 4, v 1, v 3));
  check "independent instructions" None
    (Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 0))
    (Instr.Salu (Instr.Add, r 3, r 2, Instr.Imm 0))

let test_mem_dep () =
  let check name want i j = Alcotest.(check (option dep_kind)) name want (Dep.classify i j) in
  check "store then overlapping load, same base" (Some Dep.Hard)
    (Instr.Vstore (addr (r 0) 0, v 1))
    (Instr.Vload (v 2, addr (r 0) 64));
  check "store then disjoint load, same base" None
    (Instr.Vstore (addr (r 0) 0, v 1))
    (Instr.Vload (v 2, addr (r 0) 128));
  check "different bases assumed disjoint" None
    (Instr.Vstore (addr (r 0) 0, v 1))
    (Instr.Vload (v 2, addr (r 1) 0));
  check "load load never conflict" None
    (Instr.Vload (v 1, addr (r 0) 0))
    (Instr.Vload (v 2, addr (r 0) 0))

let test_packet_cycles_fig4 () =
  (* Paper figure 4: two dependent 3-cycle instructions packed together
     take 4 cycles; unpacked they take 3 + 3 = 6. *)
  let i1 = Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 1) in
  let i2 = Instr.Salu (Instr.Add, r 2, r 1, Instr.Imm 2) in
  Alcotest.(check int) "packed soft pair" 4 (Packet.cycles ~desc [ i1; i2 ]);
  Alcotest.(check int) "unpacked total" 6 (Packet.cycles ~desc [ i1 ] + Packet.cycles ~desc [ i2 ]);
  (* independent instructions: packet costs just the max latency *)
  let i3 = Instr.Salu (Instr.Add, r 4, r 3, Instr.Imm 1) in
  Alcotest.(check int) "independent pair" 3 (Packet.cycles ~desc [ i1; i3 ])

let test_packet_soft_chain () =
  (* a -> b -> c all soft: stalls accumulate along the chain. *)
  let a = Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 1) in
  let b = Instr.Salu (Instr.Add, r 2, r 1, Instr.Imm 1) in
  let c = Instr.Sstore (addr (r 3) 0, r 2) in
  Alcotest.(check int) "soft chain of three" 5 (Packet.cycles ~desc [ a; b; c ])

let test_packet_legality () =
  let i1 = Instr.Vrmpy (v 1, v 0, r 0) in
  let i2 = Instr.Vscale (v 2, v 1, 5, 3) in
  Alcotest.(check bool) "hard pair not legal" false (Packet.legal ~desc [ i1; i2 ]);
  Alcotest.(check bool) "soft pair legal" true
    (Packet.legal ~desc
       [ Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 1);
         Instr.Salu (Instr.Add, r 2, r 1, Instr.Imm 2) ])

let test_program_stats () =
  let load = Instr.Vload (v 0, addr (r 0) 0) in
  let mac = Instr.Vrmpy (v 1, v 0, r 1) in
  let store = Instr.Vstore (addr (r 2) 0, v 1) in
  let body = Program.Block [ [ load ]; [ mac ]; [ store ] ] in
  let prog = Program.make "t" [ Program.Loop { trip = 10; body = [ body ] } ] in
  Alcotest.(check int) "instr count" 30 (Program.instr_count prog);
  Alcotest.(check int) "packet count" 30 (Program.packet_count prog);
  Alcotest.(check int) "macs" 1280 (Program.macs prog);
  Alcotest.(check int) "load bytes" 1280 (Program.load_bytes prog);
  Alcotest.(check int) "store bytes" 1280 (Program.store_bytes prog);
  Alcotest.(check int) "static packets ignore trip" 3 (Program.static_packet_count prog);
  Alcotest.(check int) "cycles"
    (10 * (Packet.cycles ~desc [ load ] + Packet.cycles ~desc [ mac ] + Packet.cycles ~desc [ store ]))
    (Program.static_cycles ~desc prog)

let tests =
  [
    Alcotest.test_case "register overlap" `Quick test_reg_overlap;
    Alcotest.test_case "register validation" `Quick test_reg_validate;
    Alcotest.test_case "slot feasibility" `Quick test_slots;
    Alcotest.test_case "dependency classification" `Quick test_dep_classify;
    Alcotest.test_case "memory dependencies" `Quick test_mem_dep;
    Alcotest.test_case "packet cycles (paper fig 4)" `Quick test_packet_cycles_fig4;
    Alcotest.test_case "soft chains accumulate stalls" `Quick test_packet_soft_chain;
    Alcotest.test_case "packet legality" `Quick test_packet_legality;
    Alcotest.test_case "program statistics" `Quick test_program_stats;
  ]
