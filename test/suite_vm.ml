(* Tests for Gcd2_vm: instruction semantics (against straight-line OCaml
   reference computations), loop execution, and the agreement between
   dynamic cycle counting and the static program cost. *)

open Gcd2_isa
module Machine = Gcd2_vm.Machine
module Sat = Gcd2_util.Saturate

(* The simulator times packets as hexagon698's. *)
let desc = Gcd2_devices.Desc.hexagon698

let r n = Reg.R n
let v n = Reg.V n
let p n = Reg.P n
let addr base offset = { Instr.base; offset }

(* One instruction per packet, one block. *)
let seq instrs = [ Program.Block (List.map (fun i -> [ i ]) instrs) ]

let run ?tables instrs =
  let m = Machine.create ~mem_bytes:(1 lsl 16) () in
  Machine.run m (Program.make ?tables "test" (seq instrs));
  m

let test_scalar_ops () =
  let m =
    run
      [
        Instr.Smovi (r 0, 10);
        Instr.Smovi (r 1, 3);
        Instr.Salu (Instr.Add, r 2, r 0, Instr.Reg (r 1));
        Instr.Salu (Instr.Sub, r 3, r 0, Instr.Imm 4);
        Instr.Smul (r 4, r 0, Instr.Reg (r 1));
        Instr.Salu (Instr.Shl, r 5, r 0, Instr.Imm 2);
        Instr.Salu (Instr.Shr, r 6, r 0, Instr.Imm 1);
        Instr.Salu (Instr.Min, r 7, r 0, Instr.Reg (r 1));
        Instr.Salu (Instr.Max, r 8, r 0, Instr.Reg (r 1));
      ]
  in
  let check name want reg = Alcotest.(check int) name want (Machine.get_sreg m reg) in
  check "add" 13 (r 2);
  check "sub" 6 (r 3);
  check "mul" 30 (r 4);
  check "shl" 40 (r 5);
  check "shr" 5 (r 6);
  check "min" 3 (r 7);
  check "max" 10 (r 8)

let test_scalar_wrap () =
  let m =
    run
      [
        Instr.Smovi (r 0, 0x7fffffff);
        Instr.Salu (Instr.Add, r 1, r 0, Instr.Imm 1);
      ]
  in
  Alcotest.(check int) "wraps to min_int32" (-0x80000000) (Machine.get_sreg m (r 1))

let test_scalar_memory () =
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 100);
            Instr.Smovi (r 1, -123456);
            Instr.Sstore (addr (r 0) 8, r 1);
            Instr.Sload (r 2, addr (r 0) 8);
          ]));
  Alcotest.(check int) "store/load roundtrip" (-123456) (Machine.get_sreg m (r 2))

let test_vector_load_store () =
  let m = Machine.create ~mem_bytes:4096 () in
  let data = Array.init 128 (fun i -> i - 64) in
  Machine.write_i8_array m ~addr:256 data;
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 256);
            Instr.Smovi (r 1, 512);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vstore (addr (r 1) 0, v 0);
          ]));
  let out = Machine.read_i8_array m ~addr:512 ~len:128 in
  Alcotest.(check (array int)) "vector copy" data out

let test_valu_add_sat () =
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> if i = 0 then 120 else i mod 50) in
  let b = Array.init 128 (fun i -> if i = 0 then 120 else -(i mod 30)) in
  Machine.write_i8_array m ~addr:0 a;
  Machine.write_i8_array m ~addr:128 b;
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vload (v 1, addr (r 0) 128);
            Instr.Valu (Instr.Vadd, Instr.W8, v 2, v 0, v 1);
            Instr.Vstore (addr (r 0) 256, v 2);
          ]));
  let out = Machine.read_i8_array m ~addr:256 ~len:128 in
  let want = Array.init 128 (fun i -> Sat.sat8 (a.(i) + b.(i))) in
  Alcotest.(check (array int)) "saturating vadd" want out

let test_vmpy_semantics () =
  (* vmpy: lane i multiplied by scalar byte (i mod 4); even lanes accumulate
     into the low half, odd lanes into the high half (paper fig 1a). *)
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> (i * 7 mod 250) - 125) in
  Machine.write_i8_array m ~addr:0 a;
  let weights = [| 3; -5; 7; -2 |] in
  let packed =
    (weights.(0) land 0xff)
    lor ((weights.(1) land 0xff) lsl 8)
    lor ((weights.(2) land 0xff) lsl 16)
    lor ((weights.(3) land 0xff) lsl 24)
  in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Smovi (r 1, packed);
            Instr.Vload (v 4, addr (r 0) 0);
            Instr.Vmovi (p 1, 0);
            Instr.Vmpy (p 1, v 4, r 1);
            Instr.Vstore (addr (r 0) 512, v 2);
            Instr.Vstore (addr (r 0) 1024, v 3);
          ]));
  (* v2 = low half = even-lane products; v3 = high half = odd lanes. *)
  let lo = Machine.read_i8_array m ~addr:512 ~len:128 in
  let hi = Machine.read_i8_array m ~addr:1024 ~len:128 in
  let lane16 arr j = Sat.sign_extend ~bits:16 ((arr.((2 * j) + 1) land 0xff) lsl 8 lor (arr.(2 * j) land 0xff)) in
  for j = 0 to 63 do
    let even = a.(2 * j) * weights.((2 * j) mod 4) in
    let odd = a.((2 * j) + 1) * weights.(((2 * j) + 1) mod 4) in
    Alcotest.(check int) (Fmt.str "even lane %d" j) (Sat.sat16 even) (lane16 lo j);
    Alcotest.(check int) (Fmt.str "odd lane %d" j) (Sat.sat16 odd) (lane16 hi j)
  done

let test_vrmpy_semantics () =
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> (i * 13 mod 250) - 125) in
  Machine.write_i8_array m ~addr:0 a;
  let weights = [| -7; 11; 2; -3 |] in
  let packed =
    (weights.(0) land 0xff)
    lor ((weights.(1) land 0xff) lsl 8)
    lor ((weights.(2) land 0xff) lsl 16)
    lor ((weights.(3) land 0xff) lsl 24)
  in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Smovi (r 1, packed);
            Instr.Vload (v 4, addr (r 0) 0);
            Instr.Vmovi (v 5, 0);
            Instr.Vrmpy (v 5, v 4, r 1);
            Instr.Vrmpy (v 5, v 4, r 1);
            Instr.Vstore (addr (r 0) 512, v 5);
          ]));
  let out = Machine.read_i32_array m ~addr:512 ~len:32 in
  for l = 0 to 31 do
    let dot = ref 0 in
    for mxx = 0 to 3 do
      dot := !dot + (a.((4 * l) + mxx) * weights.(mxx))
    done;
    (* accumulated twice *)
    Alcotest.(check int) (Fmt.str "lane %d" l) (2 * !dot) out.(l)
  done

let test_vmpa_semantics () =
  let m = Machine.create ~mem_bytes:4096 () in
  let q0 = Array.init 128 (fun i -> (i mod 17) - 8) in
  let q1 = Array.init 128 (fun i -> ((i * 3) mod 19) - 9) in
  Machine.write_i8_array m ~addr:0 q0;
  Machine.write_i8_array m ~addr:128 q1;
  let w = [| 4; -6; 9; -1 |] in
  let packed =
    (w.(0) land 0xff) lor ((w.(1) land 0xff) lsl 8) lor ((w.(2) land 0xff) lsl 16)
    lor ((w.(3) land 0xff) lsl 24)
  in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Smovi (r 1, packed);
            Instr.Vload (v 4, addr (r 0) 0);
            Instr.Vload (v 5, addr (r 0) 128);
            Instr.Vmovi (p 1, 0);
            Instr.Vmpa (p 1, p 2, r 1);
            Instr.Vstore (addr (r 0) 512, v 2);
            Instr.Vstore (addr (r 0) 1024, v 3);
          ]));
  let lo = Machine.read_i8_array m ~addr:512 ~len:128 in
  let hi = Machine.read_i8_array m ~addr:1024 ~len:128 in
  let lane16 arr j =
    Sat.sign_extend ~bits:16 (((arr.((2 * j) + 1) land 0xff) lsl 8) lor (arr.(2 * j) land 0xff))
  in
  for j = 0 to 63 do
    let want_lo = (q0.(2 * j) * w.(0)) + (q1.(2 * j) * w.(1)) in
    let want_hi = (q0.((2 * j) + 1) * w.(2)) + (q1.((2 * j) + 1) * w.(3)) in
    Alcotest.(check int) (Fmt.str "lo %d" j) (Sat.sat16 want_lo) (lane16 lo j);
    Alcotest.(check int) (Fmt.str "hi %d" j) (Sat.sat16 want_hi) (lane16 hi j)
  done

(* Each lane's sum saturates once: 32767 + 100 - 200 is 32667, where
   saturating after the first product would give 32567; the high half
   mirrors it from -32768.  Scalar bytes are 1, -2, -1 and 2. *)
let test_vmpa_saturates_once () =
  let packed = 0x01 lor (0xfe lsl 8) lor (0xff lsl 16) lor (0x02 lsl 24) in
  let prog = Program.make "t" (seq [ Instr.Smovi (r 1, packed); Instr.Vmpa (p 1, p 2, r 1) ]) in
  let lanes engine =
    let saved = Machine.engine () in
    Machine.set_engine engine;
    let m = Machine.create ~mem_bytes:256 () in
    for j = 0 to 63 do
      Machine.set_lane m (v 2) ~width:Instr.W16 j 32767;
      Machine.set_lane m (v 3) ~width:Instr.W16 j (-32768)
    done;
    for i = 0 to 127 do
      Machine.set_lane m (v 4) ~width:Instr.W8 i 100;
      Machine.set_lane m (v 5) ~width:Instr.W8 i 100
    done;
    Machine.run m prog;
    Machine.set_engine saved;
    List.init 64 (fun j ->
        (Machine.get_lane m (v 2) ~width:Instr.W16 j, Machine.get_lane m (v 3) ~width:Instr.W16 j))
  in
  let want = List.init 64 (fun _ -> (32667, -32668)) in
  Alcotest.(check (list (pair int int))) "native engine" want (lanes Machine.Translated);
  Alcotest.(check (list (pair int int))) "reference" want (lanes Machine.Reference)

let test_vaddw_vpack_vshuff () =
  (* Widen 16 -> 32, then narrow back, with a shuffle roundtrip. *)
  let m = Machine.create ~mem_bytes:4096 () in
  (* v0 holds 64 16-bit lanes: j*100 - 3000 *)
  let bytes16 = Array.init 128 (fun i ->
      let j = i / 2 in
      let value = (j * 100) - 3000 in
      if i mod 2 = 0 then value land 0xff else (value asr 8) land 0xff)
  in
  Machine.write_i8_array m ~addr:0 bytes16;
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vmovi (p 1, 0);
            Instr.Vaddw (p 1, v 0);
            Instr.Vaddw (p 1, v 0);
            Instr.Vstore (addr (r 0) 512, v 2);
            Instr.Vstore (addr (r 0) 640, v 3);
          ]));
  let words = Machine.read_i32_array m ~addr:512 ~len:64 in
  for j = 0 to 63 do
    Alcotest.(check int) (Fmt.str "widened lane %d" j) (2 * ((j * 100) - 3000)) words.(j)
  done

let test_vscale () =
  let m = Machine.create ~mem_bytes:4096 () in
  let acc = Array.init 32 (fun i -> (i * 1000) - 16000) in
  Machine.write_i32_array m ~addr:0 acc;
  let mult, shift = Sat.quantize_multiplier 0.05 in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vscale (v 1, v 0, mult, shift);
            Instr.Vstore (addr (r 0) 512, v 1);
          ]));
  let out = Machine.read_i32_array m ~addr:512 ~len:32 in
  for l = 0 to 31 do
    let want = int_of_float (Float.round (float_of_int acc.(l) *. 0.05)) in
    if abs (out.(l) - want) > 1 then
      Alcotest.failf "lane %d: got %d want about %d" l out.(l) want
  done

let test_vlut () =
  let table = Array.init 256 (fun i -> (255 - i) land 0xff) in
  let m = Machine.create ~mem_bytes:4096 () in
  let src = Array.init 128 (fun i -> i - 64) in
  Machine.write_i8_array m ~addr:0 src;
  Machine.run m
    (Program.make ~tables:[ (0, table) ] "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vlut (v 1, v 0, 0);
            Instr.Vstore (addr (r 0) 512, v 1);
          ]));
  let out = Machine.read_i8_array m ~addr:512 ~len:128 in
  Array.iteri
    (fun i s ->
      let want = Sat.sign_extend ~bits:8 (table.(s land 0xff)) in
      Alcotest.(check int) (Fmt.str "lane %d" i) want out.(i))
    src

let test_loop_execution () =
  (* Sum 1..10 via a loop: r1 += r2; r2 += 1, ten times. *)
  let body =
    Program.Block
      [
        [ Instr.Salu (Instr.Add, r 1, r 1, Instr.Reg (r 2)) ];
        [ Instr.Salu (Instr.Add, r 2, r 2, Instr.Imm 1) ];
      ]
  in
  let prog =
    Program.make "sum"
      [
        Program.Block [ [ Instr.Smovi (r 1, 0) ]; [ Instr.Smovi (r 2, 1) ] ];
        Program.Loop { trip = 10; body = [ body ] };
      ]
  in
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.run m prog;
  Alcotest.(check int) "sum 1..10" 55 (Machine.get_sreg m (r 1))

let test_cycles_match_static () =
  let body =
    Program.Block
      [
        [ Instr.Vload (v 0, addr (r 0) 0); Instr.Salu (Instr.Add, r 1, r 1, Instr.Imm 1) ];
        [ Instr.Vrmpy (v 1, v 0, r 2) ];
      ]
  in
  let prog =
    Program.make "k"
      [
        Program.Block [ [ Instr.Smovi (r 0, 0) ]; [ Instr.Smovi (r 1, 0) ] ];
        Program.Loop { trip = 7; body = [ body ] };
      ]
  in
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.run m prog;
  let c = Machine.counters m in
  Alcotest.(check int) "dynamic cycles = static cycles" (Program.static_cycles ~desc prog) c.cycles;
  Alcotest.(check int) "dynamic packets = static" (Program.packet_count prog) c.packets;
  Alcotest.(check int) "macs counted" (Program.macs prog) c.macs;
  Alcotest.(check int) "load bytes" (Program.load_bytes prog) c.loaded_bytes

let test_out_of_bounds () =
  let m = Machine.create ~mem_bytes:256 () in
  Alcotest.check_raises "oob load raises"
    (Invalid_argument "memory access out of bounds: [1024, 1152)") (fun () ->
      Machine.run m
        (Program.make "t" (seq [ Instr.Smovi (r 0, 1024); Instr.Vload (v 0, addr (r 0) 0) ])))

(* Offsets near the ends of the int range, where [addr + size] wraps:
   each memory op raises the simulator's bounds fault on both engines,
   with the same counters, instead of crashing or raising from [Bytes]. *)
let test_out_of_bounds_overflow () =
  let ops =
    [ (fun a -> Instr.Sload (r 1, a)); (fun a -> Instr.Sstore (a, r 1));
      (fun a -> Instr.Vload (v 0, a)); (fun a -> Instr.Vstore (a, v 0)) ]
  in
  List.iter
    (fun offset ->
      List.iter
        (fun op ->
          let instr = op (addr (r 0) offset) in
          let prog = Program.make "t" (seq [ instr ]) in
          let outcome engine =
            let saved = Machine.engine () in
            Machine.set_engine engine;
            let m = Machine.create ~mem_bytes:4096 () in
            let e = try (Machine.run m prog; "ok") with e -> Printexc.to_string e in
            Machine.set_engine saved;
            let c = Machine.counters m in
            (e, [ c.Machine.cycles; c.packets; c.instrs; c.macs; c.loaded_bytes; c.stored_bytes ])
          in
          let ((e, _) as native) = outcome Machine.Translated in
          let name = Instr.to_string instr in
          Alcotest.(check bool)
            (name ^ " raises the bounds fault") true
            (String.starts_with ~prefix:"Invalid_argument(\"memory access out of bounds" e);
          Alcotest.(check (pair string (list int)))
            (name ^ ": engines agree") (outcome Machine.Reference) native)
        ops)
    [ max_int - 2; min_int ]

let tests =
  [
    Alcotest.test_case "scalar alu" `Quick test_scalar_ops;
    Alcotest.test_case "scalar wraparound" `Quick test_scalar_wrap;
    Alcotest.test_case "scalar memory" `Quick test_scalar_memory;
    Alcotest.test_case "vector load/store" `Quick test_vector_load_store;
    Alcotest.test_case "saturating vector add" `Quick test_valu_add_sat;
    Alcotest.test_case "vmpy semantics (fig 1a)" `Quick test_vmpy_semantics;
    Alcotest.test_case "vrmpy semantics (fig 1c)" `Quick test_vrmpy_semantics;
    Alcotest.test_case "vmpa semantics (fig 1b)" `Quick test_vmpa_semantics;
    Alcotest.test_case "vmpa saturates each lane's sum once" `Quick test_vmpa_saturates_once;
    Alcotest.test_case "vaddw widening accumulate" `Quick test_vaddw_vpack_vshuff;
    Alcotest.test_case "vscale requantization" `Quick test_vscale;
    Alcotest.test_case "vlut table lookup" `Quick test_vlut;
    Alcotest.test_case "loop execution" `Quick test_loop_execution;
    Alcotest.test_case "dynamic counters match static" `Quick test_cycles_match_static;
    Alcotest.test_case "bounds checking" `Quick test_out_of_bounds;
    Alcotest.test_case "bounds checking at overflowing offsets" `Quick
      test_out_of_bounds_overflow;
  ]

(* ------------------------------------------------------------------ *)
(* Full coverage of remaining vector operations                        *)

let test_valu_ops () =
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> (i mod 200) - 100) in
  let b = Array.init 128 (fun i -> ((i * 7) mod 150) - 75) in
  Machine.write_i8_array m ~addr:0 a;
  Machine.write_i8_array m ~addr:128 b;
  let check op fn =
    Machine.run m
      (Program.make "t"
         (seq
            [
              Instr.Smovi (r 0, 0);
              Instr.Vload (v 0, addr (r 0) 0);
              Instr.Vload (v 1, addr (r 0) 128);
              Instr.Valu (op, Instr.W8, v 2, v 0, v 1);
              Instr.Vstore (addr (r 0) 512, v 2);
            ]));
    let out = Machine.read_i8_array m ~addr:512 ~len:128 in
    Array.iteri
      (fun i got ->
        let want = fn a.(i) b.(i) in
        if got <> want then
          Alcotest.failf "%s lane %d: got %d want %d" (Instr.to_string (Instr.Valu (op, Instr.W8, v 2, v 0, v 1))) i got want)
      out
  in
  check Instr.Vsub (fun x y -> Sat.sat8 (x - y));
  check Instr.Vmax max;
  check Instr.Vmin min;
  check Instr.Vavg (fun x y -> (x + y + 1) asr 1);
  check Instr.Vand (fun x y -> Sat.sign_extend ~bits:8 ((x land y) land 0xff));
  check Instr.Vor (fun x y -> Sat.sign_extend ~bits:8 ((x lor y) land 0xff));
  check Instr.Vxor (fun x y -> Sat.sign_extend ~bits:8 ((x lxor y) land 0xff))

let test_vdup () =
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Smovi (r 1, 0x1234_56AB);
            Instr.Vdup (v 0, r 1);
            Instr.Vstore (addr (r 0) 0, v 0);
          ]));
  let out = Machine.read_i8_array m ~addr:0 ~len:128 in
  Array.iter
    (fun x -> Alcotest.(check int) "low byte splat" (Sat.sign_extend ~bits:8 0xAB) x)
    out

let test_vpack_w32 () =
  let m = Machine.create ~mem_bytes:4096 () in
  let words = Array.init 64 (fun i -> (i * 3000) - 90000) in
  Machine.write_i32_array m ~addr:0 words;
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 0, addr (r 0) 0);
            Instr.Vload (v 1, addr (r 0) 128);
            Instr.Vpack (v 2, p 0, Instr.W32);
            Instr.Vstore (addr (r 0) 512, v 2);
          ]));
  let out = Machine.read_i8_array m ~addr:512 ~len:128 in
  let lane16 j =
    Sat.sign_extend ~bits:16 (((out.((2 * j) + 1) land 0xff) lsl 8) lor (out.(2 * j) land 0xff))
  in
  for j = 0 to 63 do
    Alcotest.(check int) (Fmt.str "lane %d" j) (Sat.sat16 words.(j)) (lane16 j)
  done

let test_vshuff_roundtrip_widths () =
  (* shuffling a pair whose halves hold 0..127 / 128..255 interleaves the
     byte streams; checking one width thoroughly and the others spot-wise *)
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.write_i8_array m ~addr:0 (Array.init 256 (fun i -> Sat.sign_extend ~bits:8 i));
  List.iter
    (fun (w, bytes_per_lane) ->
      Machine.run m
        (Program.make "t"
           (seq
              [
                Instr.Smovi (r 0, 0);
                Instr.Vload (v 0, addr (r 0) 0);
                Instr.Vload (v 1, addr (r 0) 128);
                Instr.Vshuff (p 1, p 0, w);
                Instr.Vstore (addr (r 0) 512, v 2);
                Instr.Vstore (addr (r 0) 640, v 3);
              ]));
      let out = Machine.read_i8_array m ~addr:512 ~len:256 in
      (* lane 0 comes from the low half, lane 1 from the high half *)
      Alcotest.(check int) "first lane from lo" 0 out.(0);
      Alcotest.(check int)
        (Fmt.str "second lane from hi (width %d)" bytes_per_lane)
        (Sat.sign_extend ~bits:8 128)
        out.(bytes_per_lane))
    [ (Instr.W8, 1); (Instr.W16, 2); (Instr.W32, 4) ]

let test_vmpyb_selects_byte () =
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> (i mod 20) - 10) in
  Machine.write_i8_array m ~addr:0 a;
  let weights = [| 3; -5; 7; -2 |] in
  let packed =
    (weights.(0) land 0xff) lor ((weights.(1) land 0xff) lsl 8)
    lor ((weights.(2) land 0xff) lsl 16) lor ((weights.(3) land 0xff) lsl 24)
  in
  for sel = 0 to 3 do
    Machine.run m
      (Program.make "t"
         (seq
            [
              Instr.Smovi (r 0, 0);
              Instr.Smovi (r 1, packed);
              Instr.Vload (v 4, addr (r 0) 0);
              Instr.Vmovi (p 1, 0);
              Instr.Vmpyb (p 1, v 4, r 1, sel);
              Instr.Vstore (addr (r 0) 512, v 2);
              Instr.Vstore (addr (r 0) 1024, v 3);
            ]));
    let lo = Machine.read_i8_array m ~addr:512 ~len:128 in
    let lane16 arr j =
      Sat.sign_extend ~bits:16 (((arr.((2 * j) + 1) land 0xff) lsl 8) lor (arr.(2 * j) land 0xff))
    in
    for j = 0 to 63 do
      Alcotest.(check int)
        (Fmt.str "sel %d lane %d" sel j)
        (Sat.sat16 (a.(2 * j) * weights.(sel)))
        (lane16 lo j)
    done
  done

let test_vmul_elementwise () =
  let m = Machine.create ~mem_bytes:4096 () in
  let a = Array.init 128 (fun i -> (i mod 23) - 11) in
  let b = Array.init 128 (fun i -> ((i * 5) mod 19) - 9) in
  Machine.write_i8_array m ~addr:0 a;
  Machine.write_i8_array m ~addr:128 b;
  Machine.run m
    (Program.make "t"
       (seq
          [
            Instr.Smovi (r 0, 0);
            Instr.Vload (v 4, addr (r 0) 0);
            Instr.Vload (v 5, addr (r 0) 128);
            Instr.Vmovi (p 1, 0);
            Instr.Vmul (p 1, v 4, v 5);
            Instr.Vstore (addr (r 0) 512, v 2);
            Instr.Vstore (addr (r 0) 640, v 3);
          ]));
  let lo = Machine.read_i8_array m ~addr:512 ~len:128 in
  let hi = Machine.read_i8_array m ~addr:640 ~len:128 in
  let lane16 arr j =
    Sat.sign_extend ~bits:16 (((arr.((2 * j) + 1) land 0xff) lsl 8) lor (arr.(2 * j) land 0xff))
  in
  for j = 0 to 63 do
    Alcotest.(check int) (Fmt.str "even %d" j) (Sat.sat16 (a.(2 * j) * b.(2 * j))) (lane16 lo j);
    Alcotest.(check int)
      (Fmt.str "odd %d" j)
      (Sat.sat16 (a.((2 * j) + 1) * b.((2 * j) + 1)))
      (lane16 hi j)
  done

let test_scalar_logic_and_shift_ops () =
  let m =
    run
      [
        Instr.Smovi (r 0, 0b1100);
        Instr.Smovi (r 1, 0b1010);
        Instr.Salu (Instr.And, r 2, r 0, Instr.Reg (r 1));
        Instr.Salu (Instr.Or, r 3, r 0, Instr.Reg (r 1));
        Instr.Salu (Instr.Xor, r 4, r 0, Instr.Reg (r 1));
        Instr.Smovi (r 5, -16);
        Instr.Salu (Instr.Shr, r 6, r 5, Instr.Imm 2);
      ]
  in
  Alcotest.(check int) "and" 0b1000 (Machine.get_sreg m (r 2));
  Alcotest.(check int) "or" 0b1110 (Machine.get_sreg m (r 3));
  Alcotest.(check int) "xor" 0b0110 (Machine.get_sreg m (r 4));
  Alcotest.(check int) "arithmetic shift" (-4) (Machine.get_sreg m (r 6))

let tests =
  tests
  @ [
      Alcotest.test_case "vector alu op coverage" `Quick test_valu_ops;
      Alcotest.test_case "vdup" `Quick test_vdup;
      Alcotest.test_case "vpack 32->16" `Quick test_vpack_w32;
      Alcotest.test_case "vshuff widths" `Quick test_vshuff_roundtrip_widths;
      Alcotest.test_case "vmpyb byte select" `Quick test_vmpyb_selects_byte;
      Alcotest.test_case "vmul elementwise" `Quick test_vmul_elementwise;
      Alcotest.test_case "scalar logic and shifts" `Quick test_scalar_logic_and_shift_ops;
    ]

(* ------------------------------------------------------------------ *)
(* Translated engine: differential testing against the reference       *)

module Rng = Gcd2_util.Rng

let mem_bytes = 2048

(* Random instruction over a small register window, biased toward valid
   in-bounds programs but deliberately including faulting shapes: OOB
   addresses (random ALU results as bases), an unknown Vlut table id, an
   out-of-range Vmpyb selector and W8 Vpack — the two engines must agree
   on those too (same exception, same counters at the fault).  With
   [~native], only shapes the native loop runs: a program then runs whole
   in C, bounds faults included. *)
let gen_instr ?(native = false) rng =
  let sr () = r (Rng.int rng 8) in
  let vv () = v (Rng.int rng 32) in
  let pr () = p (Rng.int rng 16) in
  let w () =
    match Rng.int rng 3 with 0 -> Instr.W8 | 1 -> Instr.W16 | _ -> Instr.W32
  in
  let salu_op () =
    [| Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr;
       Instr.Min; Instr.Max |].(Rng.int rng 9)
  in
  let valu_op () =
    [| Instr.Vadd; Instr.Vsub; Instr.Vmax; Instr.Vmin; Instr.Vavg; Instr.Vand;
       Instr.Vor; Instr.Vxor |].(Rng.int rng 8)
  in
  let operand () =
    if Rng.int rng 2 = 0 then Instr.Reg (sr ()) else Instr.Imm (Rng.int rng 256 - 128)
  in
  let adr () = addr (sr ()) (Rng.int rng (mem_bytes - 128)) in
  (* About a quarter of the vector instructions alias a source with their
     destination, where the order of lane reads and writes is observable:
     [same d] is [d] itself, [inside p] a vector inside the pair [p] (the
     destination pair, or for [Vpack] the source pair).  Independent draws
     alias only 1 time in 16-32. *)
  let alias = Rng.int rng 4 = 0 in
  let same d fresh = if alias then d else fresh () in
  let inside pd fresh =
    match pd with Reg.P k when alias -> v ((2 * k) + Rng.int rng 2) | _ -> fresh ()
  in
  match Rng.int rng 21 with
  | 0 -> Instr.Smovi (sr (), Rng.int rng 1024)
  | 1 -> Instr.Salu (salu_op (), sr (), sr (), operand ())
  | 2 -> Instr.Smul (sr (), sr (), operand ())
  | 3 -> Instr.Sload (sr (), adr ())
  | 4 -> Instr.Sstore (adr (), sr ())
  | 5 -> Instr.Vload (vv (), adr ())
  | 6 -> Instr.Vstore (adr (), vv ())
  | 7 -> Instr.Vmovi ((if Rng.int rng 2 = 0 then vv () else pr ()), Rng.int rng 256 - 128)
  | 8 ->
    let dst = if Rng.int rng 2 = 0 then vv () else pr () in
    let src () = match dst with Reg.P _ -> pr () | _ -> vv () in
    let a = same dst src in
    let b = src () in
    let a, b = if Rng.int rng 2 = 0 then (a, b) else (b, a) in
    Instr.Valu (valu_op (), w (), dst, a, b)
  | 9 ->
    let pd = pr () in
    Instr.Vaddw (pd, inside pd vv)
  | 10 ->
    let pd = pr () in
    Instr.Vmpy (pd, inside pd vv, sr ())
  | 11 ->
    let pd = pr () in
    Instr.Vmpyb (pd, inside pd vv, sr (), Rng.int rng (if native then 4 else 5) (* 4 = invalid *))
  | 12 ->
    let pd = pr () in
    let a = inside pd vv in
    Instr.Vmul (pd, a, inside pd vv)
  | 13 ->
    let pd = pr () in
    Instr.Vmpa (pd, same pd pr, sr ())
  | 14 ->
    let vd = vv () in
    Instr.Vrmpy (vd, same vd vv, sr ())
  | 15 ->
    let vd = vv () in
    Instr.Vscale (vd, same vd vv, Rng.int rng (1 lsl 24), Rng.int rng 24)
  | 16 ->
    let vd = vv () in
    let vs = same vd vv in
    Instr.Vscalev (vd, vs, same vd vv, Rng.int rng 24)
  | 17 ->
    let ps = pr () in
    let w = if native then (if Rng.int rng 2 = 0 then Instr.W16 else Instr.W32) else w () in
    Instr.Vpack (inside ps vv, ps, w (* W8 = invalid *))
  | 18 ->
    let pd = pr () in
    Instr.Vshuff (pd, same pd pr, w ())
  | 19 ->
    let vd = vv () in
    Instr.Vlut (vd, same vd vv, Rng.int rng (if native then 2 else 3) (* table 2 = unknown *))
  | _ -> Instr.Vdup (vv (), sr ())

let gen_block ?native rng =
  let packets =
    List.init
      (1 + Rng.int rng 4)
      (fun _ -> List.init (1 + Rng.int rng 2) (fun _ -> gen_instr ?native rng))
  in
  Program.Block packets

let gen_program ?native seed =
  let rng = Rng.create seed in
  let node _ =
    if Rng.int rng 3 = 0 then
      (* trips include 0: the loop body is decoded but never executed *)
      Program.Loop
        {
          trip = Rng.int rng 4;
          body = List.init (1 + Rng.int rng 2) (fun _ -> gen_block ?native rng);
        }
    else gen_block ?native rng
  in
  let tables =
    [ (0, Array.init 256 (fun i -> i)); (1, Array.init 256 (fun i -> (i * 31) land 0xff)) ]
  in
  Program.make ~tables "qcheck" (List.init (2 + Rng.int rng 3) node)

(* The full observable state of a machine. *)
let snapshot m =
  let sregs = Array.init 32 (fun i -> Machine.get_sreg m (r i)) in
  let vbytes = Machine.vector_registers m in
  let mem = Machine.read_i8_array m ~addr:0 ~len:(Machine.memory_size m) in
  let c = Machine.counters m in
  let counters =
    (c.Machine.cycles, c.Machine.packets, c.Machine.instrs, c.Machine.macs,
     c.Machine.loaded_bytes, c.Machine.stored_bytes)
  in
  (sregs, vbytes, mem, counters)

(* Run [prog] on a fresh, deterministically initialized machine under
   [engine]; capture the full observable state. *)
let run_under engine seed prog =
  let saved = Machine.engine () in
  Machine.set_engine engine;
  let m = Machine.create ~mem_bytes () in
  let init = Rng.create (seed * 31) in
  (* half of the 128-byte lines are zero, so the (unaligned) vector loads
     mix zero and nonzero 32-bit words *)
  let zero_line = Array.init (mem_bytes / 128) (fun _ -> Rng.int init 2 = 0) in
  let data =
    Array.init mem_bytes (fun i -> if zero_line.(i / 128) then 0 else Rng.int8 init)
  in
  Machine.write_i8_array m ~addr:0 data;
  let outcome = try (Machine.run m prog; "ok") with e -> Printexc.to_string e in
  Machine.set_engine saved;
  let sregs, vbytes, mem, counters = snapshot m in
  (outcome, sregs, vbytes, mem, counters)

let qcheck_translated_equals_reference =
  QCheck.Test.make ~name:"translated engine = reference on random programs" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let prog = gen_program seed in
      let o_f, s_f, v_f, m_f, c_f = run_under Machine.Translated seed prog in
      let o_r, s_r, v_r, m_r, c_r = run_under Machine.Reference seed prog in
      if o_f <> o_r then QCheck.Test.fail_reportf "outcome: %s vs %s" o_f o_r;
      if c_f <> c_r then QCheck.Test.fail_reportf "counters differ (outcome %s)" o_f;
      s_f = s_r && v_f = v_r && m_f = m_r)

let qcheck_fast_cycles_match_static =
  QCheck.Test.make ~name:"fast path: counters.cycles = static_cycles" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let prog = gen_program seed in
      let o, _, _, _, (cycles, packets, instrs, _, _, _) =
        run_under Machine.Translated seed prog
      in
      (* only completed runs execute every packet *)
      QCheck.assume (o = "ok");
      cycles = Program.static_cycles ~desc prog
      && packets = Program.packet_count prog
      && instrs = Program.instr_count prog)

module Trace = Gcd2_util.Trace

let rec has_trip0 = function
  | Program.Block _ -> false
  | Program.Loop { trip; body } -> trip = 0 || List.exists has_trip0 body

(* Programs of C-runnable shapes only: each runs whole in the native loop
   (the trace counts no reference run) and leaves exactly the reference's
   state, bounds faults and trip-0 loops included, which the 300 seeds
   must both cover. *)
let test_native_random_programs () =
  let faults = ref 0 and trip0 = ref 0 in
  for seed = 1 to 300 do
    let prog = gen_program ~native:true seed in
    let trace = Trace.create "native" in
    let native = Trace.with_ambient trace (fun () -> run_under Machine.Translated seed prog) in
    if Trace.counter trace "vm-reference-runs" <> 0 then
      Alcotest.failf "seed %d ran on the reference" seed;
    let ((outcome, _, _, _, _) as reference) = run_under Machine.Reference seed prog in
    if native <> reference then
      Alcotest.failf "seed %d: the native engine differs from the reference (outcome %s)" seed
        outcome;
    if outcome <> "ok" then incr faults;
    if List.exists has_trip0 prog.Program.nodes then incr trip0
  done;
  Alcotest.(check bool) (Fmt.str "faults in %d of 300" !faults) true (!faults >= 20 && !faults <= 280);
  Alcotest.(check bool) (Fmt.str "trip-0 loops in %d of 300" !trip0) true (!trip0 >= 30)

(* Each shape the native loop does not run sends the whole program to
   the reference, which the trace counts: the instruction before it
   still runs, and the outcome and state are the reference's. *)
let test_reference_only_programs () =
  List.iter
    (fun instr ->
      let prog =
        Program.make ~tables:[ (1, Array.make 100 0) ] "t" (seq [ Instr.Smovi (r 0, 5); instr ])
      in
      let final exec =
        let m = Machine.create ~mem_bytes:256 () in
        let outcome = try (exec m prog; "ok") with e -> Printexc.to_string e in
        (outcome, snapshot m)
      in
      let trace = Trace.create "fallback" in
      let saved = Machine.engine () in
      Machine.set_engine Machine.Translated;
      let native = Trace.with_ambient trace (fun () -> final Machine.run) in
      Machine.set_engine saved;
      let name = Instr.to_string instr in
      Alcotest.(check int) (name ^ ": one reference run") 1
        (Trace.counter trace "vm-reference-runs");
      Alcotest.(check bool) (name ^ ": the reference's outcome and state") true
        (native = final Machine.run_reference))
    [
      Instr.Vpack (v 0, p 1, Instr.W8);
      Instr.Vmpyb (p 1, v 0, r 1, 4);
      Instr.Vscale (v 0, v 1, 3, 63);
      Instr.Vscalev (v 0, v 1, v 2, -1);
      Instr.Vlut (v 0, v 1, 1);
      Instr.Vlut (v 0, v 1, 2);
      Instr.Valu (Instr.Vadd, Instr.W8, p 1, v 0, p 2);
      Instr.Vmovi (r 3, 1);
      Instr.Vdup (r 3, r 0);
      Instr.Vmpa (p 1, v 4, r 0);
      Instr.Vrmpy (v 32, v 0, r 0);
      Instr.Salu (Instr.Add, r 32, r 0, Instr.Imm 1);
    ]

(* The same physical program re-run on one machine reuses its cached
   decode; counters advance by exactly one program's worth. *)
let test_decode_cache_reuse () =
  let m = Machine.create ~mem_bytes () in
  (* a program that runs twice without a bounds fault, so that each run
     executes every packet whatever state the first run leaves *)
  let rec completing seed =
    let prog = gen_program seed in
    Machine.reset ~mem_bytes m;
    match
      Machine.run m prog;
      Machine.run m prog
    with
    | () -> prog
    | exception Invalid_argument _ -> completing (seed + 1)
  in
  let prog = completing 7 in
  Machine.reset ~mem_bytes m;
  Machine.run m prog;
  let c = Machine.counters m in
  let after_one = (c.Machine.cycles, c.Machine.instrs) in
  Machine.run m prog;
  Alcotest.(check bool)
    "second run advances counters by the same amount" true
    (c.Machine.cycles = 2 * fst after_one && c.Machine.instrs = 2 * snd after_one)

(* Scratch machines: logical size governs bounds faults and observable
   memory even when the backing store stays larger from a previous use. *)
let test_scratch_reuse () =
  let m1 = Machine.scratch ~mem_bytes:8192 () in
  Machine.write_i8_array m1 ~addr:5000 [| 42 |];
  Machine.set_sreg m1 (r 3) 77;
  let m2 = Machine.scratch ~mem_bytes:256 () in
  Alcotest.(check int) "logical size" 256 (Machine.memory_size m2);
  Alcotest.(check int) "registers cleared" 0 (Machine.get_sreg m2 (r 3));
  Alcotest.(check int) "counters cleared" 0 (Machine.counters m2).Machine.instrs;
  Alcotest.check_raises "faults at the logical size, not the backing size"
    (Invalid_argument "memory access out of bounds: [200, 328)") (fun () ->
      Machine.run m2
        (Program.make "t" (seq [ Instr.Smovi (r 0, 200); Instr.Vload (v 0, addr (r 0) 0) ])));
  let m3 = Machine.scratch ~mem_bytes:8192 () in
  Alcotest.(check (array int))
    "grown-again scratch memory is zeroed" (Array.make 1 0)
    (Machine.read_i8_array m3 ~addr:5000 ~len:1)

(* An m = 1 vrmpy matmul: each 32-row panel holds one real row and 31
   zero rows.  Results equal the reference; the counters count every
   lane's MACs and every packet. *)
let test_vrmpy_single_row () =
  let module Matmul = Gcd2_codegen.Matmul in
  let module Testbench = Gcd2_codegen.Testbench in
  let desc = Gcd2_devices.Desc.hexagon698 in
  let mult, shift = Sat.quantize_multiplier 0.05 in
  let m = 1 and k = 72 and n = 20 in
  let spec =
    { Matmul.device = desc; simd = Gcd2_codegen.Simd.I_vrmpy; m; k; n; mult; shift;
      act_table = None; strategy = Gcd2_sched.Packer.sda; un = 4; ug = 1; abuf = 2;
      wbuf = 2; addressing = Matmul.Bump }
  in
  let rng = Rng.create 11 in
  let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
  let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
  let got = Testbench.run spec ~a ~w in
  Alcotest.(check (array int))
    "1xKxN vrmpy = Interp.matmul_i8"
    (Gcd2_kernels.Interp.matmul_i8 ~m ~k ~n a w ~mult ~shift)
    got.Testbench.data;
  let prog = Testbench.program (Testbench.kernel spec) in
  Alcotest.(check int) "macs = Program.macs" (Program.macs prog) got.Testbench.macs;
  Alcotest.(check int) "cycles = static_cycles" (Program.static_cycles ~desc prog)
    got.Testbench.cycles

(* ------------------------------------------------------------------ *)
(* Native lanes at the edges                                           *)

(* Register contents random programs reach only by chance: 16-bit lanes
   at the saturation bounds, 32-bit lanes at the wrap, bytes of -128 and
   127.  Each register is filled at one lane width, so a register read
   at another width (an aliased source is read as bytes and written as
   wider lanes) still meets edge values. *)
let edge8 = [| -128; 127; -127; 126; -1; 0; 1 |]
let edge16 = [| -32768; 32767; -32767; 32766; -16384; 16384; -1; 0 |]
let edge32 = [| -0x8000_0000; 0x7fff_ffff; -0x7fff_ff00; 0x7fff_ff00; -1; 0 |]

(* A machine whose registers are drawn from the edges by [seed]: equal
   seeds give equal copies.  The register file is filled in one write. *)
let edge_machine seed =
  let m = Machine.create ~mem_bytes:256 () in
  let rng = Rng.create seed in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let regs = Bytes.create (Reg.vector_count * Reg.vector_bytes) in
  let set32 b o x = Bytes.set_int32_le b o (Int32.of_int x) in
  for n = 0 to 31 do
    let set, size, values =
      match Rng.int rng 4 with
      | 0 -> (Bytes.set_int8, 1, fun () -> pick edge8)
      | 1 -> (Bytes.set_int16_le, 2, fun () -> pick edge16)
      | 2 -> (set32, 4, fun () -> pick edge32)
      | _ -> (Bytes.set_int8, 1, fun () -> Rng.int rng 256 - 128)
    in
    for l = 0 to (Reg.vector_bytes / size) - 1 do
      set regs ((Reg.vector_bytes * n) + (size * l)) (values ())
    done
  done;
  Machine.set_vector_registers m regs;
  for n = 0 to 3 do
    let b k = (pick edge8 land 0xff) lsl (8 * k) in
    Machine.set_sreg m (r n) (b 0 lor b 1 lor b 2 lor b 3)
  done;
  m

(* [Vlut] tables: 0 has entries outside a byte, negative ones included,
   1 is too short for a byte index (the reference fallback, which raises
   at the first byte past its end); any other id is unknown. *)
let edge_tables =
  [ (0, Array.init 256 (fun i -> (i * 37) - 4000)); (1, Array.init 100 (fun i -> 255 - i)) ]

(* Each case draws a destination pair [P k] (halves [lo], [hi]), a vector
   [other] outside it and a scalar operand, and [shapes] lists the
   opcode's instructions over them: every alias shape.  Each instruction
   runs twice (two packets, so accumulators go past their bounds) on two
   copies of one edge machine, one through the native engine and one
   through the reference interpreter. *)
let edge_property opcode shapes =
  QCheck.Test.make ~name:("lanes: " ^ opcode ^ " = reference at the edges") ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let k = Rng.int rng 16 in
      let rec outside () =
        let n = Rng.int rng 32 in
        if n / 2 = k then outside () else n
      in
      let other = v (outside ()) and rt = r (Rng.int rng 4) in
      List.for_all
        (fun instr ->
          let prog =
            Program.make ~tables:edge_tables "edges" [ Program.Block [ [ instr ]; [ instr ] ] ]
          in
          let final exec =
            let m = edge_machine seed in
            let outcome = try (exec m prog; "ok") with e -> Printexc.to_string e in
            (outcome, snapshot m)
          in
          let saved = Machine.engine () in
          Machine.set_engine Machine.Translated;
          let native = final Machine.run in
          Machine.set_engine saved;
          native = final Machine.run_reference
          || QCheck.Test.fail_reportf "%a differs from the reference" Instr.pp instr)
        (shapes ~pd:(p k) ~lo:(v (2 * k)) ~hi:(v ((2 * k) + 1)) ~other ~rt))

(* 0..62 run in C; 63 and -1 fall back to the reference. *)
let edge_shifts = [ 0; 1; 31; 62; 63; -1 ]

(* The pair that holds vector [other], which is outside [pd]. *)
let pair_holding = function Reg.V n -> p (n / 2) | r -> r

let edge_properties =
  [
    edge_property "vrmpy" (fun ~pd:_ ~lo ~hi:_ ~other ~rt ->
        [ Instr.Vrmpy (lo, lo, rt); Instr.Vrmpy (lo, other, rt) ]);
    edge_property "vmpy" (fun ~pd ~lo ~hi ~other ~rt ->
        List.map (fun vs -> Instr.Vmpy (pd, vs, rt)) [ lo; hi; other ]);
    edge_property "vmpyb" (fun ~pd ~lo ~hi ~other ~rt ->
        (* selector 4 is out of range: it takes the reference fallback *)
        List.concat_map
          (fun sel -> List.map (fun vs -> Instr.Vmpyb (pd, vs, rt, sel)) [ lo; hi; other ])
          [ 0; 1; 2; 3; 4 ]);
    (* pd = ps, and a source pair holding [other] *)
    edge_property "vmpa" (fun ~pd ~lo:_ ~hi:_ ~other ~rt ->
        [ Instr.Vmpa (pd, pd, rt); Instr.Vmpa (pd, pair_holding other, rt) ]);
    edge_property "vmul" (fun ~pd ~lo ~hi ~other ~rt:_ ->
        let srcs = [ lo; hi; other ] in
        List.concat_map (fun a -> List.map (fun b -> Instr.Vmul (pd, a, b)) srcs) srcs);
    edge_property "vaddw" (fun ~pd ~lo ~hi ~other ~rt:_ ->
        List.map (fun vs -> Instr.Vaddw (pd, vs)) [ lo; hi; other ]);
    edge_property "vpack" (fun ~pd ~lo ~hi ~other ~rt:_ ->
        List.concat_map
          (fun w -> List.map (fun vd -> Instr.Vpack (vd, pd, w)) [ lo; hi; other ])
          [ Instr.W32; Instr.W16 ]);
    (* multipliers at the 32-bit edges and the 63-bit ones, so products
       wrap as OCaml's do; shifts 63 and -1 take the reference fallback *)
    edge_property "vscale" (fun ~pd:_ ~lo ~hi:_ ~other ~rt:_ ->
        List.concat_map
          (fun shift ->
            List.concat_map
              (fun mult ->
                List.map (fun vs -> Instr.Vscale (lo, vs, mult, shift)) [ lo; other ])
              [ 1 lsl 31; -(1 lsl 31); 0x4000_0001; max_int; min_int ])
          edge_shifts);
    (* vs = vm squares each lane: -2^31 * -2^31 = 2^62 wraps to -2^62 *)
    edge_property "vscalev" (fun ~pd:_ ~lo ~hi:_ ~other ~rt:_ ->
        List.concat_map
          (fun shift ->
            List.map
              (fun (vs, vm) -> Instr.Vscalev (lo, vs, vm, shift))
              [ (lo, lo); (lo, other); (other, lo); (other, other) ])
          edge_shifts);
    (* every op and width, on vectors and on pairs, with d = a, d = b and
       a = b *)
    edge_property "valu" (fun ~pd ~lo ~hi ~other ~rt:_ ->
        let q = pair_holding other in
        let shapes =
          [ (lo, lo, other); (lo, other, lo); (lo, other, other); (lo, hi, other); (pd, pd, q);
            (pd, q, pd); (pd, q, q) ]
        in
        List.concat_map
          (fun op ->
            List.concat_map
              (fun w -> List.map (fun (d, a, b) -> Instr.Valu (op, w, d, a, b)) shapes)
              [ Instr.W8; Instr.W16; Instr.W32 ])
          [ Instr.Vadd; Instr.Vsub; Instr.Vmax; Instr.Vmin; Instr.Vavg; Instr.Vand; Instr.Vor;
            Instr.Vxor ]);
    edge_property "vshuff" (fun ~pd ~lo:_ ~hi:_ ~other ~rt:_ ->
        let q = pair_holding other in
        List.concat_map
          (fun w -> [ Instr.Vshuff (pd, pd, w); Instr.Vshuff (pd, q, w) ])
          [ Instr.W8; Instr.W16; Instr.W32 ]);
    edge_property "vlut" (fun ~pd:_ ~lo ~hi:_ ~other ~rt:_ ->
        List.concat_map
          (fun id -> [ Instr.Vlut (lo, lo, id); Instr.Vlut (lo, other, id) ])
          [ 0; 1; 2 ]);
  ]

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest qcheck_translated_equals_reference;
      QCheck_alcotest.to_alcotest qcheck_fast_cycles_match_static;
      Alcotest.test_case "native engine = reference on C-runnable programs" `Quick
        test_native_random_programs;
      Alcotest.test_case "a reference-only shape runs the program on the reference" `Quick
        test_reference_only_programs;
      Alcotest.test_case "decode cache reuse" `Quick test_decode_cache_reuse;
      Alcotest.test_case "scratch machine reuse" `Quick test_scratch_reuse;
      Alcotest.test_case "single-row vrmpy matmul: Interp, macs, cycles" `Quick
        test_vrmpy_single_row;
    ]
  @ List.map QCheck_alcotest.to_alcotest edge_properties
