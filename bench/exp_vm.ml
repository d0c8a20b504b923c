(* VM benchmark ("vm"): per-opcode wall time per executed instruction
   of the translated engine against the reference interpreter, and a
   whole-model differential over the zoo — asserting that both engines
   leave identical machine state on every opcode row, and identical
   per-node outputs and execution statistics on every model.  Writes
   BENCH_vm.json.  Whole-model inference time is the benchmark's
   infer-cnn and infer-attn workloads' to measure.

   The smoke uses tiny iteration counts and a small synthetic model so
   both engines are exercised in well under a second of simulated
   work. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Rng = Gcd2_util.Rng
module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Machine = Gcd2_vm.Machine
module Instr = Gcd2_isa.Instr
module Reg = Gcd2_isa.Reg
module Program = Gcd2_isa.Program
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module B = Graph.Builder

(* ---------------- per-opcode rows ---------------- *)

(* One instruction per packet, replayed by a hardware loop: the loop body
   is translated once and executed [trip] times, so the measured time is
   the steady-state per-instruction cost of each engine.  Every Valu op
   at every width, on vectors and on a pair, and the aliased shapes of
   [Vscalev], [Vshuff] and [Vlut] have a row (a [Vshuff] with pd = ps
   copies its source first), so the smoke runs every C path of the lane
   functions in the clone the host picks. *)
let opcodes : (string * Instr.t) list =
  let r n = Reg.R n and v n = Reg.V n and p n = Reg.P n in
  let at n off = { Instr.base = r n; offset = off } in
  let valu =
    List.concat_map
      (fun (name, op) ->
        List.map
          (fun (suffix, w) -> ("Valu." ^ name ^ suffix, Instr.Valu (op, w, v 1, v 0, v 1)))
          [ (".b", Instr.W8); (".h", Instr.W16); (".w", Instr.W32) ])
      [ ("add", Instr.Vadd); ("sub", Instr.Vsub); ("max", Instr.Vmax); ("min", Instr.Vmin);
        ("avg", Instr.Vavg); ("and", Instr.Vand); ("or", Instr.Vor); ("xor", Instr.Vxor) ]
  in
  [
    ("Salu.add", Instr.Salu (Instr.Add, r 1, r 1, Instr.Imm 1));
    ("Smul", Instr.Smul (r 1, r 1, Instr.Imm 3));
    ("Sload", Instr.Sload (r 1, at 0 0));
    ("Sstore", Instr.Sstore (at 0 64, r 1));
    ("Vload", Instr.Vload (v 0, at 0 128));
    ("Vstore", Instr.Vstore (at 0 256, v 0));
    ("Vmovi.pair", Instr.Vmovi (p 2, 0));
  ]
  @ valu
  @ [
      ("Valu.add.w.pair", Instr.Valu (Instr.Vadd, Instr.W32, p 2, p 3, p 2));
      ("Vaddw", Instr.Vaddw (p 1, v 0));
      ("Vmpy", Instr.Vmpy (p 2, v 0, r 2));
      ("Vmpyb", Instr.Vmpyb (p 2, v 0, r 2, 1));
      ("Vmul", Instr.Vmul (p 2, v 0, v 1));
      ("Vmpa", Instr.Vmpa (p 2, p 3, r 2));
      ("Vrmpy", Instr.Vrmpy (v 1, v 0, r 2));
      ("Vscale", Instr.Vscale (v 1, v 0, 1 lsl 20, 21));
      ("Vscalev", Instr.Vscalev (v 1, v 0, v 8, 21));
      ("Vscalev.vd=vs=vm", Instr.Vscalev (v 1, v 1, v 1, 21));
      ("Vpack.w", Instr.Vpack (v 1, p 2, Instr.W32));
      ("Vpack.h", Instr.Vpack (v 1, p 2, Instr.W16));
      ("Vshuff.b", Instr.Vshuff (p 2, p 3, Instr.W8));
      ("Vshuff.h", Instr.Vshuff (p 2, p 3, Instr.W16));
      ("Vshuff.w", Instr.Vshuff (p 2, p 3, Instr.W32));
      ("Vshuff.h.pd=ps", Instr.Vshuff (p 2, p 2, Instr.W16));
      ("Vlut", Instr.Vlut (v 1, v 0, 1));
      ("Vlut.vd=vs", Instr.Vlut (v 1, v 1, 1));
      ("Vdup", Instr.Vdup (v 1, r 2));
    ]

type op_row = {
  op : string;
  fast_ns : Report.spread;  (** translated engine, wall ns per executed instruction *)
  ref_ns : Report.spread;  (** reference interpreter *)
}

let throughput_program instr ~trip =
  let tables = [ (1, Array.init 256 (fun i -> (i * 7) land 0xff)) ] in
  Program.make ~tables "opcode-throughput"
    [ Program.Loop { trip; body = [ Program.Block [ [ instr ] ] ] } ]

(* Nonzero, varied source bytes, so a lane that computes a wrong value
   changes the state the engines are compared on. *)
let machine () =
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.set_sreg m (Reg.R 2) 0x01020304;
  for l = 0 to 127 do
    Machine.set_lane m (Reg.V 0) ~width:Instr.W8 l (1 + (l mod 7))
  done;
  m

(* Everything a program can change: scalar and vector registers, memory
   and the six counters. *)
let state m =
  let c = Machine.counters m in
  ( List.init Reg.scalar_count (fun i -> Machine.get_sreg m (Reg.R i)),
    List.init Reg.vector_count (fun v ->
        List.init Reg.vector_bytes (fun l -> Machine.get_lane m (Reg.V v) ~width:Instr.W8 l)),
    Bytes.sub_string (Machine.window m ~addr:0 ~len:(Machine.memory_size m)) 0
      (Machine.memory_size m),
    Machine.[ c.cycles; c.packets; c.instrs; c.macs; c.loaded_bytes; c.stored_bytes ] )

(* One run on each engine from identical machines must leave identical
   state; that run also pays translation outside the clock.  Then each
   engine's [reps] runs are sampled [n] times, as wall ns per executed
   instruction. *)
let measure_opcode ~n ~trip ~reps (op, instr) =
  let prog = throughput_program instr ~trip in
  let fast = machine () and ref_ = machine () in
  Machine.run fast prog;
  Machine.run_reference ref_ prog;
  if state fast <> state ref_ then
    failwith (Printf.sprintf "vm: opcode row %s: engines leave different machine state" op);
  let instrs = (Machine.counters fast).Machine.instrs in
  let ns run m ~reps =
    let _, t =
      Report.sample ~n (fun () ->
          for _ = 1 to reps do
            run m prog
          done)
    in
    Report.scale (1e9 /. float_of_int (instrs * reps)) t
  in
  (* the reference interpreter is much slower: fewer runs per sample *)
  {
    op;
    fast_ns = ns Machine.run fast ~reps;
    ref_ns = ns Machine.run_reference ref_ ~reps:(max 1 (reps / 8));
  }

(* ---------------- whole-model inference ---------------- *)

type model_row = {
  name : string;
  nodes : int;
  vm_nodes : int;
  host_nodes : int;
  vm_cycles : int;
  kinds : (string * Runtime.kind_stat) list;
      (** host-vs-VM split per operator kind, sorted by kind *)
}

let check_identical name (vm : T.t array) (vm_ref : T.t array) (s : Runtime.stats)
    (s_ref : Runtime.stats) =
  if Array.length vm <> Array.length vm_ref then
    failwith (name ^ ": node count differs between engines");
  Array.iteri
    (fun i (a : T.t) ->
      let b = vm_ref.(i) in
      if a.T.dims <> b.T.dims || a.T.data <> b.T.data then
        failwith (Printf.sprintf "%s: node %d output differs between engines" name i))
    vm;
  if
    s.Runtime.vm_cycles <> s_ref.Runtime.vm_cycles
    || s.Runtime.vm_nodes <> s_ref.Runtime.vm_nodes
    || s.Runtime.host_nodes <> s_ref.Runtime.host_nodes
  then failwith (name ^ ": execution stats differ between engines");
  if Report.kinds s <> Report.kinds s_ref then
    failwith (name ^ ": per-kind stats differ between engines")

(* One untimed inference per engine.  Under [Reference], [Runtime]'s
   scratch machines are fresh ones, so this also checks [Machine.reset]
   against [Machine.create]. *)
let measure_model name (g : Graph.t) =
  let c = Compiler.compile g in
  let inputs = Report.inputs_of g in
  let vm, stats = Runtime.run_with_stats c ~inputs in
  let saved = Machine.engine () in
  Machine.set_engine Machine.Reference;
  let vm_ref, stats_ref = Runtime.run_with_stats c ~inputs in
  Machine.set_engine saved;
  check_identical name vm vm_ref stats stats_ref;
  {
    name;
    nodes = Graph.size g;
    vm_nodes = stats.Runtime.vm_nodes;
    host_nodes = stats.Runtime.host_nodes;
    vm_cycles = stats.Runtime.vm_cycles;
    kinds = Report.kinds stats;
  }

(* The reference interpreter makes the biggest zoo members (FST at 140
   GMACs of simulated work...) impractical to run; the differential
   covers the models below a MAC budget and says so. *)
let model_budget_gmacs = 2.0

let zoo_models () =
  List.filter_map
    (fun (e : Zoo.entry) ->
      if e.Zoo.paper_gmacs <= model_budget_gmacs then
        Some (e.Zoo.name, Zoo.with_random_weights (e.Zoo.build ()))
      else None)
    Zoo.all

(* Small synthetic CNN for the CI smoke: conv + relu + add + matmul hits
   the matmul, eltwise and LUT kernel paths in a few milliseconds, and
   ends in a classifier-style head (global average pool, reshape to
   1 x 8, a 1 x 8 -> 10 matmul). *)
let smoke_model () =
  let rng = Rng.create 3 in
  let weight_q = Q.make (1.0 /. 64.0) in
  let b = B.create () in
  let x = B.input b [| 1; 8; 8; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 8 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:8 in
  let r1 = B.add b Op.Relu [ c1 ] in
  let s = B.add b Op.Add [ r1; c1 ] in
  let flat = B.add b (Op.Reshape { shape = [| 64; 8 |] }) [ s ] in
  let w2 = T.random ~quant:weight_q rng [| 8; 10 |] in
  let _ = B.matmul ~weight:w2 b flat ~cout:10 in
  let pooled = B.add b Op.Global_avg_pool [ s ] in
  let row = B.add b (Op.Reshape { shape = [| 1; 8 |] }) [ pooled ] in
  let w3 = T.random ~quant:weight_q rng [| 8; 10 |] in
  let _ = B.matmul ~weight:w3 b row ~cout:10 in
  B.finish b

(* ---------------- reporting ---------------- *)

let print_opcodes op_rows =
  Printf.printf "   %-16s %24s %27s %9s\n" "opcode" "fast (ns/instr)" "ref (ns/instr)"
    "speedup";
  List.iter
    (fun r ->
      Printf.printf "   %-16s %24s %27s %8.1fx\n" r.op (Report.show 1 r.fast_ns)
        (Report.show 1 r.ref_ns)
        (r.ref_ns.Report.median /. r.fast_ns.Report.median))
    op_rows

let print_models model_rows =
  Printf.printf "\n   %-18s %5s %4s %5s %12s\n" "model" "nodes" "vm" "host" "vm-cycles";
  List.iter
    (fun r ->
      Printf.printf "   %-18s %5d %4d %5d %12d\n" r.name r.nodes r.vm_nodes r.host_nodes
        r.vm_cycles)
    model_rows

let run_with ~n ~trip ~reps ~models ~label =
  Report.header
    (label ^ ": translated engine vs reference interpreter (identical state and outputs)");
  Printf.printf "   native lanes: %s clone; wall times median [q1, q3] of %d samples\n"
    (Machine.lanes_clone ()) n;
  let op_rows = List.map (measure_opcode ~n ~trip ~reps) opcodes in
  print_opcodes op_rows;
  let model_rows = List.map (fun (name, g) -> measure_model name g) models in
  print_models model_rows;
  Printf.printf
    "   (one inference per engine; models capped at %.1f GMACs: the reference engine\n\
    \    sets the cost)\n"
    model_budget_gmacs;
  (op_rows, model_rows)

let run () =
  let op_rows, model_rows =
    run_with ~n:Report.record_n ~trip:20_000 ~reps:8 ~models:(zoo_models ()) ~label:"vm"
  in
  Report.write ~experiment:"vm" "BENCH_vm.json"
    [
      ( "opcodes",
        Report.rows
          (fun r ->
            [
              ("op", Str r.op);
              ("fast_ns", Report.spread_json r.fast_ns);
              ("ref_ns", Report.spread_json r.ref_ns);
            ])
          op_rows );
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ("nodes", Int r.nodes);
              ("vm_nodes", Int r.vm_nodes);
              ("host_nodes", Int r.host_nodes);
              ("vm_cycles", Int r.vm_cycles);
              ("kinds", Report.kinds_json r.kinds);
            ])
          model_rows );
    ]

(* Smoke: both engines on every opcode and a small whole model. *)
let smoke () =
  let g = smoke_model () in
  ignore
  @@ run_with ~n:2 ~trip:200 ~reps:2 ~models:[ ("smoke-cnn", g) ] ~label:"vm smoke"
