(* VM benchmark ("vm"): per-opcode instruction throughput of the
   translated engine against the reference interpreter, and whole-model
   inference wall time over the zoo with both engines — asserting along
   the way that per-node outputs and execution statistics are
   bit-identical.  Writes BENCH_vm.json.

   The smoke uses tiny iteration counts and a small synthetic model so
   both engines are exercised in well under a second of simulated
   work. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Stats = Gcd2_util.Stats
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

(* ---------------- per-opcode throughput ---------------- *)

(* One instruction per packet, replayed by a hardware loop: the loop body
   is translated once and executed [trip] times, so the measured rate is
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
  fast_ips : float;  (** translated engine, instructions / second *)
  ref_ips : float;  (** reference interpreter, instructions / second *)
  fast_macs_s : float;
  op_speedup : float;
}

let throughput_program instr ~trip =
  let tables = [ (1, Array.init 256 (fun i -> (i * 7) land 0xff)) ] in
  Program.make ~tables "opcode-throughput"
    [ Program.Loop { trip; body = [ Program.Block [ [ instr ] ] ] } ]

(* Rate under one engine: executed instructions (from the machine's own
   counter) per second of wall time, over [reps] runs of the program. *)
let rate engine prog ~reps =
  let saved = Machine.engine () in
  Machine.set_engine engine;
  let m = Machine.create ~mem_bytes:4096 () in
  Machine.set_sreg m (Reg.R 2) 0x01020304;
  (* nonzero source bytes: the translated [Vrmpy] skips lanes whose
     source word is 0, and the row should time the multiply *)
  for l = 0 to 127 do
    Machine.set_lane m (Reg.V 0) ~width:Instr.W8 l (1 + (l mod 7))
  done;
  (* warm-up run: pays translation (or nothing) outside the clock *)
  Machine.run m prog;
  let (), dt =
    Report.timed (fun () ->
        for _ = 1 to reps do
          Machine.run m prog
        done)
  in
  Machine.set_engine saved;
  let c = Machine.counters m in
  let frac = float_of_int reps /. float_of_int (reps + 1) in
  ( float_of_int c.Machine.instrs *. frac /. dt,
    float_of_int c.Machine.macs *. frac /. dt )

let measure_opcode ~trip ~reps (op, instr) =
  let prog = throughput_program instr ~trip in
  let fast_ips, fast_macs_s = rate Machine.Translated prog ~reps in
  (* the reference interpreter is much slower: fewer timed repetitions *)
  let ref_ips, _ = rate Machine.Reference prog ~reps:(max 1 (reps / 8)) in
  { op; fast_ips; ref_ips; fast_macs_s; op_speedup = fast_ips /. ref_ips }

(* ---------------- whole-model inference ---------------- *)

type model_row = {
  name : string;
  nodes : int;
  vm_nodes : int;
  host_nodes : int;
  vm_cycles : int;
  kinds : (string * Runtime.kind_stat) list;
      (** host-vs-VM split per operator kind, sorted by kind *)
  fast_s : float;
  ref_s : float;
  speedup : float;
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

(* Each engine's leg is timed at steady state: an untimed warm-up run
   pays the one-time per-process and per-model costs (major-heap growth,
   page faults, and on the fast engine decode+translation) outside the
   clock, then the timed run measures serving-loop behaviour.  Both
   engines get exactly the same treatment. *)
let steady_run c ~inputs =
  ignore (Runtime.run_with_stats c ~inputs);
  Report.timed (fun () -> Runtime.run_with_stats c ~inputs)

let measure_model name (g : Graph.t) =
  let c = Compiler.compile g in
  let inputs = Report.inputs_of g in
  let saved = Machine.engine () in
  Machine.set_engine Machine.Translated;
  let (vm, stats), fast_s = steady_run c ~inputs in
  Machine.set_engine Machine.Reference;
  let (vm_ref, stats_ref), ref_s = steady_run c ~inputs in
  Machine.set_engine saved;
  check_identical name vm vm_ref stats stats_ref;
  {
    name;
    nodes = Graph.size g;
    vm_nodes = stats.Runtime.vm_nodes;
    host_nodes = stats.Runtime.host_nodes;
    vm_cycles = stats.Runtime.vm_cycles;
    kinds = Report.kinds stats;
    fast_s;
    ref_s;
    speedup = ref_s /. fast_s;
  }

(* The reference interpreter makes the biggest zoo members (FST at 140
   GMACs of simulated work...) impractical to run twice; the wall-time
   table covers the models below a MAC budget and says so. *)
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
  Printf.printf "   %-16s %14s %14s %14s %9s\n" "opcode" "fast (i/s)" "ref (i/s)"
    "fast MAC/s" "speedup";
  List.iter
    (fun r ->
      Printf.printf "   %-16s %14.2e %14.2e %14.2e %8.1fx\n" r.op r.fast_ips r.ref_ips
        r.fast_macs_s r.op_speedup)
    op_rows

let print_models model_rows geomean =
  Printf.printf "\n   %-18s %5s %4s %5s %12s %10s %10s %9s\n" "model" "nodes" "vm"
    "host" "vm-cycles" "fast (s)" "ref (s)" "speedup";
  List.iter
    (fun r ->
      Printf.printf "   %-18s %5d %4d %5d %12d %10.3f %10.3f %8.1fx\n" r.name r.nodes
        r.vm_nodes r.host_nodes r.vm_cycles r.fast_s r.ref_s r.speedup)
    model_rows;
  Printf.printf "\n   geomean whole-model speedup: %.2fx\n" geomean

let run_with ~trip ~reps ~models ~label =
  Report.header
    (label ^ ": translated engine vs reference interpreter (outputs bit-identical)");
  Printf.printf "   native lanes: %s clone\n" (Machine.lanes_clone ());
  let op_rows = List.map (measure_opcode ~trip ~reps) opcodes in
  print_opcodes op_rows;
  let model_rows = List.map (fun (name, g) -> measure_model name g) models in
  let geomean = Stats.geomean (List.map (fun r -> r.speedup) model_rows) in
  print_models model_rows geomean;
  Printf.printf
    "   (steady-state wall times: per engine, one untimed warm-up run then one timed \
     run;\n    models capped at %.1f GMACs: the reference engine sets the cost)\n"
    model_budget_gmacs;
  (op_rows, model_rows, geomean)

let run () =
  let op_rows, model_rows, geomean =
    run_with ~trip:20_000 ~reps:8 ~models:(zoo_models ()) ~label:"vm"
  in
  Report.write ~experiment:"vm" "BENCH_vm.json"
    [
      ( "opcodes",
        Report.rows
          (fun r ->
            [
              ("op", Str r.op);
              ("fast_instrs_s", Float r.fast_ips);
              ("ref_instrs_s", Float r.ref_ips);
              ("fast_macs_s", Float r.fast_macs_s);
              ("speedup", Float r.op_speedup);
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
              ("fast_s", Float r.fast_s);
              ("ref_s", Float r.ref_s);
              ("speedup", Float r.speedup);
              ("kinds", Report.kinds_json r.kinds);
            ])
          model_rows );
      ("geomean_speedup", Float geomean);
    ]

(* Smoke: both engines on every opcode and a small whole model. *)
let smoke () =
  let g = smoke_model () in
  ignore @@ run_with ~trip:200 ~reps:2 ~models:[ ("smoke-cnn", g) ] ~label:"vm smoke"
