(* Transformer benchmark ("attn"): the sequence models of the zoo
   compiled with the transformer kernels off (batched MatMul, Softmax
   and LayerNorm priced by the pre-kernel heuristics and executed on
   the host interpreter) and on (the default GCD2 configuration:
   row-operator and batched-MatMul kernels costed from generated
   programs and executed on the simulated DSP), then run end-to-end on
   the translated engine under both assignments.  The table reports the
   host-vs-VM node flip, the simulated DSP cycles, the cost model's
   end-to-end latency for both configurations, and the measured
   inference wall time.  Writes BENCH_attn.json.

   The smoke runs TinyBERT at a small bucketed sequence length (seq=32
   exercises the shape-bucket padding path), asserting the majority-DSP
   flip rather than printing a table. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Opcost = Gcd2_cost.Opcost
module Graph = Gcd2_graph.Graph

(* The comparison baseline is the default configuration with only the
   transformer kernels withheld — same selection, same packing, same
   device — so the delta is attributable to the new kernels alone. *)
let config_off =
  {
    Compiler.default with
    Compiler.name = "gcd2-no-attn";
    opcost = { Compiler.default.Compiler.opcost with Opcost.attn_kernels = false };
  }

type leg = {
  vm_nodes : int;
  host_nodes : int;
  vm_cycles : int;
  latency_ms : float;  (** cost model's end-to-end estimate *)
  wall_s : Report.spread;  (** measured steady-state inference wall time *)
}

type row = {
  name : string;
  nodes : int;
  off : leg;
  on_ : leg;
  kinds : (string * Runtime.kind_stat) list;  (** per-kind split, kernels on *)
}

(* A sequence model's inference peaks at gigabytes of node outputs:
   each inference starts from a collected heap, and a sample drops its
   outputs at once. *)
let measure_leg ~n config g ~inputs =
  let c = Compiler.compile ~config g in
  Gc.full_major ();
  (* untimed warm-up pays decode+translation outside the clock *)
  let _, stats = Runtime.run_with_stats c ~inputs in
  let _, wall_s =
    Report.sample ~n ~before:Gc.full_major (fun () ->
        ignore (Runtime.run_with_stats c ~inputs))
  in
  ( {
      vm_nodes = stats.Runtime.vm_nodes;
      host_nodes = stats.Runtime.host_nodes;
      vm_cycles = stats.Runtime.vm_cycles;
      latency_ms = Compiler.latency_ms c;
      wall_s;
    },
    stats )

let measure ~n name g =
  let inputs = Report.inputs_of g in
  let off, _ = measure_leg ~n config_off g ~inputs in
  let on_, stats = measure_leg ~n Compiler.default g ~inputs in
  {
    name;
    nodes = Graph.size g;
    off;
    on_;
    kinds = Report.kinds stats;
  }

let seq_models () =
  List.filter_map
    (fun (e : Zoo.entry) ->
      match e.Zoo.seq_build with
      | Some _ -> Some (e.Zoo.name, Zoo.with_random_weights (e.Zoo.build ()))
      | None -> None)
    Zoo.all

(* ---------------- reporting ---------------- *)

(* kernels off / kernels on, at the medians *)
let speedup r = r.off.wall_s.Report.median /. r.on_.wall_s.Report.median

let print_rows rows =
  Printf.printf "   %-12s %7s  %11s %11s %14s %26s %9s\n" "model" "kernels" "vm/host"
    "vm-cycles" "latency (ms)" "wall (s)" "speedup";
  List.iter
    (fun r ->
      let line label (l : leg) speedup =
        Printf.printf "   %-12s %7s  %5d/%-5d %11d %14.4f %26s %s\n" r.name label
          l.vm_nodes l.host_nodes l.vm_cycles l.latency_ms (Report.show 4 l.wall_s) speedup
      in
      line "off" r.off "";
      line "on" r.on_ (Printf.sprintf "%8.2fx" (speedup r)))
    rows;
  print_newline ();
  List.iter
    (fun r ->
      let attn_kinds =
        List.filter (fun (k, _) -> List.mem k [ "bmm"; "softmax"; "layer_norm" ]) r.kinds
      in
      Printf.printf "   %s per-kind (kernels on): %s\n" r.name
        (String.concat "; "
           (List.map
              (fun (k, (ks : Runtime.kind_stat)) ->
                Printf.sprintf "%s vm=%d host=%d cycles=%d" k ks.Runtime.k_vm
                  ks.Runtime.k_host ks.Runtime.k_cycles)
              attn_kinds)))
    rows

let run () =
  Report.header
    "attn: transformer kernels off vs on (batched MatMul / Softmax / LayerNorm)";
  let rows =
    List.map (fun (name, g) -> measure ~n:Report.record_n name g) (seq_models ())
  in
  print_rows rows;
  Printf.printf
    "   (wall: median [q1, q3] of %d inferences after an untimed warm-up; speedup:\n\
    \    kernels off / kernels on at the medians — the off leg runs the attention ops\n\
    \    on the host interpreter, the on leg on the simulated DSP; the latency column\n\
    \    is each leg's own cost-model estimate, not comparable across legs since the\n\
    \    kernels re-price the row operators)\n"
    Report.record_n;
  let leg (l : leg) =
    Report.Obj
      [
        ("vm_nodes", Int l.vm_nodes);
        ("host_nodes", Int l.host_nodes);
        ("vm_cycles", Int l.vm_cycles);
        ("latency_ms", Float l.latency_ms);
        ("wall_s", Report.spread_json l.wall_s);
      ]
  in
  Report.write ~experiment:"attn" "BENCH_attn.json"
    [
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ("nodes", Int r.nodes);
              ("kernels_off", leg r.off);
              ("kernels_on", leg r.on_);
              ("kinds", Report.kinds_json r.kinds);
            ])
          rows );
    ]

(* Smoke: TinyBERT at a bucketed sequence length must flip
   majority-DSP with the kernels on — both untuned and under a
   small-budget autotune, so the tuner's walk over the new kernel plans
   is exercised too. *)
let smoke () =
  Report.header "attn smoke: TinyBERT seq=32 majority-DSP flip";
  let g = Zoo.with_random_weights (Zoo.build ~seq:32 "TinyBERT") in
  let r = measure ~n:2 "TinyBERT-32" g in
  Printf.printf "   kernels off: vm=%d host=%d wall=%s s; on: vm=%d host=%d wall=%s s\n"
    r.off.vm_nodes r.off.host_nodes (Report.show 4 r.off.wall_s) r.on_.vm_nodes
    r.on_.host_nodes (Report.show 4 r.on_.wall_s);
  if r.on_.vm_nodes <= r.on_.host_nodes then
    failwith "attn smoke: transformer kernels did not flip TinyBERT majority-DSP";
  if r.on_.vm_nodes <= r.off.vm_nodes then
    failwith "attn smoke: transformer kernels did not move nodes onto the DSP";
  let tuned_config =
    {
      Compiler.default with
      Compiler.name = "gcd2-tuned";
      opcost =
        {
          Compiler.default.Compiler.opcost with
          Opcost.tune = Some { Gcd2_codegen.Autotune.budget = 4; verify = false };
        };
    }
  in
  let tuned, _ = measure_leg ~n:2 tuned_config g ~inputs:(Report.inputs_of g) in
  Printf.printf "   tuned (budget 4): vm=%d host=%d latency=%.4f ms\n" tuned.vm_nodes
    tuned.host_nodes tuned.latency_ms;
  if tuned.vm_nodes <= tuned.host_nodes then
    failwith "attn smoke: tuned compile lost the majority-DSP flip";
  if tuned.latency_ms > r.on_.latency_ms then
    failwith "attn smoke: tuned schedule worse than the heuristic";
  Printf.printf "   ok: majority-DSP (%d vm / %d host), wall %.4f -> %.4f s (%.2fx)\n"
    r.on_.vm_nodes r.on_.host_nodes r.off.wall_s.Report.median r.on_.wall_s.Report.median
    (speedup r)
