(* Autotuner benchmark ("tune"): modeled latency of the gcd2
   configuration with the budgeted kernel-shape autotuner
   (Gcd2_codegen.Autotune) against the shape-adaptive heuristic, for
   every zoo model (Table-4-style).  Tuned is never worse than the
   heuristic by construction (the heuristic is always costed first), so
   any regression here is a bug and fails the experiment.  Writes
   BENCH_codegen.json.  The smoke runs a tiny budget on two models;
   "zoo-goldens" prints the zoo golden literals of test/suite_desc.ml
   for sanctioned regenerations. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Opcost = Gcd2_cost.Opcost
module Autotune = Gcd2_codegen.Autotune
module Trace = Gcd2_util.Trace

type row = {
  name : string;
  heuristic_ms : float;
  tuned_ms : float;
  heuristic_cycles : float;
  tuned_cycles : float;
  candidates : int;
  costed : int;
  tuned_s : float;  (** wall time of the tuned compile *)
}

let with_tune tune (config : Compiler.config) =
  { config with Compiler.opcost = { config.Compiler.opcost with Opcost.tune } }

let measure ~budget (e : Zoo.entry) =
  let g = e.Zoo.build () in
  let heuristic = Compiler.compile g in
  let tuned, tuned_s =
    Report.timed (fun () ->
        Compiler.compile
          ~config:(with_tune (Some { Autotune.budget; verify = false }) Compiler.default)
          g)
  in
  let counter n = Trace.counter tuned.Compiler.trace n in
  {
    name = e.Zoo.name;
    heuristic_ms = Compiler.latency_ms heuristic;
    tuned_ms = Compiler.latency_ms tuned;
    heuristic_cycles = heuristic.Compiler.report.Graphcost.cycles;
    tuned_cycles = tuned.Compiler.report.Graphcost.cycles;
    candidates = counter "tune-candidates";
    costed = counter "tune-costed";
    tuned_s;
  }

let improvement_pct r =
  if r.heuristic_cycles = 0.0 then 0.0
  else 100.0 *. (1.0 -. (r.tuned_cycles /. r.heuristic_cycles))

let run_on ~budget entries =
  Report.header
    (Printf.sprintf "tune: budgeted kernel-shape autotuning vs adaptive heuristic \
                     (budget %d)" budget);
  Printf.printf "   %-18s %12s %12s %8s %10s %8s %9s\n" "model" "heuristic" "tuned"
    "delta" "candidates" "costed" "tune (s)";
  let rows = List.map (measure ~budget) entries in
  let improved = ref 0 and regressed = ref 0 in
  List.iter
    (fun r ->
      let pct = improvement_pct r in
      if pct > 1.0 then incr improved;
      if r.tuned_cycles > r.heuristic_cycles then incr regressed;
      Printf.printf "   %-18s %9.2f ms %9.2f ms %+7.2f%% %10d %8d %9.2f\n" r.name
        r.heuristic_ms r.tuned_ms (-.pct) r.candidates r.costed r.tuned_s)
    rows;
  Printf.printf "\n   >1%% modeled-cycle improvement on %d/%d models\n" !improved
    (List.length rows);
  (* tuned <= heuristic holds by construction (the heuristic setting is
     always costed first); a regression means the tuner returned a
     setting it never costed *)
  if !regressed > 0 then begin
    Printf.printf "   FAIL: tuned modeled cycles above the heuristic on %d models\n"
      !regressed;
    exit 1
  end;
  rows

let run () =
  let budget = Autotune.default_budget in
  let rows = run_on ~budget Zoo.all in
  Report.write ~experiment:"tune" "BENCH_codegen.json"
    [
      ("budget", Int budget);
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ("heuristic_ms", Float r.heuristic_ms);
              ("tuned_ms", Float r.tuned_ms);
              ("heuristic_cycles", Float r.heuristic_cycles);
              ("tuned_cycles", Float r.tuned_cycles);
              ("improvement_pct", Float (improvement_pct r));
              ("candidates", Int r.candidates);
              ("costed", Int r.costed);
              ("tuned_s", Float r.tuned_s);
            ])
          rows );
    ]

(* Smoke: a tiny budget on the two cheapest-to-compile models keeps it
   in seconds while still walking the full tune path (enumerate, cost,
   rank) and checking tuned <= heuristic. *)
let smoke () =
  ignore @@ run_on ~budget:8
    (List.filter
       (fun (e : Zoo.entry) -> List.mem e.Zoo.name [ "MobileNet-V3"; "TinyBERT" ])
       Zoo.all)

(* Regenerate the zoo golden literals of test/suite_desc.ml (exact %h
   cycles/ms and the MD5 of the plan assignment under the default
   configuration retargeted to each built-in device), one list per
   device.  Goldens move only when a change is sanctioned to move them —
   paste the output over the lists and record the delta in the commit. *)
let goldens () =
  Report.header "zoo goldens (default config): paste into test/suite_desc.ml";
  List.iter
    (fun (d : Gcd2_devices.Desc.t) ->
      Printf.printf "  (* %s *)\n" d.Gcd2_devices.Desc.name;
      let config = Compiler.with_device d Compiler.default in
      List.iter
        (fun (e : Zoo.entry) ->
          let c = Compiler.compile ~config (e.Zoo.build ()) in
          let asg =
            String.concat ","
              (Array.to_list (Array.map string_of_int c.Compiler.assignment))
          in
          Printf.printf "    (%S, \"%h\", \"%h\",\n     %S);\n" e.Zoo.name
            c.Compiler.report.Graphcost.cycles c.Compiler.report.Graphcost.ms
            (Stdlib.Digest.to_hex (Stdlib.Digest.string asg)))
        Zoo.all)
    Gcd2_devices.Desc.builtins
