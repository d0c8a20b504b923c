(* Autotuner benchmark ("tune"): modeled latency of the gcd2
   configuration with the budgeted kernel-shape autotuner
   (Gcd2_codegen.Autotune) against the shape-adaptive heuristic, for
   every zoo model (Table-4-style).  Tuned is never worse than the
   heuristic by construction (the heuristic is always costed first), so
   any regression here is a bug and fails the experiment.  Writes
   BENCH_codegen.json so the tuned-vs-heuristic trajectory can be
   tracked across revisions.  "tune-smoke" runs a tiny budget on two
   models for CI; "zoo-goldens" prints the zoo golden literals of
   test/suite_desc.ml for sanctioned regenerations. *)

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
  verified : int;
}

let with_tune tune (config : Compiler.config) =
  { config with Compiler.opcost = { config.Compiler.opcost with Opcost.tune } }

let measure ~budget (e : Zoo.entry) =
  let g = e.Zoo.build () in
  let heuristic = Compiler.compile g in
  let tuned =
    Compiler.compile
      ~config:
        (with_tune (Some { Autotune.budget; verify = false }) Compiler.default)
      g
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
    verified = counter "tune-vm-verified";
  }

let improvement_pct r =
  if r.heuristic_cycles = 0.0 then 0.0
  else 100.0 *. (1.0 -. (r.tuned_cycles /. r.heuristic_cycles))

let json_of ~budget rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"experiment\": \"tune\",\n  \"budget\": %d,\n  \"models\": [\n"
       budget);
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"heuristic_ms\": %.6f, \"tuned_ms\": %.6f, \
            \"heuristic_cycles\": %.0f, \"tuned_cycles\": %.0f, \
            \"improvement_pct\": %.4f, \"candidates\": %d, \"costed\": %d}%s\n"
           r.name r.heuristic_ms r.tuned_ms r.heuristic_cycles r.tuned_cycles
           (improvement_pct r) r.candidates r.costed
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run_on ?(write_json = true) ~budget entries =
  Report.header
    (Printf.sprintf "tune: budgeted kernel-shape autotuning vs adaptive heuristic \
                     (budget %d)" budget);
  Printf.printf "   %-18s %12s %12s %8s %10s %8s\n" "model" "heuristic" "tuned"
    "delta" "candidates" "costed";
  let rows = List.map (measure ~budget) entries in
  let improved = ref 0 and regressed = ref 0 in
  List.iter
    (fun r ->
      let pct = improvement_pct r in
      if pct > 1.0 then incr improved;
      if r.tuned_cycles > r.heuristic_cycles then incr regressed;
      Printf.printf "   %-18s %9.2f ms %9.2f ms %+7.2f%% %10d %8d\n" r.name
        r.heuristic_ms r.tuned_ms (-.pct) r.candidates r.costed)
    rows;
  Printf.printf "\n   >1%% modeled-cycle improvement on %d/%d models\n" !improved
    (List.length rows);
  if write_json then begin
    let path = "BENCH_codegen.json" in
    let oc = open_out path in
    output_string oc (json_of ~budget rows);
    close_out oc;
    Printf.printf "   wrote %s (%d models, budget %d)\n" path (List.length rows) budget
  end;
  (* tuned <= heuristic holds by construction (the heuristic setting is
     always costed first); a regression means the tuner returned a
     setting it never costed *)
  if !regressed > 0 then begin
    Printf.printf "   FAIL: tuned modeled cycles above the heuristic on %d models\n"
      !regressed;
    exit 1
  end

let run () = run_on ~budget:Autotune.default_budget Zoo.all

(* CI variant: a tiny budget on the two cheapest-to-compile models keeps
   the smoke in seconds while still walking the full tune path
   (enumerate, cost, rank) and checking tuned <= heuristic. *)
let smoke () =
  run_on ~write_json:false ~budget:8
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
