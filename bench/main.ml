(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) and the experiments beyond it.  Run with no
   arguments for the default set, name experiments to run them, or pass
   --help for the list.

   Outputs print measured rows next to the paper's reported values;
   EXPERIMENTS.md records the comparison and known residuals. *)

(* The smoke behind `make check`: small passes of the vm, devices,
   tune, attn, serve-load and crash experiments in one process, writing
   no file. *)
let smoke () =
  List.iter
    (fun f -> f ())
    [
      Exp_vm.smoke;
      Exp_devices.smoke;
      Exp_tune.smoke;
      Exp_attn.smoke;
      Exp_serve.smoke;
      Exp_crash.smoke;
    ]

(* name, in the default set, what it runs *)
let experiments =
  [
    ("table1", true, "CPU vs GPU vs DSP latency and power", Exp_tables.table1);
    ("table2", true, "MatMul latency and padding per SIMD instruction", Exp_tables.table2);
    ("table3", true, "instruction selection, RAKE vs GCD2", Exp_tables.table3);
    ("table4", true, "end-to-end latency of the ten zoo models", Exp_tables.table4);
    ("table5", true, "embedded accelerators, ResNet-50", Exp_tables.table5);
    ("fig7", true, "kernels vs Halide/TVM/RAKE", Exp_figures.fig7);
    ("fig8", true, "utilization and bandwidth", Exp_figures.fig8);
    ("fig9", true, "incremental optimization breakdown", Exp_figures.fig9);
    ("fig10", true, "global selection quality and search time", Exp_figures.fig10);
    ("fig11", true, "SDA vs soft_to_hard vs soft_to_none", Exp_figures.fig11);
    ("fig12", true, "unrolling", Exp_figures.fig12);
    ("fig13", true, "power and energy efficiency", Exp_figures.fig13);
    ("ablations", true, "addressing, partition bound, SDA w, requant, dispatch",
     Exp_ablations.run);
    ("micro", false, "Bechamel timings of the compiler's own algorithms", Exp_micro.benchmark);
    ("pack-scaling", false, "incremental vs reference SDA packer", Exp_micro.pack_scaling);
    ("compile", false, "compile time and artifact cache -> BENCH_compile.json",
     Exp_compile.run);
    ("vm", false, "translated VM vs reference interpreter -> BENCH_vm.json", Exp_vm.run);
    ("devices", false, "modeled latency per device -> BENCH_devices.json", Exp_devices.run);
    ("serve-load", false, "daemon under zipf load -> BENCH_serve.json", Exp_serve.run);
    ("attn", false, "transformer kernels off vs on -> BENCH_attn.json", Exp_attn.run);
    ("tune", false, "autotuned vs heuristic kernels -> BENCH_codegen.json", Exp_tune.run);
    ("crash", false, "SIGKILL chaos over daemon processes -> BENCH_crash.json", Exp_crash.run);
    ("smoke", false, "small vm, devices, tune, attn, serve-load and crash; no file", smoke);
    ("zoo-goldens", false, "print the zoo golden literals of test/suite_desc.ml",
     Exp_tune.goldens);
  ]

let usage () =
  print_endline "usage: bench/main.exe [experiment...]";
  print_endline "experiments (* = the default set, run when none or `all` is named):";
  List.iter
    (fun (name, default, what, _) ->
      Printf.printf "  %-13s%s %s\n" name (if default then "*" else " ") what)
    experiments

let run name =
  match List.find_opt (fun (n, _, _, _) -> n = name) experiments with
  | Some (_, _, _, f) -> f ()
  | None ->
    Printf.printf "unknown experiment %S\n" name;
    usage ();
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: [] | _ :: [ "all" ] ->
    print_endline "GCD2 reproduction - regenerating every table and figure of the paper";
    List.iter (fun (name, default, _, _) -> if default then run name) experiments
  | _ :: [ "--help" ] | _ :: [ "-h" ] -> usage ()
  | _ :: names -> List.iter run names
  | [] -> usage ()
