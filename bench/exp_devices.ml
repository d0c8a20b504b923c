(* Cross-device benchmark ("devices"): modeled latency of the gcd2
   configuration for every zoo model on every built-in machine
   description.  The first device (hexagon698) is the speedup baseline.
   Writes BENCH_devices.json.  The smoke runs the same measurement on a
   three-model subset. *)

module Zoo = Gcd2_models.Zoo
module Compiler = Gcd2.Compiler
module Graphcost = Gcd2_cost.Graphcost
module Desc = Gcd2_devices.Desc

type cell = { device : string; ms : float; cycles : float; utilization : float }
type row = { name : string; cells : cell list }

let measure devices (e : Zoo.entry) =
  let g = e.Zoo.build () in
  {
    name = e.Zoo.name;
    cells =
      List.map
        (fun (d : Desc.t) ->
          let c = Compiler.compile ~config:(Compiler.with_device d Compiler.default) g in
          {
            device = d.Desc.name;
            ms = Compiler.latency_ms c;
            cycles = c.Compiler.report.Graphcost.cycles;
            utilization = c.Compiler.report.Graphcost.utilization;
          })
        devices;
  }

let run_on entries =
  let devices = Desc.builtins in
  Report.header "devices: modeled latency per machine description (gcd2 config)";
  Printf.printf "   %-18s" "model";
  List.iter (fun (d : Desc.t) -> Printf.printf " %14s" d.Desc.name) devices;
  Printf.printf " %9s\n" "speedup";
  let rows = List.map (measure devices) entries in
  let wins = Array.make (List.length devices) 0 in
  List.iter
    (fun r ->
      let base = (List.hd r.cells).ms in
      Printf.printf "   %-18s" r.name;
      List.iteri
        (fun i c ->
          if i > 0 && c.ms < base then wins.(i) <- wins.(i) + 1;
          Printf.printf " %11.2f ms" c.ms)
        r.cells;
      let last = List.nth r.cells (List.length r.cells - 1) in
      Printf.printf " %8.2fx\n" (base /. last.ms))
    rows;
  let baseline = (List.hd devices).Desc.name in
  List.iteri
    (fun i (d : Desc.t) ->
      if i > 0 then
        Printf.printf "\n   %s: modeled latency below %s on %d/%d models\n" d.Desc.name
          baseline wins.(i) (List.length rows))
    devices;
  rows

let run () =
  let rows = run_on Zoo.all in
  Report.write ~experiment:"devices" "BENCH_devices.json"
    [
      ("devices", List (List.map (fun (d : Desc.t) -> Report.Str d.Desc.name) Desc.builtins));
      ( "models",
        Report.rows
          (fun r ->
            [
              ("name", Str r.name);
              ( "results",
                Report.rows
                  (fun c ->
                    [
                      ("device", Str c.device);
                      ("ms", Float c.ms);
                      ("cycles", Float c.cycles);
                      ("utilization", Float c.utilization);
                    ])
                  r.cells );
            ])
          rows );
    ]

(* Smoke: the three cheapest-to-compile models keep it under a few
   seconds while still exercising every built-in descriptor. *)
let smoke () =
  ignore @@ run_on
    (List.filter
       (fun (e : Zoo.entry) ->
         List.mem e.Zoo.name [ "MobileNet-V3"; "EfficientNet-b0"; "TinyBERT" ])
       Zoo.all)
