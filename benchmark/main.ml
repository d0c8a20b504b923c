(* The benchmark's command line.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
       one run of one workload in this process; the last stdout line is
       {"correct", "attempted", "failed", "metrics"}: the end-to-end
       metrics with --trace 0, the per-layer ones with --trace 1 (spans
       then go to FILE as JSON lines)
     main.exe run --seed N [--seconds S] [--reps K] [--out FILE]
     main.exe trace --seed N [--seconds S] [--reps K] [--out FILE]
       every workload, each in its own child process, seeds N..N+K-1;
       writes the set of runs with its provenance to FILE
     main.exe compare A.json B.json
       one row per (metric, workload): each set's quartiles, and a
       verdict under the bounds in BENCHMARK.json *)

open Common

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark: " ^ s);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out commit, read from .git in the current directory only;
   "unknown" outside a git checkout. *)
let git_rev () =
  let read p = String.trim (read_file (Filename.concat ".git" p)) in
  let packed name =
    match read "packed-refs" with
    | exception Sys_error _ -> "unknown"
    | refs -> (
      let lines = String.split_on_char '\n' refs in
      match List.find_opt (String.ends_with ~suffix:(" " ^ name)) lines with
      | Some line -> List.hd (String.split_on_char ' ' line)
      | None -> "unknown")
  in
  match read "HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read name with rev -> rev | exception Sys_error _ -> packed name)
  | rev -> rev

let provenance ~seed extra =
  Json.Obj
    ([
       ("git_rev", Json.Str (git_rev ()));
       ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("seed", Json.Num (float_of_int seed));
       ("setup_reps", Json.Num (float_of_int setup_reps));
     ]
    @ extra)

(* ---------------- one workload ---------------- *)

let run_workload ~workload ~seed ~seconds ~trace ~spans_file =
  if not (List.mem workload Metrics.workload_names) then die "unknown workload %S" workload;
  let spans = if trace then Some (Spans.create ()) else None in
  let r =
    match workload with
    | "compile" -> W_compile.run ~seed ~seconds ~spans
    | "serve-zipf" -> W_serve.run ~seed ~seconds ~spans
    | _ -> W_infer.run ~workload ~seed ~seconds ~spans
  in
  let listed = if trace then Metrics.per_layer else Metrics.end_to_end in
  let expected = List.map (fun m -> m.Metrics.name) listed in
  List.iter
    (fun (name, _) ->
      if not (List.mem name expected) then die "%s reported unlisted metric %s" workload name)
    r.metrics;
  (* a layer the workload never exercises did no work: a share, ratio or
     count of 0; a time is always measured *)
  let value name =
    match List.assoc_opt name r.metrics with
    | Some v -> v
    | None when trace && not (List.mem (Metrics.unit_of name) Metrics.time_units) -> 0.0
    | None -> die "%s did not report %s" workload name
  in
  Option.iter
    (fun sp ->
      mkdir_p (Filename.dirname spans_file);
      Spans.write_jsonl spans_file sp)
    spans;
  let line kvs = print_endline (Json.to_string (Json.Obj kvs)) in
  line
    [
      ("workload", Json.Str workload);
      ("provenance", provenance ~seed [ ("seconds", Json.Num seconds) ]);
      ("detail", Json.Obj r.detail);
    ];
  line
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun name ->
               let unit_ = Json.Str (Metrics.unit_of name) in
               (name, Json.Obj [ ("value", Json.Num (value name)); ("unit", unit_) ]))
             expected) );
    ]

(* ---------------- every workload, one child process each ---------------- *)

(* One workload in a child process: a true peak RSS, and no memo or
   cache state carried over from another workload.  Returns its detail
   and result lines. *)
let child ~workload ~seed ~seconds ~trace ~dir =
  let tag = Printf.sprintf "%s-%d%s" workload seed (if trace then "-trace" else "") in
  let out_file = Filename.concat dir (tag ^ ".out") in
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--spans";
       Filename.concat dir (tag ^ ".spans.jsonl") |]
  in
  let fd = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process Sys.executable_name args Unix.stdin fd Unix.stderr)
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "%s (seed %d) failed; its output is in %s" workload seed out_file);
  let lines = String.split_on_char '\n' (read_file out_file) in
  match List.rev (List.filter (( <> ) "") lines) with
  | result :: detail :: _ -> (Json.of_string detail, Json.of_string result)
  | _ -> die "%s (seed %d) printed no result" workload seed

let run_set ~trace ~seed ~seconds ~reps ~out =
  let dir = Filename.dirname out in
  mkdir_p dir;
  let run seed workload =
    let detail, result = child ~workload ~seed ~seconds ~trace ~dir in
    let num k o = Json.to_num (Json.member k o) in
    Printf.printf "%-10s seed %-4d correct=%b attempted=%.0f failed=%.0f\n" workload seed
      (Json.to_bool (Json.member "correct" result))
      (num "attempted" result) (num "failed" result);
    List.iter
      (fun (name, m) ->
        let unit_ = Json.to_str (Json.member "unit" m) in
        Printf.printf "    %-32s %14.6g %s\n" name (num "value" m) unit_)
      (Json.to_obj (Json.member "metrics" result));
    flush stdout;
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("result", result);
        ("detail", Json.member "detail" detail);
      ]
  in
  let runs =
    List.concat_map
      (fun rep -> List.map (run (seed + rep)) Metrics.workload_names)
      (List.init reps Fun.id)
  in
  let set =
    Json.Obj
      [
        ("mode", Json.Str (if trace then "trace" else "run"));
        ( "provenance",
          provenance ~seed
            [ ("seconds", Json.Num seconds); ("reps", Json.Num (float_of_int reps)) ] );
        ("runs", Json.Arr runs);
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc (Json.to_string set ^ "\n"));
  Printf.printf "wrote %s\n" out

(* ---------------- compare ---------------- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* B against A under [bound]: a median moved by more than the bound is
   better or worse, unless either side's own spread exceeds the bound;
   then only a complete separation of the two sets decides. *)
let verdict ~lower ~bound a b =
  let worse x y = if lower then x > y else x < y in
  let delta = (Sample.median b -. Sample.median a) /. Float.abs (Sample.median a) in
  let delta = if lower then delta else -.delta in
  let every p = List.for_all (fun y -> List.for_all (fun x -> p x y) a) b in
  if Float.max (Sample.spread a) (Sample.spread b) > bound then
    if every (fun x y -> worse x y) then Better
    else if every (fun x y -> worse y x) then Worse
    else Unresolved
  else if delta > bound then Worse
  else if delta < -.bound then Better
  else Same

let compare_sets path_a path_b =
  let load path =
    List.map
      (fun run ->
        ( Json.to_str (Json.member "workload" run),
          List.map
            (fun (k, m) -> (k, Json.to_num (Json.member "value" m)))
            (Json.to_obj (Json.member "metrics" (Json.member "result" run))) ))
      (Json.to_list (Json.member "runs" (Json.of_file path)))
  in
  let a = load path_a and b = load path_b in
  let bench = Json.of_file "BENCHMARK.json" in
  let metrics key =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m) = "lower",
          Option.map Json.to_num (List.assoc_opt "bound" (Json.to_obj m)) ))
      (Json.to_list (Json.member key bench))
  in
  let values set workload name =
    List.filter_map (fun (w, ms) -> if w = workload then List.assoc_opt name ms else None) set
  in
  let worse = ref 0 in
  let row = Printf.printf "%-30s %-10s %5s %32s %32s  %s\n" in
  row "metric" "workload" "bound" "A q1 / median / q3" "B q1 / median / q3" "verdict";
  let show v =
    let q1, m, q3 = Sample.quartiles v in
    Printf.sprintf "%9.4g / %9.4g / %9.4g" q1 m q3
  in
  List.iter
    (fun (name, lower, bound) ->
      List.iter
        (fun workload ->
          match (values a workload name, values b workload name) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let v, b =
              match bound with
              | None -> ("-", "-")
              | Some bound ->
                let v = verdict ~lower ~bound va vb in
                if v = Worse then incr worse;
                (verdict_name v, Printf.sprintf "%.2f" bound)
            in
            row name workload b (show va) (show vb) v)
        Metrics.workload_names)
    (metrics "end_to_end" @ metrics "per_layer");
  if !worse > 0 then exit 1

(* ---------------- command line ---------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  let get o k d = Option.value ~default:d (List.assoc_opt k o) in
  let int o k d =
    match int_of_string_opt (get o k (string_of_int d)) with
    | Some n -> n
    | None -> die "%s expects an integer" k
  in
  let seconds o =
    match float_of_string_opt (get o "--seconds" (string_of_int Metrics.run_seconds)) with
    | Some s when s > 0.0 -> s
    | _ -> die "--seconds expects a positive number"
  in
  match args with
  | ("run" | "trace") as mode :: rest ->
    let o = opts [] rest in
    let seed = int o "--seed" 1 in
    let default = Filename.concat out_root (Printf.sprintf "%s-seed%d.json" mode seed) in
    let out = get o "--out" default in
    run_set ~trace:(mode = "trace") ~seed ~seconds:(seconds o) ~reps:(int o "--reps" 1) ~out
  | [ "compare"; a; b ] -> compare_sets a b
  | first :: _ when String.starts_with ~prefix:"--" first ->
    let o = opts [] args in
    let workload = get o "--workload" "" in
    let seed = int o "--seed" 1 in
    let trace =
      match get o "--trace" "0" with
      | "0" -> false
      | "1" -> true
      | _ -> die "--trace expects 0 or 1"
    in
    let default = Printf.sprintf "spans-%s-%d.jsonl" workload seed in
    let default = Filename.concat out_root default in
    let spans_file = get o "--spans" default in
    run_workload ~workload ~seed ~seconds:(seconds o) ~trace ~spans_file
  | _ ->
    prerr_endline
      "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]\n\
      \       main.exe (run|trace) --seed N [--seconds S] [--reps K] [--out FILE]\n\
      \       main.exe compare A.json B.json";
    exit 2
