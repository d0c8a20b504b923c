(* gcd2 — command-line front end.

     gcd2 list                         models in the zoo
     gcd2 compile MODEL [options]      compile and report (--cache-dir to reuse artifacts)
     gcd2 serve [MODELS...]            batch-serve compile requests through the cache
     gcd2 compare MODEL                TFLite vs SNPE vs GCD2
     gcd2 kernel -m M -k K -n N        explore one matmul/conv kernel
*)

open Cmdliner

module Zoo = Gcd2_models.Zoo
module F = Gcd2_frameworks.Framework
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module T = Gcd2_tensor.Tensor
module Graphcost = Gcd2_cost.Graphcost
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Packer = Gcd2_sched.Packer
module Cache = Gcd2_store.Cache
module Stats = Gcd2_util.Stats
module Trace = Gcd2_util.Trace
module Fault = Gcd2_util.Fault
module Diag = Gcd2.Diag
module Serve = Gcd2_serve.Serve
module Desc = Gcd2_devices.Desc

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List the models of the zoo (the paper's Table IV workloads)." in
  let run () =
    Fmt.pr "%-16s %-12s %-20s %8s %6s@." "name" "type" "task" "GMACs" "#ops";
    List.iter
      (fun (e : Zoo.entry) ->
        let g = e.Zoo.build () in
        Fmt.pr "%-16s %-12s %-20s %8.2f %6d@." e.Zoo.name e.Zoo.kind
          (Zoo.task_name e.Zoo.task)
          (float_of_int (Gcd2_graph.Flops.total_macs g) /. 1e9)
          (Graph.size g))
      Zoo.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------------- compile ---------------- *)

let model_arg =
  let doc = "Model name from the zoo (see `gcd2 list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let framework_arg =
  let doc = "Framework configuration: gcd2, gcd2_b, tflite, snpe, no_opt." in
  Arg.(value & opt string "gcd2" & info [ "f"; "framework" ] ~docv:"NAME" ~doc)

let selection_arg =
  let doc =
    "Global selection: local, optimal, or a sub-graph bound for the GCD2 \
     partitioning heuristic (e.g. 13 or 17)."
  in
  Arg.(value & opt string "13" & info [ "s"; "selection" ] ~docv:"MODE" ~doc)

let device_arg =
  let doc =
    "Target machine description: hexagon698, hexagon-g2 (default \\$GCD2_DEVICE, \
     else hexagon698)."
  in
  Arg.(value & opt (some string) None & info [ "device" ] ~docv:"NAME" ~doc)

(* An unknown device name is an invalid request; a malformed GCD2_DEVICE
   must fail loudly at startup like GCD2_FAULTS does. *)
let resolve_device = function
  | Some name -> (
    match Desc.find name with
    | Some d -> d
    | None ->
      Fmt.epr "gcd2: %a@." Diag.pp
        (Diag.make Diag.Invalid_request
           (Fmt.str "unknown device %S (known: %s)" name (String.concat ", " Desc.names)));
      exit 1)
  | None -> (
    match Desc.default () with
    | d -> d
    | exception Invalid_argument msg ->
      Fmt.epr "gcd2: %s@." msg;
      exit 2)

module Autotune = Gcd2_codegen.Autotune

let tune_arg =
  let doc =
    "Autotune kernel shapes: search the validated (un, ug, abuf, wbuf) tile space \
     under a budget of $(docv) full kernel costings per problem (default \
     " ^ string_of_int Autotune.default_budget ^ "), instead of the shape-adaptive \
     heuristic alone.  Never worse than the heuristic in modeled cycles; tuned \
     compiles have their own cache fingerprint."
  in
  Arg.(
    value
    & opt ~vopt:(Some Autotune.default_budget) (some int) None
    & info [ "tune" ] ~docv:"BUDGET" ~doc)

let tune_verify_arg =
  let doc =
    "With tuning, run each tuned winner on the fast VM against the heuristic kernel \
     and fall back on any output mismatch (implies --tune)."
  in
  Arg.(value & flag & info [ "tune-verify" ] ~doc)

(* --tune-verify alone implies tuning at the default budget *)
let resolve_tune ~tune ~tune_verify =
  match (tune, tune_verify) with
  | None, false -> None
  | budget, verify ->
    Some { Autotune.budget = Option.value budget ~default:Autotune.default_budget; verify }

let with_tune tune (config : Compiler.config) =
  { config with Compiler.opcost = { config.Compiler.opcost with Gcd2_cost.Opcost.tune } }

let verbose_arg =
  let doc = "Print the chosen execution plan of every operator." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let trace_arg =
  let doc =
    "Print the compile trace: per-pass wall time plus the counters the \
     deeper layers record (fused nodes, partitions, packets, stalls)."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let dump_after_arg =
  let doc =
    "Dump the intermediate artifact after the named pass (repeatable; see \
     the pass names printed by --trace, e.g. fuse-activations or \
     'select:gcd2(13)')."
  in
  Arg.(value & opt_all string [] & info [ "dump-after" ] ~docv:"PASS" ~doc)

let cache_dir_arg =
  let doc = "Reuse compiled artifacts from the content-addressed cache rooted at $(docv) \
             (created as needed)." in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_arg =
  let doc = "Enable the compile cache at its default location (\\$GCD2_CACHE_DIR, else \
             \\$XDG_CACHE_HOME/gcd2, else ~/.cache/gcd2)." in
  Arg.(value & flag & info [ "cache" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for plan enumeration (default \\$GCD2_JOBS, else 1). Affects \
     wall time only: the compiled result is identical for every value and cache \
     entries are shared across worker counts."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_cache_dir ~cache_dir ~cache =
  match cache_dir with
  | Some _ -> cache_dir
  | None -> if cache then Some (Cache.default_dir ()) else None

(* A malformed GCD2_FAULTS must fail loudly at startup, not silently
   run the process fault-free (or blow up mid-compile). *)
let check_fault_env () =
  match Fault.env_error () with
  | Some e ->
    Fmt.epr "gcd2: %s@." e;
    exit 2
  | None -> ()

let config_of ~framework ~selection =
  match Serve.config_of ~framework ~selection () with
  | Ok config -> config
  | Error d ->
    Fmt.epr "gcd2: %a@." Diag.pp d;
    exit 1

(* An unknown model name is an invalid request, not a crash ([Zoo.find]
   raises Invalid_argument, which cmdliner would report as an internal
   error). *)
let find_model model =
  match Zoo.find model with
  | entry -> entry
  | exception Invalid_argument msg ->
    Fmt.epr "gcd2: %a@." Diag.pp (Diag.make ~model Diag.Invalid_request msg);
    exit 1

let compile_run model framework selection device tune tune_verify verbose trace dump_after
    cache_dir cache jobs =
  check_fault_env ();
  let entry = find_model model in
  let config =
    with_tune (resolve_tune ~tune ~tune_verify)
      (Compiler.with_device (resolve_device device) (config_of ~framework ~selection))
  in
  let c =
    match
      Compiler.compile_result ~config ~dump_after ~dump_ppf:Fmt.stdout
        ?cache_dir:(resolve_cache_dir ~cache_dir ~cache)
        ?jobs
        (entry.Zoo.build ())
    with
    | Ok c -> c
    | Error d ->
      Fmt.epr "gcd2: compile failed: %a@." Diag.pp d;
      exit 1
  in
  Fmt.pr "%a@." Compiler.pp_summary c;
  if trace then Fmt.pr "@.%a@." Compiler.pp_trace c;
  Fmt.pr "paper reports %.1f ms for GCD2 on this model@." entry.Zoo.paper_gcd2_ms;
  if verbose then begin
    Fmt.pr "@.%-4s %-26s %-24s %10s@." "id" "operator" "plan" "cycles";
    Array.iter
      (fun (n : Graphcost.node_report) ->
        Fmt.pr "%-4d %-26s %-24s %10.0f@." n.Graphcost.node.Graph.id
          (Op.name n.Graphcost.node.Graph.op)
          (Fmt.str "%a" Gcd2_cost.Plan.pp n.Graphcost.plan)
          n.Graphcost.cycles)
      c.Compiler.report.Graphcost.per_node
  end

let compile_cmd =
  let doc = "Compile a zoo model and report latency/utilization." in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const compile_run $ model_arg $ framework_arg $ selection_arg $ device_arg
      $ tune_arg $ tune_verify_arg $ verbose_arg $ trace_arg $ dump_after_arg
      $ cache_dir_arg $ cache_arg $ jobs_arg)

(* ---------------- serve ---------------- *)

let read_request_lines ic =
  let rec go acc =
    match In_channel.input_line ic with
    | Some line -> go (line :: acc)
    | None -> List.rev acc
  in
  go []

(* One structured outcome line per request, shared with the daemon
   (Serve.outcome_line) and emitted through the process-wide serialized
   writer so concurrent emitters can never tear a line. *)
let print_served (r : Serve.served) =
  Gcd2_util.Logsink.emit (Serve.outcome_line r)

let serve_run models requests_file framework selection device tune tune_verify repeat
    cache_dir no_cache deadline_ms retries backoff_ms =
  check_fault_env ();
  let device = (resolve_device device).Desc.name in
  let tune = resolve_tune ~tune ~tune_verify in
  let cache_dir =
    if no_cache then None
    else Some (match cache_dir with Some d -> d | None -> Cache.default_dir ())
  in
  let from_file =
    match requests_file with
    | Some path ->
      In_channel.with_open_text path (fun ic ->
          Serve.parse_lines ~framework ~selection ~device ?tune (read_request_lines ic))
    | None -> ([], [])
  in
  let (file_requests, parse_errors), from_stdin =
    if models = [] && requests_file = None then begin
      (* no positional models and no request file: serve stdin as the
         request stream, one request per line until EOF *)
      Fmt.epr
        "reading requests from stdin (MODEL [FRAMEWORK [SELECTION]] [device=NAME] \
         [tune=SPEC] [seq=N] per line)...@.";
      ( Serve.parse_lines ~framework ~selection ~device ?tune
          (read_request_lines In_channel.stdin),
        true )
    end
    else (from_file, false)
  in
  ignore from_stdin;
  let requests =
    List.map (fun m -> Serve.request ~framework ~selection ~device ?tune m) models
    @ file_requests
  in
  let requests = List.concat (List.init (max 1 repeat) (fun _ -> requests)) in
  (* malformed request lines are errors with their line number, not
     silently dropped requests *)
  List.iter
    (fun (e : Serve.parse_error) ->
      Fmt.pr "%-16s %-8s %-10s %-8s   code=%s line=%d   %s: %S@." "-" "-" "-" "error"
        (Diag.code_name Diag.Invalid_request)
        e.Serve.line e.Serve.reason e.Serve.text)
    parse_errors;
  let policy =
    { Serve.cache_dir; deadline_ms; retries; backoff_ms; jobs = None }
  in
  (match cache_dir with
  | Some d -> Fmt.pr "serving %d requests (cache: %s)@." (List.length requests) d
  | None -> Fmt.pr "serving %d requests (cache disabled)@." (List.length requests));
  (match deadline_ms with
  | Some ms -> Fmt.pr "deadline  %.0f ms per request, %d retries@." ms retries
  | None -> ());
  if Fault.active () then Fmt.pr "fault injection active (GCD2_FAULTS)@.";
  let _, report = Serve.run_batch ~on_result:print_served policy requests in
  let parse_errors_n = List.length parse_errors in
  Fmt.pr "@.-- serving report --@.";
  Fmt.pr "requests  %d  (ok %d, retried %d, degraded %d, timeouts %d, errors %d)@."
    (report.Serve.requests + parse_errors_n)
    report.Serve.ok report.Serve.retried report.Serve.degraded report.Serve.timeouts
    (report.Serve.errors + parse_errors_n);
  if report.Serve.ok > 0 then begin
    Fmt.pr "cache     %d hits / %d misses  (%.1f%% hit rate)@." report.Serve.hits
      report.Serve.misses
      (100.0 *. float_of_int report.Serve.hits /. float_of_int report.Serve.ok);
    (* cold and warm compiles are different populations (first-compile
       kernel costing vs memo/cache reuse), and failed requests are
       excluded from both by construction: their wall time measures the
       failure path, not the service *)
    let bucket label lat =
      if lat <> [] then
        Fmt.pr
          "%s  %4d reqs  p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms, mean %.1f ms@."
          label (List.length lat) (Stats.p50 lat) (Stats.p95 lat) (Stats.p99 lat)
          (Stats.maxf lat) (Stats.mean lat)
    in
    bucket "cold     " report.Serve.cold_ms;
    bucket "warm     " report.Serve.warm_ms
  end;
  if report.Serve.errors + report.Serve.timeouts + parse_errors_n > 0 then exit 1

let serve_cmd =
  let doc =
    "Serve a batch of compile requests through the content-addressed artifact cache \
     and report hit rate and request-latency percentiles.  Requests are isolated: \
     transient failures are retried with backoff, an unusable cache degrades to \
     uncached compiles, corrupt entries are quarantined and recompiled, and the \
     exit status is nonzero when any request ultimately fails."
  in
  let models_arg =
    let doc = "Models to serve (repeatable; see `gcd2 list`)." in
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL" ~doc)
  in
  let requests_arg =
    let doc =
      "Read requests from $(docv), one `MODEL [FRAMEWORK [SELECTION]]` per line, \
       plus optional positionless `device=NAME`, `tune=SPEC` and `seq=N` fields \
       anywhere on the line (SPEC: a budget, `on`, `BUDGET+verify`, or `off` to \
       override a batch-wide --tune; N: a positive dynamic sequence length for \
       sequence-parametric models, padded to its power-of-two shape bucket so one \
       cached artifact serves every length in the bucket; whole-line `#` comments \
       and blank lines ignored; lines with trailing garbage, inline `#` tokens, \
       duplicated fields, unknown device names, malformed tune specs or \
       non-positive seq values are errors).  Without models and without this \
       option, requests are read from standard input."
    in
    Arg.(value & opt (some file) None & info [ "requests" ] ~docv:"FILE" ~doc)
  in
  let repeat_arg =
    let doc = "Serve the request list $(docv) times (warm requests hit the cache)." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the cache (every request cold-compiles; for comparison)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request wall-clock deadline in milliseconds; an expired request is \
       cancelled at the next pipeline checkpoint and reported as a timeout."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc = "Retries (beyond the first attempt) for retryable failures." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in milliseconds, doubled per retry." in
    Arg.(value & opt float 25.0 & info [ "retry-backoff-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ models_arg $ requests_arg $ framework_arg $ selection_arg
      $ device_arg $ tune_arg $ tune_verify_arg $ repeat_arg $ cache_dir_arg
      $ no_cache_arg $ deadline_arg $ retries_arg $ backoff_arg)

(* ---------------- daemon / client ---------------- *)

module Daemon = Gcd2_daemon.Daemon
module Dclient = Gcd2_daemon.Client
module Protocol = Gcd2_daemon.Protocol
module Logsink = Gcd2_util.Logsink

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "gcd2d.sock"

let socket_arg =
  let doc = "Unix socket path the daemon listens on (default also for `client`)." in
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Listen on (or connect to) TCP $(docv) instead of the Unix socket; \
     PORT 0 lets the daemon pick a free port (printed at startup)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_address ~socket ~tcp =
  match tcp with
  | None -> Daemon.Unix_sock socket
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | None ->
      Fmt.epr "gcd2: --tcp expects HOST:PORT, got %S@." spec;
      exit 1
    | Some i -> (
      let host = String.sub spec 0 i in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port -> Daemon.Tcp ((if host = "" then "127.0.0.1" else host), port)
      | None ->
        Fmt.epr "gcd2: --tcp expects a numeric port, got %S@." spec;
        exit 1))

let daemon_run socket tcp workers queue_depth framework selection device tune tune_verify
    cache_dir cache no_cache deadline_ms retries backoff_ms jobs stats_every quiet
    cache_max_bytes janitor_interval_s =
  check_fault_env ();
  let device = (resolve_device device).Desc.name in
  let tune = resolve_tune ~tune ~tune_verify in
  let cache_dir =
    if no_cache then None
    else
      Some
        (match resolve_cache_dir ~cache_dir ~cache with
        | Some d -> d
        | None -> Cache.default_dir ())
  in
  let cfg =
    {
      Daemon.address = parse_address ~socket ~tcp;
      workers;
      queue_depth;
      policy = { Serve.cache_dir; deadline_ms; retries; backoff_ms; jobs };
      framework;
      selection;
      device;
      tune;
      resolve = None;
      stats_every;
      log_outcomes = not quiet;
      cache_max_bytes;
      janitor_interval_s;
      lease_ttl_s = Gcd2_store.Lease.default_ttl_s;
    }
  in
  let d = Daemon.start cfg in
  Logsink.emit
    (Fmt.str "daemon: listening on %a  (workers=%d queue-depth=%d cache=%s%s)"
       Daemon.pp_address (Daemon.address d) workers queue_depth
       (match cache_dir with Some dir -> dir | None -> "disabled")
       (if Fault.active () then " faults=on" else ""));
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  while not (Atomic.get stop) do
    Unix.sleepf 0.2
  done;
  let st = Daemon.stop d in
  Logsink.emit (Daemon.stats_line d st)

let daemon_cmd =
  let doc =
    "Run the concurrent serve daemon: a multi-domain server that answers serve \
     request lines over a Unix or TCP socket, with a bounded admission queue \
     (overload is answered with a retryable `rejected` response), single-flight \
     deduplication of identical in-flight compiles, and the full per-request \
     policy of `gcd2 serve` (deadline, retries, degradation, verification).  \
     Stop with SIGINT/SIGTERM: the queue drains before the daemon exits."
  in
  let workers_arg =
    let doc = "Worker domains serving connections concurrently." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_depth_arg =
    let doc = "Admission-queue capacity; a full queue rejects new connections." in
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request wall-clock deadline in milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc = "Retries (beyond the first attempt) for retryable failures." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in milliseconds, doubled per retry." in
    Arg.(value & opt float 25.0 & info [ "retry-backoff-ms" ] ~docv:"MS" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the artifact cache (every request compiles)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let stats_every_arg =
    let doc = "Emit a merged `daemon:` stats line every $(docv) responses (0 = never)." in
    Arg.(value & opt int 100 & info [ "stats-every" ] ~docv:"N" ~doc)
  in
  let quiet_arg =
    let doc = "Do not log one outcome line per served request." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let cache_max_bytes_arg =
    let doc =
      "Cache-directory size budget in bytes: the janitor LRU-evicts the \
       least-recently-used entries past it (entries under an active compile \
       lease are never evicted).  Unset = unbounded."
    in
    Arg.(value & opt (some int) None & info [ "cache-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let janitor_interval_arg =
    let doc =
      "Seconds between janitor sweeps of the cache directory (stale .tmp \
       debris, aged .bad quarantine files, dead-leader .lease files, size \
       budget); 0 disables the periodic sweep (the startup sweep still runs)."
    in
    Arg.(value & opt float 60.0 & info [ "janitor-interval-s" ] ~docv:"S" ~doc)
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const daemon_run $ socket_arg $ tcp_arg $ workers_arg $ queue_depth_arg
      $ framework_arg $ selection_arg $ device_arg $ tune_arg $ tune_verify_arg
      $ cache_dir_arg $ cache_arg $ no_cache_arg $ deadline_arg $ retries_arg
      $ backoff_arg $ jobs_arg $ stats_every_arg $ quiet_arg $ cache_max_bytes_arg
      $ janitor_interval_arg)

let client_run socket tcp models =
  let address = parse_address ~socket ~tcp in
  let lines = if models = [] then read_request_lines In_channel.stdin else models in
  match Dclient.batch address lines with
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "gcd2: cannot reach daemon at %a: %s@." Daemon.pp_address address
      (Unix.error_message e);
    exit 1
  | responses ->
    let failed = ref 0 in
    List.iter
      (fun resp ->
        match resp with
        | Ok (r : Protocol.response) ->
          Logsink.emit (Protocol.render r);
          (match r.Protocol.outcome with
          | "ok" | "retried" | "degraded" | "health" | "stats" -> ()
          | _ -> incr failed)
        | Error e ->
          Logsink.emit_err ("gcd2: bad response: " ^ e);
          incr failed)
      responses;
    if !failed > 0 then exit 1

let client_cmd =
  let doc =
    "Send request lines to a running `gcd2 daemon` and print one framed response \
     line per request (models as arguments, or request lines on standard input).  \
     Exits nonzero if any request fails or is rejected."
  in
  let models_arg =
    let doc = "Models to request (default: read request lines from stdin)." in
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL" ~doc)
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const client_run $ socket_arg $ tcp_arg $ models_arg)

(* ---------------- compare ---------------- *)

(* Above this budget a single simulated inference takes minutes even on
   the fast engine, so `compare` only measures wall time by default on
   models below it; `--infer` forces the measurement. *)
let compare_infer_budget_gmacs = 2.0

(* Device comparison: modeled latency of the gcd2 configuration on every
   requested device, over one model or the whole zoo. *)
let compare_devices_run names model =
  let devices =
    String.split_on_char ',' names
    |> List.map String.trim
    |> List.filter (fun n -> n <> "")
    |> List.map (fun n -> resolve_device (Some n))
  in
  if devices = [] then begin
    Fmt.epr "gcd2: --devices needs at least one device name@.";
    exit 1
  end;
  let entries =
    match model with Some m -> [ find_model m ] | None -> Zoo.all
  in
  Fmt.pr "%-16s" "model";
  List.iter (fun (d : Desc.t) -> Fmt.pr " %14s" d.Desc.name) devices;
  if List.length devices > 1 then Fmt.pr " %9s" "speedup";
  Fmt.pr "@.";
  let baseline = List.hd devices in
  let wins = Array.make (List.length devices) 0 in
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.Zoo.build () in
      let mss =
        List.map
          (fun d ->
            Compiler.latency_ms (Compiler.compile ~config:(Compiler.with_device d F.gcd2) g))
          devices
      in
      let base_ms = List.hd mss in
      Fmt.pr "%-16s" e.Zoo.name;
      List.iteri
        (fun i ms ->
          if i > 0 && ms < base_ms then wins.(i) <- wins.(i) + 1;
          Fmt.pr " %11.2f ms" ms)
        mss;
      if List.length mss > 1 then
        Fmt.pr " %8.2fx" (base_ms /. List.nth mss (List.length mss - 1));
      Fmt.pr "@.")
    entries;
  let n = List.length entries in
  List.iteri
    (fun i (d : Desc.t) ->
      if i > 0 then
        Fmt.pr "%s: modeled latency below %s on %d/%d models@." d.Desc.name
          baseline.Desc.name wins.(i) n)
    devices

let compare_run model devices force_infer =
  match devices with
  | Some names -> compare_devices_run names model
  | None ->
  let model =
    match model with
    | Some m -> m
    | None ->
      Fmt.epr "gcd2: MODEL is required unless --devices is given@.";
      exit 1
  in
  let entry = find_model model in
  let g = Zoo.with_random_weights (entry.Zoo.build ()) in
  let gmacs = float_of_int (Gcd2_graph.Flops.total_macs g) /. 1e9 in
  let measure = force_infer || gmacs <= compare_infer_budget_gmacs in
  (* One shared random input set: the modeled latency column is static, but
     the inference columns come from actually running each compiled model
     on the simulated DSP. *)
  let rng = Gcd2_util.Rng.create 42 in
  let inputs =
    let acc = ref [] in
    Graph.iter
      (fun node ->
        match node.Graph.op with
        | Op.Input { shape } -> acc := (node.Graph.id, T.random rng shape) :: !acc
        | _ -> ())
      g;
    List.rev !acc
  in
  Fmt.pr "%-8s %10s %8s %10s %5s %5s %12s@." "stack" "ms" "fps" "infer-ms" "vm" "host"
    "vm-cycles";
  List.iter
    (fun config ->
      let c = Compiler.compile ~config g in
      let ms = Compiler.latency_ms c in
      if measure then begin
        let t0 = Trace.now () in
        let _, stats = Runtime.run_with_stats c ~inputs in
        let infer_ms = 1000.0 *. (Trace.now () -. t0) in
        Fmt.pr "%-8s %10.2f %8.1f %10.1f %5d %5d %12d@." config.Compiler.name ms
          (1000.0 /. ms) infer_ms stats.Runtime.vm_nodes stats.Runtime.host_nodes
          stats.Runtime.vm_cycles
      end
      else
        Fmt.pr "%-8s %10.2f %8.1f %10s %5s %5s %12s@." config.Compiler.name ms
          (1000.0 /. ms) "-" "-" "-" "-")
    [ F.tflite; F.snpe; F.gcd2_b; F.gcd2 ];
  if not measure then
    Fmt.pr "(%.1f GMACs > %.1f: simulated inference skipped; pass --infer to run it)@."
      gmacs compare_infer_budget_gmacs

let infer_arg =
  let doc =
    "Measure simulated inference wall time even on models above the default GMAC budget."
  in
  Arg.(value & flag & info [ "infer" ] ~doc)

let compare_cmd =
  let doc =
    "Compare TFLite / SNPE / GCD_b / GCD2 on one model, or — with --devices — \
     compare machine descriptions on one model or the whole zoo."
  in
  let model_opt_arg =
    let doc = "Model name from the zoo (optional with --devices: defaults to every model)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)
  in
  let devices_arg =
    let doc =
      "Compare machine descriptions instead of frameworks: comma-separated device \
       names (e.g. hexagon698,hexagon-g2); the first is the speedup baseline."
    in
    Arg.(value & opt (some string) None & info [ "devices" ] ~docv:"A,B" ~doc)
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const compare_run $ model_opt_arg $ devices_arg $ infer_arg)

(* ---------------- kernel ---------------- *)

let dim name = Arg.(value & opt int 128 & info [ name ] ~docv:"N" ~doc:("dimension " ^ name))

let kernel_run m k n =
  Fmt.pr "C[%d x %d] = A[%d x %d] * W[%d x %d]@.@." m n m k k n;
  Fmt.pr "%-6s %-10s %10s %10s %8s@." "instr" "layout" "cycles" "packets" "pad%";
  List.iter
    (fun simd ->
      let u = Unroll.adaptive simd ~m ~k ~n in
      let spec =
        {
          Matmul.device = Desc.hexagon698;
          simd;
          m;
          k;
          n;
          mult = 1 lsl 30;
          shift = 30;
          act_table = None;
          strategy = Packer.sda;
          un = u.Unroll.un;
          ug = u.Unroll.ug;
          abuf = u.Unroll.abuf;
          wbuf = u.Unroll.wbuf;
          addressing = Matmul.Bump;
        }
      in
      let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 0; c_base = 0 } in
      let pad =
        100.0
        *. (float_of_int (Simd.padded_data_bytes ~desc:spec.Matmul.device simd ~m ~k ~n)
            /. float_of_int ((m * k) + (k * n) + (m * n))
           -. 1.0)
      in
      Fmt.pr "%-6s %-10s %10d %10d %7.1f%%@." (Simd.name simd)
        (Gcd2_tensor.Layout.name (Simd.layout simd))
        (Gcd2_isa.Program.static_cycles ~desc:spec.Matmul.device prog)
        (Gcd2_isa.Program.packet_count prog)
        pad)
    Simd.all

let kernel_cmd =
  let doc = "Show the three SIMD implementation choices for one matmul shape." in
  Cmd.v (Cmd.info "kernel" ~doc) Term.(const kernel_run $ dim "m" $ dim "k" $ dim "n")

(* ---------------- main ---------------- *)

let () =
  let doc = "GCD2: a globally optimizing DNN compiler for a simulated mobile DSP" in
  let info = Cmd.info "gcd2" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; serve_cmd; daemon_cmd; client_cmd; compare_cmd;
            kernel_cmd ]))
