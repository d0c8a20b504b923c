(* Kill-chaos harness ("crash", and part of the smoke): real daemon
   processes, real SIGKILL, one shared artifact store.

   What the serve stack promises under process death (PR 10) and this
   harness actually enforces:

   - a daemon SIGKILLed mid-compile/mid-write never corrupts the store:
     a restarted daemon serves the same request with bit-identical
     results (the response's model-latency field is compared exactly
     against a fault-free baseline);
   - no permanent wedge: the in-flight client of a killed daemon gets a
     fast transport error, never a hang, and a second daemon sharing
     the store takes over a SIGKILLed leader's key within the lease
     staleness bound;
   - the janitor converges the directory afterwards: zero .tmp debris,
     no stale leases, entry bytes within the size budget.

   The daemons are the actual CLI binary (`gcd2 daemon`) spawned with
   Unix.create_process — forking a multi-domain OCaml process is not
   safe, and the point is to kill what production runs.  The full run
   records recovery time (restart to first successful serve of the
   killed compile) per round in BENCH_crash.json. *)

module Daemon = Gcd2_daemon.Daemon
module Client = Gcd2_daemon.Client
module Protocol = Gcd2_daemon.Protocol
module Serve = Gcd2_serve.Serve
module Compiler = Gcd2.Compiler
module Cache = Gcd2_store.Cache
module Lease = Gcd2_store.Lease
module Janitor = Gcd2_store.Janitor
module Counters = Gcd2_util.Stats.Counters
module Trace = Gcd2_util.Trace
module Rng = Gcd2_util.Rng

let models = [| "MobileNet-V3"; "WDSR-b" |]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("crash: FAIL " ^ s); exit 1) fmt
let assert_ msg ok = if not ok then fail "%s" msg

(* ------------------------------------------------------------------ *)
(* Spawning the real CLI                                               *)

let cli_exe () =
  let candidates =
    (match Sys.getenv_opt "GCD2_CLI" with Some p -> [ p ] | None -> [])
    @ [
        Filename.concat (Filename.dirname Sys.executable_name) "../bin/gcd2_cli.exe";
        "./_build/default/bin/gcd2_cli.exe";
      ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> fail "gcd2 CLI binary not found (looked at: %s)" (String.concat ", " candidates)

type daemon_proc = { pid : int; addr : Daemon.address }

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn_daemon ?(extra = []) ~sock ~cache_dir () =
  let cli = cli_exe () in
  let args =
    [
      cli; "daemon"; "--socket"; sock; "--cache-dir"; cache_dir; "--workers"; "2";
      "--jobs"; "1"; "--deadline-ms"; "20000"; "--stats-every"; "0"; "--quiet";
    ]
    @ extra
  in
  let null = Lazy.force devnull in
  let pid = Unix.create_process cli (Array.of_list args) null null null in
  { pid; addr = Daemon.Unix_sock sock }

let sigkill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] d.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

let sigterm d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] d.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

(* Poll the health command until the daemon answers (it sweeps the
   store before listening, so readiness includes the startup janitor
   pass). *)
let wait_ready ?(timeout_s = 15.0) d =
  let t0 = Trace.now () in
  let rec go () =
    if Trace.now () -. t0 > timeout_s then
      fail "daemon pid %d not ready after %.0fs" d.pid timeout_s
    else
      match Client.batch d.addr [ "health" ] with
      | [ Ok r ] when r.Protocol.outcome = "health" -> ()
      | _ | (exception _) ->
        Thread.delay 0.025;
        go ()
  in
  go ()

(* One request against a live daemon: outcome and the exact latency
   field (the bit-identity witness). *)
let request_one d model =
  match Client.batch d.addr [ model ] with
  | [ Ok r ] -> Ok r
  | [ Error e ] -> Error e
  | _ -> Error "connection died before a response"
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Store-side probes (bench links the store library, so the harness can
   compute the digest a daemon will use and inspect its entry/lease)   *)

let compile_config () =
  match Serve.config_of ~device:"hexagon698" ~framework:"gcd2" ~selection:"13" () with
  | Ok c -> c
  | Error d -> fail "config_of failed: %s" d.Gcd2.Diag.message

let digest_of model =
  Compiler.fingerprint (compile_config ()) (Gcd2_models.Zoo.build model)

let dir_files dir =
  match Sys.readdir dir with x -> Array.to_list x | exception Sys_error _ -> []

let tmp_files dir =
  List.filter
    (fun f ->
      Filename.check_suffix f ".tmp"
      || Filename.check_suffix f ".lease-tmp"
      || Filename.check_suffix f ".lease-hb"
      || Filename.check_suffix f ".lease-broken")
    (dir_files dir)

let entry_bytes dir =
  List.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".gcd2art" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (dir_files dir)

let remove_entry dir digest =
  let p = Cache.entry_path dir digest in
  (try Sys.remove p with Sys_error _ -> ());
  try Sys.remove (Cache.quarantine_path p) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)

let run_rounds ~rounds =
  (* watchdog: a wedged request or daemon must fail the experiment, not
     hang CI; it stands down once the experiment is over, so experiments
     run after this one in the same process are not cut short *)
  let finished = Atomic.make false in
  let _watchdog =
    Thread.create
      (fun () ->
        Thread.delay 300.0;
        if not (Atomic.get finished) then begin
          prerr_endline "crash: FAIL watchdog: experiment exceeded its time bound";
          exit 2
        end)
      ()
  in
  let tag = Printf.sprintf "gcd2-crash-%d" (Unix.getpid ()) in
  let work = Filename.concat (Filename.get_temp_dir_name ()) tag in
  Report.rm_rf work;
  Unix.mkdir work 0o755;
  let cache_dir = Filename.concat work "cache" in
  Unix.mkdir cache_dir 0o755;
  let sock n = Filename.concat work (Printf.sprintf "d%s.sock" n) in
  Report.header
    (Printf.sprintf "crash: SIGKILL chaos over real daemon processes (%d rounds)" rounds);

  (* -------- phase A: fault-free baseline latencies -------- *)
  let d0 = spawn_daemon ~sock:(sock "0") ~cache_dir () in
  wait_ready d0;
  let baseline = Hashtbl.create 4 in
  Array.iter
    (fun m ->
      match request_one d0 m with
      | Ok r when r.Protocol.outcome = "ok" ->
        Hashtbl.replace baseline m r.Protocol.lat
      | Ok r -> fail "baseline %s: outcome=%s" m r.Protocol.outcome
      | Error e -> fail "baseline %s: %s" m e)
    models;
  sigterm d0;
  Printf.printf "   baseline: %d models compiled fault-free\n%!" (Array.length models);

  (* -------- phase B: SIGKILL mid-compile, restart, recover -------- *)
  let rng = Rng.create 20260808 in
  let recovered = ref [] in
  for round = 1 to rounds do
    let model = models.(round mod Array.length models) in
    let digest = digest_of model in
    remove_entry cache_dir digest;
    let d = spawn_daemon ~sock:(sock (string_of_int round)) ~cache_dir () in
    wait_ready d;
    (* fire the cold request from a thread, then kill the daemon under
       it mid-compile *)
    let req_result = ref (Error "request thread never ran") in
    let req_done = ref false in
    let th =
      Thread.create
        (fun () ->
          req_result := request_one d model;
          req_done := true)
        ()
    in
    Unix.sleepf (0.01 +. (0.001 *. float_of_int (Rng.int rng 120)));
    sigkill d;
    (* no wedge: the killed daemon's client must resolve promptly *)
    let t_kill = Trace.now () in
    Thread.join th;
    let unwedge_s = Trace.now () -. t_kill in
    assert_
      (Printf.sprintf "round %d: client wedged %.1fs after SIGKILL" round unwedge_s)
      (unwedge_s < 10.0);
    (match !req_result with
    | Ok r when r.Protocol.outcome = "ok" ->
      (* the compile won the race against the kill: fine, the store must
         then hold a decodable entry (checked below by the restart) *)
      ()
    | Ok _ | Error _ -> ());
    (* a SIGKILLed leader must never leave a *live* lease behind *)
    (match Lease.state ~dir:cache_dir digest with
    | Lease.Held pid ->
      assert_
        (Printf.sprintf "round %d: live lease (pid %d) survives its dead owner" round pid)
        false
    | Lease.Free | Lease.Stale _ -> ());
    (* restart over whatever the kill left (possibly a torn .tmp, a
       stale lease, a half-primed store) and re-serve the same request *)
    let t_restart = Trace.now () in
    let d2 = spawn_daemon ~sock:(sock (string_of_int round ^ "r")) ~cache_dir () in
    wait_ready d2;
    let ms =
      match request_one d2 model with
      | Ok r when r.Protocol.outcome = "ok" ->
        let ms = 1000.0 *. (Trace.now () -. t_restart) in
        if r.Protocol.lat <> Hashtbl.find baseline model then
          fail "round %d: recovered %s served different bits (lat %s vs baseline %s)" round
            model
            (match r.Protocol.lat with Some l -> string_of_float l | None -> "-")
            (match Hashtbl.find baseline model with
            | Some l -> string_of_float l
            | None -> "-");
        ms
      | Ok r ->
        fail "round %d: recovery outcome=%s code=%s" round r.Protocol.outcome
          (Option.value r.Protocol.code ~default:"-")
      | Error e -> fail "round %d: recovery failed: %s" round e
    in
    recovered := (round, model, ms) :: !recovered;
    (* leave this daemon SIGKILLed too: its debris feeds the final
       janitor-convergence check *)
    sigkill d2;
    Printf.printf "   round %d: killed mid-%s, recovered in %.0f ms, bits identical\n%!"
      round model ms
  done;

  (* -------- phase C: lease takeover across two live daemons -------- *)
  let model = models.(0) in
  let digest = digest_of model in
  remove_entry cache_dir digest;
  let da = spawn_daemon ~sock:(sock "a") ~cache_dir () in
  let db = spawn_daemon ~sock:(sock "b") ~cache_dir () in
  wait_ready da;
  wait_ready db;
  let ra = ref (Error "never ran") and rb = ref (Error "never ran") in
  let ta = Thread.create (fun () -> ra := request_one da model) () in
  Unix.sleepf 0.04;
  let t_b0 = Trace.now () in
  let tb = Thread.create (fun () -> rb := request_one db model) () in
  Unix.sleepf 0.04;
  (* kill A while it (most likely) holds the digest's lease; B must
     detect the dead pid, break the lease, and still answer *)
  sigkill da;
  Thread.join ta;
  Thread.join tb;
  let takeover_ms = 1000.0 *. (Trace.now () -. t_b0) in
  (match !rb with
  | Ok r when r.Protocol.outcome = "ok" ->
    assert_ "takeover: different bits" (r.Protocol.lat = Hashtbl.find baseline model)
  | Ok r -> fail "takeover: outcome=%s" r.Protocol.outcome
  | Error e -> fail "takeover: %s" e);
  sigterm db;
  Printf.printf "   takeover: peer daemon answered %.0f ms after its leader was killed\n%!"
    takeover_ms;

  (* -------- phase D: janitor converges the wreckage -------- *)
  (* whatever the kills left, plus seeded debris the sweeps must clear *)
  let plant name contents =
    let p = Filename.concat cache_dir name in
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc contents)
  in
  plant "gcd2art-torn-write.tmp" "torn";
  plant (digest_of models.(1) ^ ".gcd2art.bad") "poisoned bytes";
  plant "deadbeef.lease" "pid=999999999 stamp=0.0\n";
  let budget = entry_bytes cache_dir - 1 in
  let jcfg =
    {
      Janitor.max_bytes = Some budget;
      tmp_max_age_s = 0.0;
      bad_max_age_s = 0.0;
      lease_ttl_s = 1.0;
    }
  in
  let report = Janitor.sweep ~dir:cache_dir jcfg in
  Printf.printf "   %s\n%!" (Janitor.report_line report);
  let tmp_after = List.length (tmp_files cache_dir) in
  let bytes_after = entry_bytes cache_dir in
  assert_ "janitor left .tmp debris" (tmp_after = 0);
  assert_
    (Printf.sprintf "janitor left %d bytes over the %d budget" bytes_after budget)
    (bytes_after <= budget);
  assert_ "janitor evicted nothing despite an over-budget store"
    (Counters.get report "evicted" >= 1);
  assert_ "janitor left a stale lease"
    (List.for_all
       (fun f -> not (Filename.check_suffix f ".lease"))
       (dir_files cache_dir));
  assert_ "janitor swept no quarantine files" (Counters.get report "bad_removed" >= 1);
  assert_ "janitor sweep reported errors" (Counters.get report "errors" = 0);

  (* -------- report -------- *)
  let sorted = List.sort compare (List.map (fun (_, _, ms) -> ms) !recovered) in
  let p50 = match sorted with [] -> 0.0 | l -> List.nth l (List.length l / 2) in
  let max_ms = List.fold_left Float.max 0.0 sorted in
  Report.note "%d SIGKILL rounds, recovery p50=%.0f ms max=%.0f ms, takeover=%.0f ms"
    rounds p50 max_ms takeover_ms;
  Report.rm_rf cache_dir;
  Report.rm_rf work;
  Atomic.set finished true;
  [
    ("recovery_ms_p50", Report.Float p50);
    ("recovery_ms_max", Float max_ms);
    ("takeover_ms", Float takeover_ms);
    ("tmp_after", Int tmp_after);
    ("bytes_after", Int bytes_after);
    ("budget", Int budget);
    ( "rounds",
      Report.rows
        (fun (round, model, ms) ->
          [ ("round", Int round); ("model", Str model); ("recovery_ms", Float ms) ])
        (List.rev !recovered) );
  ]

let run () = Report.write ~experiment:"crash" "BENCH_crash.json" (run_rounds ~rounds:6)
let smoke () = ignore (run_rounds ~rounds:3)
