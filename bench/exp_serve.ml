(* Load generator for the serve daemon ("serve-load"): zipf-distributed
   zoo-model traffic against a live daemon, swept over worker counts.

   Clients are sessions: open a connection, send a handful of requests
   with a short think time between them, close, repeat until the clock
   runs out.  The think time is what makes worker count matter on a
   small machine — while one session thinks, its worker is parked on
   client I/O, and only another worker can serve another session; with
   think >> per-request CPU the warm throughput scales ~linearly in
   workers until the CPU saturates.  Latencies are measured client-side
   (send to response, excluding think), recorded into per-client
   mergeable histograms (Gcd2_util.Stats.Hist), split cold/warm by the
   response's cold flag, and merged for the report.

   Writes BENCH_serve.json with one row per worker count, including the
   throughput ratio against the 1-worker row.  The smoke runs two
   workers under a fixed fault spec, then workers 1 and 4 fault-free,
   on a shorter clock.  Any failed request fails the experiment:
   faulted workers must absorb every injection without dropping one. *)

module Daemon = Gcd2_daemon.Daemon
module Client = Gcd2_daemon.Client
module Protocol = Gcd2_daemon.Protocol
module Serve = Gcd2_serve.Serve
module Hist = Gcd2_util.Stats.Hist
module Counters = Gcd2_util.Stats.Counters
module Rng = Gcd2_util.Rng
module Trace = Gcd2_util.Trace
module Fault = Gcd2_util.Fault

(* the zipf head of the zoo: small models, so the warm phase is
   request-rate-bound rather than one giant compile *)
let models = [| "MobileNet-V3"; "WDSR-b"; "TinyBERT"; "EfficientNet-b0" |]

let zipf_cdf n s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample cdf rng =
  let u = Rng.float rng in
  let n = Array.length cdf in
  let rec find i = if i >= n - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

let clients = 8
let think_ms = 20.0
let session_len = 10

let served (r : Protocol.response) =
  List.mem r.Protocol.outcome [ "ok"; "retried"; "degraded" ]

let log_failure m = function
  | Ok (r : Protocol.response) ->
    Gcd2_util.Logsink.emit_err
      (Printf.sprintf "serve-load: %s -> outcome=%s code=%s msg=%s" m r.Protocol.outcome
         (Option.value r.Protocol.code ~default:"-")
         (Option.value r.Protocol.msg ~default:"-"))
  | Error e ->
    Gcd2_util.Logsink.emit_err (Printf.sprintf "serve-load: %s -> transport error: %s" m e)

type acc = {
  warm : Hist.t;
  cold : Hist.t;
  mutable ok : int;
  mutable failed : int;
  mutable rejected : int;
  mutable coalesced : int;
}

let acc_create () =
  {
    warm = Hist.create ();
    cold = Hist.create ();
    ok = 0;
    failed = 0;
    rejected = 0;
    coalesced = 0;
  }

(* One client thread: sessions of [session_len] zipf-sampled requests
   with [think_ms] of think time after each response, until [deadline].
   A rejected connection (backpressure) is retried after a short backoff
   — the retryable contract of the overloaded diagnostic. *)
let client_thread addr acc seed ~deadline () =
  let rng = Rng.create seed in
  let cdf = zipf_cdf (Array.length models) 1.1 in
  let rec sessions () =
    if Trace.now () < deadline then begin
      (match Client.open_conn addr with
      | exception _ -> Thread.delay 0.025
      | conn ->
        let rejected = ref false in
        (try
           let rec go n =
             if n > 0 && Trace.now () < deadline && not !rejected then begin
               let m = models.(sample cdf rng) in
               let t0 = Trace.now () in
               (match Client.request conn m with
               | Ok r when served r ->
                 acc.ok <- acc.ok + 1;
                 if r.Protocol.flight = Protocol.Wait then
                   acc.coalesced <- acc.coalesced + 1;
                 Hist.add
                   (if r.Protocol.cold then acc.cold else acc.warm)
                   ((Trace.now () -. t0) *. 1000.)
               | Ok r when r.Protocol.outcome = "rejected" ->
                 acc.rejected <- acc.rejected + 1;
                 rejected := true
               | res ->
                 acc.failed <- acc.failed + 1;
                 log_failure m res);
               if not !rejected then Thread.delay (think_ms /. 1000.);
               go (n - 1)
             end
           in
           go session_len
         with _ -> ());
        Client.close conn;
        if !rejected then Thread.delay 0.025);
      sessions ()
    end
  in
  sessions ()

type row = {
  workers : int;
  elapsed_s : float;
  ok : int;
  failed : int;
  client_rejected : int;
  rps : float;
  warm_p50 : float;
  warm_p95 : float;
  warm_p99 : float;
  cold_p50 : float;
  cold_p95 : float;
  cold_p99 : float;
  st : Daemon.stats;
}

let run_one ~workers ~duration_ms =
  let tag = Printf.sprintf "gcd2-serve-load-%d-%d" (Unix.getpid ()) workers in
  let cache_dir = Filename.concat (Filename.get_temp_dir_name ()) tag in
  if not (Sys.file_exists cache_dir) then Unix.mkdir cache_dir 0o755;
  let sock = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  let cfg =
    {
      (Daemon.default_config (Daemon.Unix_sock sock)) with
      workers;
      queue_depth = (2 * clients) + 4;
      policy =
        { Serve.default_policy with cache_dir = Some cache_dir; jobs = Some 1 };
    }
  in
  let d = Daemon.start cfg in
  let addr = Daemon.address d in
  (* prime: one cold pass over the mix, so the timed phase is warm *)
  let prime = Client.batch addr (Array.to_list models) in
  let cold_prime = Hist.create () in
  let prime_failed = ref (Array.length models - List.length prime) in
  List.iteri
    (fun i r ->
      match r with
      | Ok r when served r -> Hist.add cold_prime r.Protocol.ms
      | r ->
        incr prime_failed;
        log_failure models.(i) r)
    prime;
  let accs = Array.init clients (fun _ -> acc_create ()) in
  let t0 = Trace.now () in
  let deadline = t0 +. (duration_ms /. 1000.) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (client_thread addr accs.(i) (0x5EED + (977 * i)) ~deadline)
          ())
  in
  List.iter Thread.join threads;
  let elapsed_s = Trace.now () -. t0 in
  let st = Daemon.stop d in
  Report.rm_rf cache_dir;
  let warm = Hist.create () and cold = Hist.copy cold_prime in
  let ok = ref 0 and failed = ref !prime_failed and rejected = ref 0 in
  Array.iter
    (fun a ->
      Hist.merge_into ~into:warm a.warm;
      Hist.merge_into ~into:cold a.cold;
      ok := !ok + a.ok;
      failed := !failed + a.failed;
      rejected := !rejected + a.rejected)
    accs;
  {
    workers;
    elapsed_s;
    ok = !ok;
    failed = !failed;
    client_rejected = !rejected;
    rps = (if elapsed_s > 0. then float_of_int !ok /. elapsed_s else 0.);
    warm_p50 = Hist.p50 warm;
    warm_p95 = Hist.p95 warm;
    warm_p99 = Hist.p99 warm;
    cold_p50 = Hist.p50 cold;
    cold_p95 = Hist.p95 cold;
    cold_p99 = Hist.p99 cold;
    st;
  }

let run_on ~workers_list ~duration_ms =
  (* a roomy minor heap (8 MB/domain instead of the 256 KB default)
     keeps artifact-decode allocation from turning into a stop-the-world
     minor-GC storm across the worker domains — on a small machine the
     barriers, not the compiles, would otherwise cap throughput *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  Report.header
    (Printf.sprintf
       "serve-load: zipf traffic, %d clients, %.0f ms think, %.0f ms timed \
        phase per worker count"
       clients think_ms duration_ms);
  Printf.printf "   %-8s %9s %8s %6s %6s %6s %9s %9s %9s\n" "workers" "req/s"
    "scaling" "ok" "fail" "rej" "warm_p50" "warm_p95" "warm_p99";
  let rows = List.map (fun workers -> run_one ~workers ~duration_ms) workers_list in
  let base = (List.hd rows).rps in
  List.iter
    (fun r ->
      Printf.printf "   %-8d %9.1f %7.2fx %6d %6d %6d %7.2fms %7.2fms %7.2fms\n"
        r.workers r.rps
        (if base > 0. then r.rps /. base else 0.)
        r.ok r.failed
        (Counters.get r.st.Daemon.counts "rejected")
        r.warm_p50 r.warm_p95 r.warm_p99)
    rows;
  (match (rows, List.rev rows) with
  | one :: _, top :: _ when top.workers > one.workers ->
    Report.note "%d workers serve %.2fx the requests/s of %d worker%s"
      top.workers
      (if one.rps > 0. then top.rps /. one.rps else 0.)
      one.workers
      (if one.workers = 1 then "" else "s")
  | _ -> ());
  let failed = List.fold_left (fun n r -> n + r.failed) 0 rows in
  if failed > 0 then failwith (Printf.sprintf "serve-load: %d requests failed" failed);
  rows

let run () =
  let duration_ms = 3000.0 in
  let rows = run_on ~workers_list:[ 1; 2; 4 ] ~duration_ms in
  let base = (List.hd rows).rps in
  Report.write ~experiment:"serve-load" "BENCH_serve.json"
    [
      ("clients", Int clients);
      ("think_ms", Float think_ms);
      ("phase_ms", Float duration_ms);
      ( "rows",
        Report.rows
          (fun r ->
            let count n = Report.Int (Counters.get r.st.Daemon.counts n) in
            [
              ("workers", Int r.workers);
              ("rps", Float r.rps);
              ("scaling", Float (if base > 0. then r.rps /. base else 0.));
              ("ok", Int r.ok);
              ("failed", Int r.failed);
              ("rejected", count "rejected");
              ("coalesced", count "coalesced");
              ("compiles", count "compiles");
              ("hits", count "hits");
              ("warm_p50_ms", Float r.warm_p50);
              ("warm_p95_ms", Float r.warm_p95);
              ("warm_p99_ms", Float r.warm_p99);
              ("cold_p50_ms", Float r.cold_p50);
              ("cold_p95_ms", Float r.cold_p95);
              ("cold_p99_ms", Float r.cold_p99);
            ])
          rows );
    ]

(* Smoke: two workers under a fault spec whose every injection the serve
   path can absorb (retry, degrade, quarantine and recompile), then
   workers 1 and 4 fault-free on a clock still long enough for the
   4-vs-1 scaling ratio to be meaningful. *)
let smoke () =
  let spec = "seed=20260808,cache-read=0.2,artifact-decode=0.2,memo-lookup=0.2" in
  Printf.printf "\n   faults: %s\n" spec;
  Fault.with_spec (Fault.parse_exn spec) (fun () ->
      ignore (run_on ~workers_list:[ 2 ] ~duration_ms:800.0));
  ignore (run_on ~workers_list:[ 1; 4 ] ~duration_ms:1200.0)
