(* Tests for the concurrent serve daemon: the bounded admission queue,
   single-flight compile deduplication, the wire protocol, backpressure
   rejection, graceful shutdown, and torn-line-free logging.

   Concurrency tests use domains as clients; on a single CPU the
   interesting interleavings still happen because clients block on
   socket I/O while workers block on the flight condvar.  Each timing
   window is anchored on a real cold compile (hundreds of ms) against
   sleeps of tens of ms, so the orderings asserted here are robust. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Logsink = Gcd2_util.Logsink
module Counters = Gcd2_util.Stats.Counters
module Serve = Gcd2_serve.Serve
module Daemon = Gcd2_daemon.Daemon
module Client = Gcd2_daemon.Client
module Protocol = Gcd2_daemon.Protocol
module Flight = Gcd2_daemon.Flight
module Bqueue = Gcd2_daemon.Bqueue
open Gcd2_graph
module B = Graph.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir () =
  let f = Filename.temp_file "gcd2-daemon-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let weight_q = Q.make (1.0 /. 64.0)

(* Two structurally different tiny models, so their latency estimates
   differ and a cross-wired response is detectable by its [lat]. *)
let tiny_cnn ~channels seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 4; 4; channels |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; channels; channels |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:channels in
  let _ = B.add b Op.Relu [ c1 ] in
  B.finish b

let resolve_tiny ?seq:_ = function
  | "tinyA" -> tiny_cnn ~channels:4 1
  | "tinyB" -> tiny_cnn ~channels:8 2
  | "tinyC" -> tiny_cnn ~channels:12 3
  | m -> invalid_arg ("unknown test model " ^ m)

(* A daemon config over a unix socket in [dir], with a cache in [dir]
   and no retry backoff (tests exercise orderings, not wall time). *)
let config ?(workers = 2) ?(queue_depth = 8) ?resolve ?(log_outcomes = false)
    ?(stats_every = 0) dir =
  let sock = Filename.concat dir "d.sock" in
  {
    (Daemon.default_config (Daemon.Unix_sock sock)) with
    Daemon.workers;
    queue_depth;
    resolve;
    log_outcomes;
    stats_every;
    policy =
      {
        Serve.default_policy with
        Serve.cache_dir = Some (Filename.concat dir "cache");
        jobs = Some 1;
        backoff_ms = 0.0;
      };
  }

let with_daemon cfg f =
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Daemon.stop d)) (fun () -> f d)

let ok_response = function
  | Ok (r : Protocol.response) -> r
  | Error e -> Alcotest.failf "transport error: %s" e

(* ------------------------------------------------------------------ *)
(* Bounded queue *)

let test_bqueue () =
  let q = Bqueue.create ~capacity:2 in
  check_bool "push 1" true (Bqueue.try_push q 1);
  check_bool "push 2" true (Bqueue.try_push q 2);
  check_bool "push beyond capacity fails" false (Bqueue.try_push q 3);
  check_int "length" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bqueue.pop q);
  check_bool "push after pop" true (Bqueue.try_push q 3);
  Bqueue.close q;
  check_bool "closed" true (Bqueue.closed q);
  check_bool "push after close fails" false (Bqueue.try_push q 4);
  (* a closed queue still drains before reporting exhaustion *)
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drain 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "drained" None (Bqueue.pop q);
  (* pop blocked on an empty queue wakes up on close *)
  let q2 = Bqueue.create ~capacity:1 in
  let waiter = Domain.spawn (fun () -> Bqueue.pop q2) in
  Unix.sleepf 0.02;
  Bqueue.close q2;
  Alcotest.(check (option int)) "blocked pop wakes on close" None
    (Domain.join waiter)

(* ------------------------------------------------------------------ *)
(* Single-flight primitive *)

let test_flight_coalesces () =
  let fl = Flight.create () in
  let runs = Atomic.make 0 in
  let work () =
    Atomic.incr runs;
    Unix.sleepf 0.15;
    42
  in
  let callers =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Flight.run fl "k" work))
  in
  let results = Array.map Domain.join callers in
  check_int "work ran exactly once" 1 (Atomic.get runs);
  Array.iter (fun (v, _) -> check_int "shared result" 42 v) results;
  let leaders =
    Array.to_list results
    |> List.filter (fun (_, role) -> role = Flight.Leader)
    |> List.length
  in
  check_int "exactly one leader" 1 leaders;
  check_int "table empties" 0 (Flight.in_flight fl);
  (* a call arriving after the flight finished starts a fresh one *)
  let v, role = Flight.run fl "k" work in
  check_int "fresh flight reruns" 2 (Atomic.get runs);
  check_int "fresh result" 42 v;
  check_bool "fresh caller leads" true (role = Flight.Leader)

exception Boom

let test_flight_shares_failure () =
  let fl = Flight.create () in
  let runs = Atomic.make 0 in
  let work () =
    Atomic.incr runs;
    Unix.sleepf 0.1;
    raise Boom
  in
  let callers =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            match Flight.run fl "k" work with
            | _ -> `No_raise
            | exception Boom -> `Boom))
  in
  let outcomes = Array.map Domain.join callers in
  check_int "failing work ran once" 1 (Atomic.get runs);
  Array.iter
    (fun o -> check_bool "every caller sees the leader's exception" true (o = `Boom))
    outcomes;
  check_int "table empties after failure" 0 (Flight.in_flight fl)

(* ------------------------------------------------------------------ *)
(* Wire protocol *)

let test_protocol_roundtrip () =
  let roundtrip (r : Protocol.response) =
    match Protocol.parse (Protocol.render r) with
    | Ok r' -> Alcotest.(check string) "roundtrip" (Protocol.render r) (Protocol.render r')
    | Error e -> Alcotest.failf "parse failed: %s (%s)" e (Protocol.render r)
  in
  roundtrip
    {
      Protocol.outcome = "ok";
      hit = true;
      cold = false;
      ms = 1.532;
      lat = Some 2.1766;
      flight = Protocol.No_flight;
      attempts = 1;
      model = "tinyA";
      device = "hexagon698";
      code = None;
      msg = None;
    };
  (* msg may contain spaces, quotes and '=': it is %S-quoted and last *)
  roundtrip
    {
      Protocol.outcome = "error";
      hit = false;
      cold = true;
      ms = 12.004;
      lat = None;
      flight = Protocol.Lead;
      attempts = 3;
      model = "x";
      device = "hexagon-g2";
      code = Some "cache-io";
      msg = Some "read failed: \"/tmp/x y\" key=v";
    };
  (match Protocol.parse "gcd2r0 outcome=ok" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Protocol.parse "gcd2r1 outcome=ok" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted");
  (* a rejected response reconstructs a retryable Overloaded diag *)
  let rej = Protocol.reject ~model:"m" ~device:"d" in
  Alcotest.(check string) "reject outcome" "rejected" rej.Protocol.outcome;
  (match Protocol.diag_of rej with
  | Some d ->
    check_bool "overloaded" true (d.Gcd2.Diag.code = Gcd2.Diag.Overloaded);
    check_bool "retryable" true d.Gcd2.Diag.retryable
  | None -> Alcotest.fail "reject carries no diag")

(* ------------------------------------------------------------------ *)
(* End-to-end over a unix socket *)

let test_daemon_serves () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~resolve:resolve_tiny dir) @@ fun d ->
  let addr = Daemon.address d in
  (* cold, then warm, then a malformed request *)
  (match Client.batch addr [ "tinyA"; "tinyA"; "# comment"; "" ] with
  | [ Ok a; Ok b ] ->
    Alcotest.(check string) "cold outcome" "ok" a.Protocol.outcome;
    check_bool "first is cold" true a.Protocol.cold;
    check_bool "first is a miss" true (not a.Protocol.hit);
    Alcotest.(check string) "warm outcome" "ok" b.Protocol.outcome;
    check_bool "second hits" true b.Protocol.hit;
    check_bool "warm bypasses the flight" true (b.Protocol.flight = Protocol.No_flight);
    Alcotest.(check string) "model echoed" "tinyA" a.Protocol.model
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  (match Client.batch addr [ "nosuchmodel" ] with
  | [ Ok r ] ->
    Alcotest.(check string) "unknown model is typed" "error" r.Protocol.outcome;
    check_bool "has code" true (r.Protocol.code <> None)
  | _ -> Alcotest.fail "unknown model: expected one error response");
  let s = Daemon.stats d in
  check_int "served" 2 (Counters.get s.Daemon.counts "served");
  check_int "failed" 1 (Counters.get s.Daemon.counts "failed");
  check_int "hits" 1 (Counters.get s.Daemon.counts "hits");
  check_int "one compile" 1 (Counters.get s.Daemon.counts "compiles")

(* A warm daemon hit is a read of its cache entry: the model is resolved
   at a request's first sight (for its digest) and on its cold miss, and
   never again.  Every warm answer is the one the full path — resolve,
   rewrite, fingerprint, cached compile — gives, but for its [ms=]. *)
let test_warm_hits_resolve_nothing () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let resolves = Atomic.make 0 in
  let counting ?seq model =
    Atomic.incr resolves;
    resolve_tiny ?seq model
  in
  let cfg = config ~resolve:counting dir in
  with_daemon cfg @@ fun d ->
  let addr = Daemon.address d in
  let keys = [ "tinyA"; "tinyB"; "tinyC" ] in
  List.iter
    (fun r -> Alcotest.(check string) "primed" "ok" (ok_response r).Protocol.outcome)
    (Client.batch addr keys);
  let first_sight = Atomic.get resolves in
  check_int "two resolves per key at first sight" (2 * List.length keys) first_sight;
  let warm = List.init 20 (fun i -> List.nth keys (i mod List.length keys)) in
  let answers = List.map ok_response (Client.batch addr warm) in
  check_int "20 answers" 20 (List.length answers);
  check_int "warm requests resolve nothing" first_sight (Atomic.get resolves);
  check_int "resolves= in stats" first_sight
    (Counters.get (Daemon.stats d).Daemon.counts "resolves");
  let full key =
    let served =
      Serve.serve_one ~resolve:resolve_tiny cfg.Daemon.policy ~cold:false (Serve.request key)
    in
    Protocol.render { (Protocol.of_served ~flight:Protocol.No_flight served) with ms = 0. }
  in
  List.iter2
    (fun key (r : Protocol.response) ->
      Alcotest.(check string) ("answer of " ^ key) (full key) (Protocol.render { r with ms = 0. }))
    warm answers

(* A damaged or vanished entry found by the early lookup falls through
   to the full path exactly as a miss inside the compile does: a corrupt
   entry is quarantined and recompiled, and the answer is [degraded]
   with the same [lat=]; a deleted one is recompiled and served [ok]. *)
let test_bad_entry_degrades_on_early_lookup () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~resolve:resolve_tiny dir) @@ fun d ->
  let addr = Daemon.address d in
  let one line =
    match Client.batch addr [ line ] with
    | [ r ] -> ok_response r
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  let primed = one "tinyA" in
  let entry =
    let cache = Filename.concat dir "cache" in
    match
      Sys.readdir cache |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
    with
    | [ f ] -> Filename.concat cache f
    | fs -> Alcotest.failf "expected one entry, found %d" (List.length fs)
  in
  let raw = In_channel.with_open_bin entry In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length raw - 1 in
  Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 1));
  Out_channel.with_open_bin entry (fun oc -> Out_channel.output_bytes oc raw);
  let r = one "tinyA" in
  Alcotest.(check string) "flipped byte: degraded" "degraded" r.Protocol.outcome;
  check_bool "flipped byte: recompiled" false r.Protocol.hit;
  check_bool "flipped byte: quarantined aside" true (Sys.file_exists (entry ^ ".bad"));
  Alcotest.(check (option (float 0.0))) "flipped byte: same lat" primed.Protocol.lat
    r.Protocol.lat;
  check_int "degraded= counts it" 1 (Counters.get (Daemon.stats d).Daemon.counts "degraded");
  let r = one "tinyA" in
  check_bool "the recompile stored a healthy entry" true (r.Protocol.outcome = "ok" && r.Protocol.hit);
  Sys.remove entry;
  let r = one "tinyA" in
  Alcotest.(check string) "deleted entry: ok" "ok" r.Protocol.outcome;
  check_bool "deleted entry: recompiled" false r.Protocol.hit;
  Alcotest.(check (option (float 0.0))) "deleted entry: same lat" primed.Protocol.lat
    r.Protocol.lat;
  check_bool "deleted entry: stored again" true (Sys.file_exists entry)

(* Tune verification runs kernels on the simulator, which executes
   hexagon698 only.  On hexagon-g2, compile, serve and the daemon must
   all answer a typed invalid-request that names the device, instead of
   running hexagon-g2 kernels on the wrong simulator. *)
let test_tune_verify_unexecutable_device () =
  let model = "MobileNet-V3" and device = "hexagon-g2" in
  let names_device msg = List.mem device (String.split_on_char ' ' msg) in
  let check_diag what (d : Gcd2.Diag.t) =
    check_bool (what ^ ": invalid-request") true
      (d.Gcd2.Diag.code = Gcd2.Diag.Invalid_request);
    check_bool (what ^ ": names the device: " ^ d.Gcd2.Diag.message) true
      (names_device d.Gcd2.Diag.message)
  in
  let tune = { Gcd2_codegen.Autotune.budget = 8; verify = true } in
  (match Serve.config_of ~device ~tune ~framework:"gcd2" ~selection:"13" () with
  | Ok config -> (
    match Gcd2.Compiler.compile_result ~config (Gcd2_models.Zoo.build model) with
    | Error d -> check_diag "compile" d
    | Ok _ -> Alcotest.fail "compile: tune-verify on hexagon-g2 succeeded")
  | Error d -> Alcotest.failf "config: %a" Gcd2.Diag.pp d);
  let served =
    Serve.serve_one Serve.default_policy ~cold:true (Serve.request ~device ~tune model)
  in
  (match served.Serve.diag with
  | Some d -> check_diag "serve" d
  | None -> Alcotest.fail "serve: tune-verify on hexagon-g2 succeeded");
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config dir) @@ fun d ->
  match Client.batch (Daemon.address d) [ model ^ " device=hexagon-g2 tune=8+verify" ] with
  | [ Ok r ] ->
    Alcotest.(check string) "daemon: outcome" "error" r.Protocol.outcome;
    Alcotest.(check (option string)) "daemon: code" (Some "invalid-request") r.Protocol.code;
    check_bool "daemon: names the device" true
      (names_device (Option.value r.Protocol.msg ~default:""))
  | _ -> Alcotest.fail "daemon: expected one response"

(* The acceptance test of the PR: K identical cold requests arriving
   concurrently perform exactly one compile.  The compile is a real zoo
   model (hundreds of ms) while the clients arrive within a few ms, so
   the followers reliably find the leader in flight. *)
let test_single_flight_coalesces_requests () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let k = 4 in
  with_daemon (config ~workers:k dir) @@ fun d ->
  let addr = Daemon.address d in
  let clients =
    Array.init k (fun _ ->
        Domain.spawn (fun () -> Client.batch addr [ "MobileNet-V3" ]))
  in
  let responses =
    Array.to_list clients
    |> List.concat_map Domain.join
    |> List.map ok_response
  in
  check_int "k responses" k (List.length responses);
  List.iter
    (fun (r : Protocol.response) ->
      Alcotest.(check string) "every request succeeds" "ok" r.Protocol.outcome)
    responses;
  let leads =
    List.length (List.filter (fun r -> r.Protocol.flight = Protocol.Lead) responses)
  in
  let waits =
    List.length (List.filter (fun r -> r.Protocol.flight = Protocol.Wait) responses)
  in
  check_int "exactly one leader" 1 leads;
  check_int "everyone else coalesced" (k - 1) waits;
  let s = Daemon.stats d in
  check_int "exactly one compile" 1 (Counters.get s.Daemon.counts "compiles");
  check_int "exactly one cache miss" 1 (Counters.get s.Daemon.counts "cache_misses");
  check_int "coalesced" (k - 1) (Counters.get s.Daemon.counts "coalesced");
  check_int "all served" k (Counters.get s.Daemon.counts "served");
  (* and exactly one artifact was stored *)
  let entries =
    Sys.readdir (Filename.concat dir "cache")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
  in
  check_int "one cache entry" 1 (List.length entries)

(* A request that holds a worker for about a second when the memo
   tables are empty: a cold compile with a budget-8 tune.  An untuned
   cold compile of any zoo model now takes well under 0.15 s, too short
   to anchor the windows below. *)
let slow_request = "MobileNet-V3 tune=8"

(* Backpressure: one worker, queue depth one.  While the worker is
   inside a cold compile and the queue already holds a connection, the
   next connection is shed with a retryable rejection.  The memo tables
   start empty, so the tuned compile is fully cold and long enough
   (~1 s) to hold the worker while the other two connections arrive. *)
let test_backpressure_rejects_retryable () =
  Gcd2_util.Memo.clear_all ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~workers:1 ~queue_depth:1 dir) @@ fun d ->
  let addr = Daemon.address d in
  let a = Domain.spawn (fun () -> Client.batch addr [ slow_request ]) in
  Unix.sleepf 0.1;
  (* worker is compiling A; this one parks in the queue *)
  let b = Domain.spawn (fun () -> Client.batch addr [ slow_request ]) in
  Unix.sleepf 0.05;
  (* queue full: shed *)
  let rejected = Client.batch addr [ slow_request ] in
  (match rejected with
  | [ Ok r ] ->
    Alcotest.(check string) "shed connection is rejected" "rejected"
      r.Protocol.outcome;
    (match Protocol.diag_of r with
    | Some diag ->
      check_bool "overloaded" true (diag.Gcd2.Diag.code = Gcd2.Diag.Overloaded);
      check_bool "rejection is retryable" true diag.Gcd2.Diag.retryable
    | None -> Alcotest.fail "rejection carries no diag")
  | rs -> Alcotest.failf "expected 1 rejection response, got %d" (List.length rs));
  (* the admitted connections are unaffected *)
  List.iter
    (fun r ->
      Alcotest.(check string) "admitted request served" "ok"
        (ok_response r).Protocol.outcome)
    (Domain.join a @ Domain.join b);
  let s = Daemon.stats d in
  check_int "one rejection" 1 (Counters.get s.Daemon.counts "rejected");
  check_int "two served" 2 (Counters.get s.Daemon.counts "served")

(* Graceful shutdown: stop while one request is mid-compile and another
   connection is still queued; both must be served to EOF. *)
let test_graceful_shutdown_drains () =
  Gcd2_util.Memo.clear_all ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Daemon.start (config ~workers:1 ~queue_depth:4 dir) in
  let addr = Daemon.address d in
  let a = Domain.spawn (fun () -> Client.batch addr [ slow_request ]) in
  Unix.sleepf 0.1;
  let b = Domain.spawn (fun () -> Client.batch addr [ slow_request ]) in
  Unix.sleepf 0.05;
  let s = Daemon.stop d in
  List.iter
    (fun r ->
      Alcotest.(check string) "request served through shutdown" "ok"
        (ok_response r).Protocol.outcome)
    (Domain.join a @ Domain.join b);
  check_int "both served" 2 (Counters.get s.Daemon.counts "served");
  check_int "stop is idempotent" 2 (Counters.get (Daemon.stop d).Daemon.counts "served");
  check_bool "socket removed" true
    (not (Sys.file_exists (Filename.concat dir "d.sock")))

(* ------------------------------------------------------------------ *)
(* Log line integrity *)

let outcomes = [ "ok"; "retried"; "degraded"; "timeout"; "error" ]

(* A captured log line is either a merged stats line or an outcome
   line; a torn line (two workers interleaving mid-line) matches
   neither shape. *)
let line_ok line =
  String.length line > 0
  && (String.starts_with ~prefix:"daemon: workers=" line
     ||
     match String.split_on_char ' ' line |> List.filter (( <> ) "") with
     | _model :: _fw :: _sel :: outcome :: _hit :: coldness :: _ ->
       List.mem outcome outcomes && (coldness = "cold" || coldness = "warm")
     | _ -> false)

let test_log_lines_never_tear () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log_path = Filename.concat dir "daemon.log" in
  let log = open_out log_path in
  let reqs = [ "tinyA"; "tinyB"; "tinyA"; "tinyB"; "tinyA"; "tinyB" ] in
  let per_client = 4 in
  let clients = 3 in
  Logsink.with_redirect ~out:log ~err:log (fun () ->
      with_daemon
        (config ~workers:3 ~resolve:resolve_tiny ~log_outcomes:true
           ~stats_every:5 dir)
      @@ fun d ->
      let addr = Daemon.address d in
      (* prime the cache so the burst is all-warm and maximally chatty *)
      ignore (Client.batch addr [ "tinyA"; "tinyB" ]);
      let cs =
        Array.init clients (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_client do
                  List.iter
                    (fun r -> ignore (ok_response r))
                    (Client.batch addr reqs)
                done))
      in
      Array.iter Domain.join cs;
      ignore (Daemon.stop d));
  close_out log;
  let ic = open_in log_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_bool "log is non-trivial" true
    (List.length lines > clients * per_client * List.length reqs);
  List.iter
    (fun l -> check_bool (Printf.sprintf "intact line: %S" l) true (line_ok l))
    lines

(* ------------------------------------------------------------------ *)
(* Robustness (PR 10): health/stats commands, the worker watchdog, and
   the cross-process disk flight tier *)

module Fault = Gcd2_util.Fault
module Lease = Gcd2_store.Lease

let test_health_and_stats_commands () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~resolve:resolve_tiny dir) @@ fun d ->
  let addr = Daemon.address d in
  (match Client.batch addr [ "health"; "stats"; "tinyA" ] with
  | [ Ok h; Ok s; Ok r ] ->
    Alcotest.(check string) "health outcome" "health" h.Protocol.outcome;
    let payload = Option.value h.Protocol.msg ~default:"" in
    check_bool "health names its workers" true
      (String.length payload > 0
      && Option.is_some
           (String.index_opt payload 'w' (* "workers=" *))
      && String.split_on_char ' ' payload
         |> List.exists (String.starts_with ~prefix:"workers="));
    Alcotest.(check string) "stats outcome" "stats" s.Protocol.outcome;
    check_bool "stats carries the merged line" true
      (match s.Protocol.msg with
      | Some m ->
        String.split_on_char ' ' m
        |> List.exists (String.starts_with ~prefix:"served=")
      | None -> false);
    (* command lines and compile lines interleave in one session *)
    Alcotest.(check string) "request after commands still served" "ok"
      r.Protocol.outcome
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs))

(* Wire format of the [stats], [health] and [janitor:] lines, which
   operators and the benchmark parse by key. *)

module Janitor = Gcd2_store.Janitor

let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' line)

let stats_counters =
  [ "served"; "failed"; "hits"; "compiles"; "resolves"; "coalesced"; "adopted"; "accepted";
    "rejected"; "retried"; "degraded"; "cache_misses"; "cache_bytes"; "respawns"; "sweeps" ]

let check_stats_wire d =
  let stats, health =
    match Client.batch (Daemon.address d) [ "stats"; "health" ] with
    | [ Ok { Protocol.msg = Some s; _ }; Ok { Protocol.msg = Some h; _ } ] -> (s, h)
    | _ -> Alcotest.fail "no stats/health answers"
  in
  let s = Daemon.stats d in
  let count k = string_of_int (Counters.get s.Daemon.counts k) in
  Alcotest.(check (list string)) "the registry declares every counter" stats_counters
    (List.map fst (Counters.to_list s.Daemon.counts));
  check_bool "stats line prefix" true (String.starts_with ~prefix:"daemon: " stats);
  let line = fields stats in
  Alcotest.(check (list string)) "stats keys, zeros included"
    ([ "workers"; "queue" ] @ stats_counters
    @ [ "warm_p50"; "warm_p95"; "warm_p99"; "cold_p50"; "cold_p95" ])
    (List.map fst line);
  List.iter
    (fun k -> Alcotest.(check string) ("stats " ^ k) (count k) (List.assoc k line))
    stats_counters;
  (* the keys benchmark/w_serve.ml reads *)
  List.iter
    (fun k -> check_bool ("benchmark key " ^ k) true (List.mem_assoc k line))
    [ "served"; "hits"; "compiles"; "rejected"; "respawns" ];
  check_bool "health status" true (String.starts_with ~prefix:"ok " health);
  let h = fields health in
  Alcotest.(check (list string)) "health keys"
    [ "pid"; "workers"; "queue"; "served"; "failed"; "respawns"; "uptime_s" ]
    (List.map fst h);
  List.iter
    (fun k -> Alcotest.(check string) ("health " ^ k) (count k) (List.assoc k h))
    [ "served"; "failed"; "respawns" ]

let test_stats_wire_format () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~resolve:resolve_tiny dir) (fun d ->
      check_stats_wire d;
      ignore (Client.batch (Daemon.address d) [ "tinyA"; "tinyA"; "nosuchmodel" ]);
      check_stats_wire d;
      check_int "traffic counted" 2 (Counters.get (Daemon.stats d).Daemon.counts "served"));
  let janitor =
    Janitor.report_line (Janitor.sweep ~dir:(Filename.concat dir "cache") Janitor.default)
  in
  check_bool "janitor line prefix" true (String.starts_with ~prefix:"janitor: " janitor);
  Alcotest.(check (list string)) "janitor keys"
    [ "entries"; "bytes"; "tmp_removed"; "bad_removed"; "leases_broken"; "evicted";
      "evicted_bytes"; "skipped_leased"; "errors" ]
    (List.map fst (fields janitor))

let test_worker_crash_respawns () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_daemon (config ~workers:1 ~resolve:resolve_tiny dir) @@ fun d ->
  let addr = Daemon.address d in
  (* every connection crashes its worker while the spec is active *)
  (match
     Fault.with_spec (Fault.parse_exn "seed=11,pool-worker=1") @@ fun () ->
     Client.batch addr [ "tinyA" ]
   with
  | [ Ok r ] ->
    Alcotest.(check string) "crash answered, not dropped" "error" r.Protocol.outcome;
    Alcotest.(check (option string)) "typed as worker-failed" (Some "worker-failed")
      r.Protocol.code;
    (match Protocol.diag_of r with
    | Some diag -> check_bool "worker crash is retryable" true diag.Gcd2.Diag.retryable
    | None -> Alcotest.fail "crash response carries no diag")
  | [ Error e ] -> Alcotest.failf "connection dropped instead of answered: %s" e
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* the watchdog respawned the sole worker: the pool still serves *)
  (match Client.batch addr [ "tinyA" ] with
  | [ Ok r ] -> Alcotest.(check string) "respawned worker serves" "ok" r.Protocol.outcome
  | _ -> Alcotest.fail "respawned worker did not answer");
  let s = Daemon.stats d in
  check_bool "respawn counted" true (Counters.get s.Daemon.counts "respawns" >= 1)

(* Disk flight tier, in one process: a slow leader holds the digest's
   lease while a late follower polls; once the leader publishes the
   artifact the follower adopts instead of compiling. *)
let test_disk_flight_adopts () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let digest = "deadbeef01" in
  let art = Filename.concat dir "published.art" in
  let has_artifact () = Sys.file_exists art in
  let leader =
    Thread.create
      (fun () ->
        Flight.Disk.run ~dir ~digest ~has_artifact (fun _role ->
            Thread.delay 0.2;
            Out_channel.with_open_bin art (fun oc -> Out_channel.output_string oc "bits");
            "compiled"))
      ()
  in
  Thread.delay 0.05;
  let follower, frole =
    Flight.Disk.run ~dir ~digest ~has_artifact (fun role ->
        match role with
        | Flight.Disk.Adopted -> "adopted"
        | Flight.Disk.Led | Flight.Disk.Local -> "compiled")
  in
  Thread.join leader;
  Alcotest.(check string) "follower adopted the published artifact" "adopted" follower;
  check_bool "role is Adopted" true (frole = Flight.Disk.Adopted);
  check_bool "leader released its lease" true
    (Lease.state ~dir digest = Lease.Free)

(* A SIGKILLed leader's lease (dead pid) must be broken, not waited out. *)
let test_disk_flight_breaks_dead_lease () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let digest = "deadbeef02" in
  (* far above the kernel's pid_max: kill(pid, 0) is ESRCH, i.e. dead
     (forking a real corpse is off-limits once domains have run) *)
  let corpse = 999_999_999 in
  (match Lease.acquire ~owner:corpse ~dir digest with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "planting the dead lease failed");
  let t0 = Unix.gettimeofday () in
  let r, role =
    Flight.Disk.run ~dir ~digest ~has_artifact:(fun () -> false) (fun _ -> "compiled")
  in
  Alcotest.(check string) "request served" "compiled" r;
  check_bool "dead lease broken, caller led" true (role = Flight.Disk.Led);
  check_bool "broke immediately, no ttl wait" true (Unix.gettimeofday () -. t0 < 2.0);
  check_bool "no lease left behind" true (Lease.state ~dir digest = Lease.Free)

(* Lease-layer faults degrade to a local compile — never an error, never
   a wedge. *)
let test_disk_flight_fault_falls_back () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r, role =
    Fault.with_spec (Fault.parse_exn "seed=12,flight-lease=1") @@ fun () ->
    Flight.Disk.run ~dir ~digest:"deadbeef03" ~has_artifact:(fun () -> false)
      (fun _ -> "compiled")
  in
  Alcotest.(check string) "served despite lease faults" "compiled" r;
  check_bool "fell back to a local compile" true (role = Flight.Disk.Local)

let tests =
  [
    Alcotest.test_case "bounded queue semantics" `Quick test_bqueue;
    Alcotest.test_case "flight coalesces concurrent callers" `Quick
      test_flight_coalesces;
    Alcotest.test_case "flight shares the leader's failure" `Quick
      test_flight_shares_failure;
    Alcotest.test_case "protocol render/parse roundtrip" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "daemon serves cold, warm and invalid" `Quick
      test_daemon_serves;
    Alcotest.test_case "warm hits resolve nothing" `Quick test_warm_hits_resolve_nothing;
    Alcotest.test_case "a bad entry degrades on the early lookup" `Quick
      test_bad_entry_degrades_on_early_lookup;
    Alcotest.test_case "tune-verify on a device the VM cannot run" `Quick
      test_tune_verify_unexecutable_device;
    Alcotest.test_case "single-flight: K requests, one compile" `Quick
      test_single_flight_coalesces_requests;
    Alcotest.test_case "backpressure rejection is retryable" `Quick
      test_backpressure_rejects_retryable;
    Alcotest.test_case "graceful shutdown drains the queue" `Quick
      test_graceful_shutdown_drains;
    Alcotest.test_case "log lines never tear" `Quick test_log_lines_never_tear;
    Alcotest.test_case "health and stats answered in-frame" `Quick
      test_health_and_stats_commands;
    Alcotest.test_case "stats, health and janitor wire format" `Quick
      test_stats_wire_format;
    Alcotest.test_case "worker crash answered and respawned" `Quick
      test_worker_crash_respawns;
    Alcotest.test_case "disk flight: follower adopts the leader's artifact" `Quick
      test_disk_flight_adopts;
    Alcotest.test_case "disk flight: dead leader's lease is broken" `Quick
      test_disk_flight_breaks_dead_lease;
    Alcotest.test_case "disk flight: lease faults fall back locally" `Quick
      test_disk_flight_fault_falls_back;
  ]
