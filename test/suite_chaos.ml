(* Chaos suite: deterministic fault injection against the serving loop
   and the layers under it.  The invariant everything here asserts is
   the robustness contract of the PR: under any fault spec the service
   never crashes (every failure is a typed outcome), never returns
   wrong artifacts (every served compile carries exactly the fault-free
   bits), and always converges back to fault-free behaviour once the
   faults stop.

   Every test installs its spec explicitly with [Fault.with_spec], so
   the suite is deterministic under `dune runtest`; `make chaos` (and
   CI) additionally runs it with a fixed GCD2_FAULTS spec, which the
   env-spec test picks up to serve a batch under the ambient faults. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Trace = Gcd2_util.Trace
module Fault = Gcd2_util.Fault
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Diag = Gcd2.Diag
module Artifact = Gcd2_store.Artifact
module Serve = Gcd2_serve.Serve
open Gcd2_graph
module B = Graph.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir () =
  let f = Filename.temp_file "gcd2-chaos-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let spec = Fault.parse_exn
let weight_q = Q.make (1.0 /. 64.0)

let tiny_cnn seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 4; 4; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 4 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:4 in
  let _ = B.add b Op.Relu [ c1 ] in
  B.finish b

(* Bigger sibling (convs, residual add, matmul head) for the vm test:
   it is known to lower nodes to the SIMD unit, so [Machine.run]
   actually executes (and can fault). *)
let weighted_cnn seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 8; 8; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 8 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:8 in
  let r1 = B.add b Op.Relu [ c1 ] in
  let w2 = T.random ~quant:weight_q rng [| 1; 1; 8; 8 |] in
  let c2 = B.conv2d ~weight:w2 b r1 ~kh:1 ~kw:1 ~stride:1 ~pad:0 ~cout:8 in
  let s = B.add b Op.Add [ r1; c2 ] in
  let flat = B.add b (Op.Reshape { shape = [| 64; 8 |] }) [ s ] in
  let w3 = T.random ~quant:weight_q rng [| 8; 10 |] in
  let _ = B.matmul ~weight:w3 b flat ~cout:10 in
  B.finish b

let resolve ?seq:_ = function
  | "tiny" -> tiny_cnn 1
  | "tiny2" -> tiny_cnn 2
  | m -> invalid_arg ("unknown test model " ^ m)

(* Fault-free reference compiles, computed once: the bits every faulted
   serve must still produce. *)
let baseline =
  let tbl = Hashtbl.create 4 in
  fun model ->
    match Hashtbl.find_opt tbl model with
    | Some c -> c
    | None ->
      let c = Fault.with_disabled (fun () -> Compiler.compile (resolve model)) in
      Hashtbl.add tbl model c;
      c

let check_bits name model (c : Compiler.compiled) =
  let base = baseline model in
  Alcotest.(check (array int))
    (name ^ ": assignment matches the fault-free compile")
    base.Compiler.assignment c.Compiler.assignment;
  Alcotest.(check (float 0.0))
    (name ^ ": latency matches the fault-free compile")
    (Compiler.latency_ms base) (Compiler.latency_ms c);
  Alcotest.(check (float 0.0))
    (name ^ ": cycle count matches the fault-free compile")
    base.Compiler.report.Compiler.Graphcost.cycles
    c.Compiler.report.Compiler.Graphcost.cycles

let policy ?cache_dir ?(retries = 3) ?jobs () =
  { Serve.cache_dir; deadline_ms = None; retries; backoff_ms = 0.0; jobs }

let no_tmp_debris dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "temp-file debris %s left in the cache directory" f)
    (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* One regression per injection point *)

(* cache-read: a cache that always fails to read costs retries and then
   the uncached-fallback degradation — never the request. *)
let test_cache_read_degrades () =
  let dir = temp_dir () in
  Fault.with_spec (spec "seed=1,cache-read=1") @@ fun () ->
  let r =
    Serve.serve_one ~resolve (policy ~cache_dir:dir ()) ~cold:true
      (Serve.request "tiny")
  in
  check_bool "served via degradation" true (r.Serve.outcome = Serve.Degraded);
  check_bool "uncached fallback used" true r.Serve.uncached;
  check_int "initial try + 3 retries + 1 uncached attempt" 5 r.Serve.attempts;
  match r.Serve.compiled with
  | Some c -> check_bits "cache-read" "tiny" c
  | None -> Alcotest.fail "degraded request lost its compile"

(* cache-write: a store that cannot persist entries degrades to
   uncached serving, and the failing saves leave no temp-file debris. *)
let test_cache_write_degrades () =
  let dir = temp_dir () in
  Fault.with_spec (spec "seed=2,cache-write=1") @@ fun () ->
  let r =
    Serve.serve_one ~resolve (policy ~cache_dir:dir ()) ~cold:true
      (Serve.request "tiny")
  in
  check_bool "served via degradation" true (r.Serve.outcome = Serve.Degraded);
  check_bool "uncached fallback used" true r.Serve.uncached;
  no_tmp_debris dir;
  match r.Serve.compiled with
  | Some c -> check_bits "cache-write" "tiny" c
  | None -> Alcotest.fail "degraded request lost its compile"

(* artifact-decode: a bit-flipped entry is quarantined, the recompile
   self-heals the cache, and the served bits are exactly fault-free. *)
let test_artifact_decode_quarantines () =
  let dir = temp_dir () in
  let cold =
    Fault.with_disabled (fun () -> Compiler.compile ~cache_dir:dir (tiny_cnn 1))
  in
  check_bool "primer compile is cold" false (Compiler.from_cache cold);
  let r =
    Fault.with_spec (spec "seed=3,artifact-decode=1") @@ fun () ->
    Serve.serve_one ~resolve (policy ~cache_dir:dir ()) ~cold:false
      (Serve.request "tiny")
  in
  check_bool "served via degradation" true (r.Serve.outcome = Serve.Degraded);
  check_bool "the corrupt entry was quarantined" true (r.Serve.quarantined >= 1);
  check_bool "a quarantined hit is a miss" false r.Serve.hit;
  (match r.Serve.compiled with
  | Some c -> check_bits "artifact-decode" "tiny" c
  | None -> Alcotest.fail "degraded request lost its compile");
  check_bool "quarantined bytes kept for post-mortem" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".bad")
       (Sys.readdir dir));
  (* faults over (suppressed, so an ambient `make chaos` spec cannot
     re-poison the check): the healed entry serves a clean hit *)
  let r2 =
    Fault.with_disabled @@ fun () ->
    Serve.serve_one ~resolve (policy ~cache_dir:dir ()) ~cold:false
      (Serve.request "tiny")
  in
  check_bool "healed entry hits" true r2.Serve.hit;
  check_bool "clean outcome after the faults" true (r2.Serve.outcome = Serve.Ok_)

(* vm-run: an injected execution fault surfaces as a typed [vm-fault]
   diagnostic, and execution is untouched once the faults stop. *)
let test_vm_fault_is_typed () =
  let c = Fault.with_disabled (fun () -> Compiler.compile (weighted_cnn 1)) in
  let input =
    T.random (Rng.create 42) (Graph.node c.Compiler.graph 0).Graph.out_shape
  in
  let inputs = [ (0, input) ] in
  let reference = Fault.with_disabled (fun () -> Runtime.run c ~inputs) in
  Fault.with_spec (spec "seed=4,vm-run=1") @@ fun () ->
  (match Runtime.run c ~inputs with
  | _ -> Alcotest.fail "vm-run=1 did not fault"
  | exception exn ->
    let d = Diag.of_exn ~phase:"run" exn in
    check_bool "classified as vm-fault" true (d.Diag.code = Diag.Vm_fault);
    check_bool "injected faults are retryable" true d.Diag.retryable);
  (* with injection suppressed the same machine runs clean *)
  let again = Fault.with_disabled (fun () -> Runtime.run c ~inputs) in
  check_int "same node count" (Array.length reference) (Array.length again);
  Array.iteri
    (fun i t ->
      if not (T.equal_data t again.(i)) then
        Alcotest.failf "node %d: output changed across a vm fault" i)
    reference

(* memo-lookup: lost memo entries recompute; results must be
   bit-identical, only the memo-faults counter may move. *)
let test_memo_faults_change_nothing () =
  Fault.with_spec (spec "seed=5,memo-lookup=0.5") @@ fun () ->
  let c1 = Compiler.compile (tiny_cnn 1) in
  let c2 = Compiler.compile (tiny_cnn 1) in
  check_bits "memo-lookup first compile" "tiny" c1;
  check_bits "memo-lookup second compile" "tiny" c2;
  check_bool "forced misses were actually injected" true
    (Fault.injections "memo-lookup" > 0);
  check_bool "forced misses are counted" true
    (Trace.counter c1.Compiler.trace "memo-faults"
     + Trace.counter c2.Compiler.trace "memo-faults"
    > 0)

(* pool-worker: a crashed worker domain fails the compile with a typed,
   retryable [worker-failed]; under a flaky (not certain) crash rate the
   serve loop's retries converge to the fault-free bits. *)
let test_pool_worker_crash_and_recovery () =
  Fault.with_spec (spec "seed=6,pool-worker=1") (fun () ->
      match Compiler.compile_result ~jobs:2 (tiny_cnn 1) with
      | Ok _ -> Alcotest.fail "pool-worker=1 did not fail the compile"
      | Error d ->
        check_bool "classified as worker-failed" true (d.Diag.code = Diag.Worker_failed);
        check_bool "worker crashes are retryable" true d.Diag.retryable);
  Fault.with_spec (spec "seed=6,pool-worker=0.4") @@ fun () ->
  let r =
    Serve.serve_one ~resolve (policy ~retries:10 ~jobs:2 ()) ~cold:true
      (Serve.request "tiny")
  in
  check_bool "retries converge"
    true
    (r.Serve.outcome = Serve.Ok_ || r.Serve.outcome = Serve.Retried);
  match r.Serve.compiled with
  | Some c -> check_bits "pool-worker" "tiny" c
  | None -> Alcotest.fail "recovered request lost its compile"

(* ------------------------------------------------------------------ *)
(* The chaos property *)

(* Serve a batch (cold + warm requests over two models, through a fresh
   cache) under whatever spec is installed, and assert the full
   contract: no escape of a raw exception (run_batch returning at all),
   typed outcomes that add up, exact fault-free bits on every served
   compile, no temp debris — then re-serve with injection suppressed
   and require total convergence. *)
let serve_invariant name =
  let dir = temp_dir () in
  let reqs =
    [
      Serve.request "tiny";
      Serve.request "tiny2";
      Serve.request "tiny";
      Serve.request "tiny2";
    ]
  in
  let p = policy ~cache_dir:dir ~retries:3 () in
  let results, report = Serve.run_batch ~resolve p reqs in
  check_int (name ^ ": every request has an outcome") 4 report.Serve.requests;
  check_int
    (name ^ ": outcomes partition the batch")
    4
    (report.Serve.ok + report.Serve.errors + report.Serve.timeouts);
  List.iter
    (fun (r : Serve.served) ->
      match (r.Serve.compiled, r.Serve.diag) with
      | Some c, None -> check_bits name r.Serve.request.Serve.model c
      | None, Some _ -> ()
      | Some _, Some _ | None, None ->
        Alcotest.failf "%s: outcome with inconsistent compile/diagnostic" name)
    results;
  no_tmp_debris dir;
  (* convergence: the same batch with injection suppressed is all-ok *)
  Fault.with_disabled @@ fun () ->
  let results2, report2 = Serve.run_batch ~resolve p reqs in
  check_int (name ^ ": fault-free re-serve has no errors") 0 report2.Serve.errors;
  check_int (name ^ ": fault-free re-serve has no timeouts") 0 report2.Serve.timeouts;
  List.iter
    (fun (r : Serve.served) ->
      match r.Serve.compiled with
      | Some c -> check_bits (name ^ " (converged)") r.Serve.request.Serve.model c
      | None -> Alcotest.failf "%s: fault-free re-serve failed a request" name)
    results2

let qcheck_chaos =
  QCheck.Test.make ~name:"service survives random fault specs and converges" ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let s =
        Fmt.str
          "seed=%d,cache-read=0.3,cache-write=0.3,artifact-decode=0.5,memo-lookup=0.3"
          seed
      in
      Fault.with_spec (spec s) (fun () -> serve_invariant (Fault.to_string (spec s)));
      true)

(* `make chaos` runs the suite with a fixed GCD2_FAULTS spec; this test
   serves a batch under that ambient spec (the other tests override it
   locally).  A plain `dune runtest` has no spec installed, which makes
   this a fault-free run of the same invariant. *)
let test_env_spec () =
  (match Sys.getenv_opt "GCD2_FAULTS" with
  | None | Some "" -> ()
  | Some s -> (
    match Fault.parse s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "GCD2_FAULTS does not parse: %s" e));
  serve_invariant "env spec"

(* The same contract on a real zoo model through the default (Zoo)
   resolver: WDSR-b — the smallest entry — served under combined cache
   faults still yields exactly the fault-free bits, and once the faults
   stop the healed cache serves a clean hit. *)
let test_zoo_model_chaos () =
  let dir = temp_dir () in
  let base =
    Fault.with_disabled (fun () ->
        Compiler.compile ((Gcd2_models.Zoo.find "WDSR-b").Gcd2_models.Zoo.build ()))
  in
  let p = policy ~cache_dir:dir ~retries:3 () in
  Fault.with_spec (spec "seed=11,cache-read=0.5,artifact-decode=0.5,memo-lookup=0.3")
    (fun () ->
      List.iter
        (fun cold ->
          let r = Serve.serve_one p ~cold (Serve.request "WDSR-b") in
          check_bool "zoo request served" true
            (match r.Serve.outcome with
            | Serve.Ok_ | Serve.Retried | Serve.Degraded -> true
            | Serve.Timed_out | Serve.Failed -> false);
          match r.Serve.compiled with
          | Some c ->
            Alcotest.(check (array int)) "zoo assignment matches fault-free"
              base.Compiler.assignment c.Compiler.assignment;
            Alcotest.(check (float 0.0)) "zoo latency matches fault-free"
              (Compiler.latency_ms base) (Compiler.latency_ms c)
          | None -> Alcotest.fail "served zoo request lost its compile")
        [ true; false ]);
  let r =
    Fault.with_disabled (fun () -> Serve.serve_one p ~cold:false (Serve.request "WDSR-b"))
  in
  check_bool "fault-free zoo serve hits the healed cache" true r.Serve.hit;
  check_bool "fault-free zoo serve is clean" true (r.Serve.outcome = Serve.Ok_)

(* ------------------------------------------------------------------ *)
(* The daemon under faults *)

module Daemon = Gcd2_daemon.Daemon
module Dclient = Gcd2_daemon.Client
module Protocol = Gcd2_daemon.Protocol

(* Faults injected inside daemon worker domains must surface as typed
   per-request outcomes — never crash the server, and never leak one
   request's artifact into another's response.  Cross-wiring is
   detectable by the latency estimate: the two models here compile to
   measurably different estimates, and every successful response must
   carry exactly its own model's fault-free estimate. *)
let test_daemon_worker_chaos () =
  let dir = temp_dir () in
  let resolve_d ?seq:_ = function
    | "tiny" -> tiny_cnn 1
    | "wide" -> weighted_cnn 5
    | m -> invalid_arg ("unknown test model " ^ m)
  in
  let base_lat model =
    (* the wire format carries lat with 4 decimals; compare at wire
       precision *)
    Fault.with_disabled (fun () ->
        float_of_string
          (Printf.sprintf "%.4f"
             (Compiler.latency_ms (Compiler.compile (resolve_d model)))))
  in
  let expect = [ ("tiny", base_lat "tiny"); ("wide", base_lat "wide") ] in
  check_bool "models are distinguishable by latency" true
    (List.assoc "tiny" expect <> List.assoc "wide" expect);
  let cfg =
    {
      (Daemon.default_config (Daemon.Unix_sock (Filename.concat dir "d.sock"))) with
      Daemon.workers = 2;
      resolve = Some resolve_d;
      policy = policy ~cache_dir:(Filename.concat dir "cache") ~jobs:1 ();
    }
  in
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Daemon.stop d)) @@ fun () ->
  let addr = Daemon.address d in
  let reqs = [ "tiny"; "wide"; "tiny"; "wide"; "tiny"; "wide" ] in
  let check_responses label rs =
    check_int (label ^ ": every request answered") (List.length reqs)
      (List.length rs);
    List.iter
      (function
        | Error e -> Alcotest.failf "%s: transport error under faults: %s" label e
        | Ok (r : Protocol.response) -> (
          check_bool
            (label ^ ": outcome is typed (server alive): " ^ r.Protocol.outcome)
            true
            (List.mem r.Protocol.outcome
               [ "ok"; "retried"; "degraded"; "timeout"; "error" ]);
          match (r.Protocol.outcome, r.Protocol.lat) with
          | ("ok" | "retried" | "degraded"), Some lat ->
            Alcotest.(check (float 0.0))
              (label ^ ": response carries its own model's artifact")
              (List.assoc r.Protocol.model expect)
              lat
          | ("ok" | "retried" | "degraded"), None ->
            Alcotest.fail (label ^ ": successful response lost its latency")
          | _ -> ()))
      rs
  in
  Fault.with_spec
    (spec "seed=7,cache-read=0.4,cache-write=0.3,artifact-decode=0.4,memo-lookup=0.3")
    (fun () ->
      let clients =
        Array.init 3 (fun _ -> Domain.spawn (fun () -> Dclient.batch addr reqs))
      in
      Array.iteri
        (fun i c -> check_responses (Printf.sprintf "client %d" i) (Domain.join c))
        clients);
  (* once the faults stop, the same daemon serves clean warm hits; the
     request runs under no spec at all, since [with_spec] restored the
     ambient one (under [make chaos], the GCD2_FAULTS spec) *)
  match Fault.with_spec Fault.none (fun () -> Dclient.batch addr [ "tiny" ]) with
  | [ Ok r ] ->
    Alcotest.(check string) "fault-free serve is clean" "ok" r.Protocol.outcome;
    Alcotest.(check (float 0.0))
      "fault-free latency matches"
      (List.assoc "tiny" expect)
      (match r.Protocol.lat with Some l -> l | None -> -1.0)
  | _ -> Alcotest.fail "fault-free request after chaos did not round-trip"

(* ------------------------------------------------------------------ *)
(* Spec plumbing *)

let test_spec_parsing () =
  (match Fault.parse "seed=9,cache-read=0.25 artifact-decode=1" with
  | Ok s ->
    Alcotest.(check string)
      "round-trips" "seed=9,cache-read=0.25,artifact-decode=1" (Fault.to_string s)
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  let rejects s =
    match Fault.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bad spec %S accepted" s
  in
  rejects "bogus";
  rejects "no-such-point=1";
  rejects "cache-read=1.5";
  rejects "seed=abc";
  check_bool "unknown point names are rejected at the call site" true
    (match Fault.hit "no-such-point" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* PR 10: the lease tier and the janitor under faults *)

module Janitor = Gcd2_store.Janitor
module Counters = Gcd2_util.Stats.Counters

(* With every lease operation faulting, the cross-process flight tier
   must degrade to plain local compiles: every request still serves the
   fault-free bits, and no lease debris is left in the cache dir. *)
let test_flight_lease_fault_degrades () =
  let dir = temp_dir () in
  let cache = Filename.concat dir "cache" in
  let base =
    Fault.with_disabled (fun () ->
        float_of_string
          (Printf.sprintf "%.4f" (Compiler.latency_ms (Compiler.compile (tiny_cnn 1)))))
  in
  let cfg =
    {
      (Daemon.default_config (Daemon.Unix_sock (Filename.concat dir "d.sock"))) with
      Daemon.workers = 2;
      resolve = Some resolve;
      policy = policy ~cache_dir:cache ~jobs:1 ();
    }
  in
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> ignore (Daemon.stop d)) @@ fun () ->
  let addr = Daemon.address d in
  Fault.with_spec (spec "seed=21,flight-lease=1") (fun () ->
      match Dclient.batch addr [ "tiny"; "tiny" ] with
      | [ Ok a; Ok b ] ->
        Alcotest.(check string) "cold serve ok under lease faults" "ok"
          a.Protocol.outcome;
        Alcotest.(check string) "warm serve ok under lease faults" "ok"
          b.Protocol.outcome;
        Alcotest.(check (float 0.0))
          "lease-fault serve carries fault-free bits" base
          (match a.Protocol.lat with Some l -> l | None -> -1.0)
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  check_bool "no lease debris left behind" true
    (Sys.readdir cache |> Array.to_list
    |> List.for_all (fun f -> not (Filename.check_suffix f ".lease")))

(* A sweep whose every unlink faults must count errors and remove
   nothing — and the next fault-free sweep converges the directory. *)
let test_janitor_unlink_fault_tolerated () =
  let dir = temp_dir () in
  let plant name =
    let p = Filename.concat dir name in
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc "debris");
    let old = Unix.gettimeofday () -. 1000.0 in
    Unix.utimes p old old
  in
  plant "torn-write.tmp";
  plant "poisoned.gcd2art.bad";
  let cfg = { Janitor.default with Janitor.tmp_max_age_s = 60.0; bad_max_age_s = 60.0 } in
  Fault.with_spec (spec "seed=22,janitor-unlink=1") (fun () ->
      let r = Janitor.sweep ~dir cfg in
      check_int "faulted sweep removed nothing" 0
        (Counters.get r "tmp_removed" + Counters.get r "bad_removed");
      check_int "every failed unlink counted" 2 (Counters.get r "errors"));
  check_int "debris survives the faulted sweep" 2 (Array.length (Sys.readdir dir));
  (* with_disabled, not "no spec": under `make chaos` the ambient env
     spec would otherwise keep faulting this sweep's unlinks *)
  let r = Fault.with_disabled (fun () -> Janitor.sweep ~dir cfg) in
  check_int "fault-free sweep converges: tmp" 1 (Counters.get r "tmp_removed");
  check_int "fault-free sweep converges: bad" 1 (Counters.get r "bad_removed");
  check_int "no errors without faults" 0 (Counters.get r "errors");
  check_int "directory clean" 0 (Array.length (Sys.readdir dir))

let tests =
  [
    Alcotest.test_case "fault specs parse and validate" `Quick test_spec_parsing;
    Alcotest.test_case "cache-read faults degrade to uncached" `Quick
      test_cache_read_degrades;
    Alcotest.test_case "cache-write faults degrade, no debris" `Quick
      test_cache_write_degrades;
    Alcotest.test_case "artifact-decode faults quarantine and heal" `Quick
      test_artifact_decode_quarantines;
    Alcotest.test_case "vm faults are typed and transient" `Quick test_vm_fault_is_typed;
    Alcotest.test_case "memo faults never change results" `Quick
      test_memo_faults_change_nothing;
    Alcotest.test_case "worker crashes fail typed and retry to recovery" `Quick
      test_pool_worker_crash_and_recovery;
    Alcotest.test_case "GCD2_FAULTS-driven batch" `Quick test_env_spec;
    Alcotest.test_case "zoo model under combined faults" `Quick test_zoo_model_chaos;
    Alcotest.test_case "daemon workers absorb faults" `Quick
      test_daemon_worker_chaos;
    Alcotest.test_case "lease faults degrade to local compiles" `Quick
      test_flight_lease_fault_degrades;
    Alcotest.test_case "janitor tolerates unlink faults and converges" `Quick
      test_janitor_unlink_fault_tolerated;
    QCheck_alcotest.to_alcotest qcheck_chaos;
  ]
