(* Tests for the hardened serving loop: request parsing (malformed
   lines are errors with line numbers, never silently dropped),
   config resolution, per-request isolation, deadlines, and the report
   excluding failed requests from its latency populations. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Compiler = Gcd2.Compiler
module Diag = Gcd2.Diag
module Serve = Gcd2_serve.Serve
open Gcd2_graph
module B = Graph.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir () =
  let f = Filename.temp_file "gcd2-serve-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let weight_q = Q.make (1.0 /. 64.0)

(* A deliberately small model: serving tests measure the loop, not the
   compiler, so the compile under test must be cheap. *)
let tiny_cnn seed =
  let rng = Rng.create seed in
  let b = B.create () in
  let x = B.input b [| 1; 4; 4; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 4 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:4 in
  let _ = B.add b Op.Relu [ c1 ] in
  B.finish b

let resolve_tiny ?seq:_ = function
  | "tiny" -> tiny_cnn 1
  | "tiny2" -> tiny_cnn 2
  | m -> invalid_arg ("unknown test model " ^ m)

let policy ?cache_dir ?deadline_ms ?(retries = 2) () =
  { Serve.cache_dir; deadline_ms; retries; backoff_ms = 0.0; jobs = None }

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse ?(framework = "gcd2") ?(selection = "13") ?(device = "hexagon698") ?(line = 1)
    text =
  Serve.parse_line ~framework ~selection ~device ~line text

let test_parse_ok () =
  (match parse "WDSR-b" with
  | Ok (Some r) ->
    Alcotest.(check string) "model" "WDSR-b" r.Serve.model;
    Alcotest.(check string) "default framework" "gcd2" r.Serve.framework;
    Alcotest.(check string) "default selection" "13" r.Serve.selection
  | _ -> Alcotest.fail "single token did not parse");
  (match parse "  m \t tflite\tlocal  " with
  | Ok (Some r) ->
    Alcotest.(check string) "framework" "tflite" r.Serve.framework;
    Alcotest.(check string) "selection" "local" r.Serve.selection
  | _ -> Alcotest.fail "tab-separated line did not parse");
  check_bool "blank line skipped" true (parse "   " = Ok None);
  check_bool "whole-line comment skipped" true (parse "# a comment" = Ok None);
  check_bool "indented comment skipped" true (parse "   # indented" = Ok None)

let reason = function
  | Error (e : Serve.parse_error) -> e.Serve.reason
  | Ok _ -> Alcotest.fail "malformed line parsed"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* `model #comment` must be an error, not framework="#comment" (the
   old loop served the mis-parse); likewise anything after SELECTION. *)
let test_parse_rejects () =
  check_bool "inline comment rejected" true
    (contains (reason (parse "WDSR-b #inline")) "inline comment");
  check_bool "trailing garbage rejected" true
    (contains (reason (parse "m fw sel junk")) "trailing garbage");
  check_bool "garbage tail named" true
    (contains (reason (parse "m fw sel junk more")) "junk more")

(* The positionless device= field: parsed anywhere on the line, stored
   under the device's canonical name, rejected with the offending line
   when unknown or duplicated. *)
let test_parse_device_field () =
  (match parse "WDSR-b device=hexagon-g2" with
  | Ok (Some r) -> Alcotest.(check string) "device parsed" "hexagon-g2" r.Serve.device
  | _ -> Alcotest.fail "device= line did not parse");
  (match parse "WDSR-b device=hexagon-g2 tflite local" with
  | Ok (Some r) ->
    Alcotest.(check string) "device is positionless" "hexagon-g2" r.Serve.device;
    Alcotest.(check string) "framework still positional" "tflite" r.Serve.framework;
    Alcotest.(check string) "selection still positional" "local" r.Serve.selection
  | _ -> Alcotest.fail "mid-line device= did not parse");
  (match parse "WDSR-b" with
  | Ok (Some r) -> Alcotest.(check string) "default device" "hexagon698" r.Serve.device
  | _ -> Alcotest.fail "defaulted line did not parse");
  (match parse "WDSR-b device=HEXAGON698" with
  | Ok (Some r) ->
    Alcotest.(check string) "mixed case canonicalized" "hexagon698" r.Serve.device
  | _ -> Alcotest.fail "mixed-case device= line did not parse");
  check_bool "unknown device rejected" true
    (contains (reason (parse "m device=hexagon9000")) "unknown device");
  check_bool "known names listed" true
    (contains (reason (parse "m device=hexagon9000")) "hexagon698");
  check_bool "duplicate device rejected" true
    (contains (reason (parse "m device=hexagon698 device=hexagon-g2")) "duplicate");
  (match parse ~line:7 "m device=nope" with
  | Error e -> check_int "error carries the line" 7 e.Serve.line
  | Ok _ -> Alcotest.fail "unknown device parsed")

(* The positionless seq= field: same contract as device= — parsed
   anywhere on the line, rejected with its line number when malformed,
   duplicated, or non-positive. *)
let test_parse_seq_field () =
  (match parse "tiny seq=100" with
  | Ok (Some r) ->
    check_bool "seq parsed" true (r.Serve.seq = Some 100)
  | _ -> Alcotest.fail "seq= line did not parse");
  (match parse "tiny seq=100 tflite local" with
  | Ok (Some r) ->
    check_bool "seq is positionless" true (r.Serve.seq = Some 100);
    Alcotest.(check string) "framework still positional" "tflite" r.Serve.framework;
    Alcotest.(check string) "selection still positional" "local" r.Serve.selection
  | _ -> Alcotest.fail "mid-line seq= did not parse");
  (match parse "tiny" with
  | Ok (Some r) -> check_bool "no seq by default" true (r.Serve.seq = None)
  | _ -> Alcotest.fail "defaulted line did not parse");
  check_bool "zero seq rejected" true
    (contains (reason (parse "m seq=0")) "invalid seq= field");
  check_bool "negative seq rejected" true
    (contains (reason (parse "m seq=-5")) "invalid seq= field");
  check_bool "non-integer seq rejected" true
    (contains (reason (parse "m seq=long")) "invalid seq= field");
  check_bool "duplicate seq rejected" true
    (contains (reason (parse "m seq=64 seq=128")) "duplicate");
  (match parse ~line:9 "m seq=0" with
  | Error e -> check_int "error carries the line" 9 e.Serve.line
  | Ok _ -> Alcotest.fail "non-positive seq parsed")

let test_seq_bucket () =
  check_int "floor is 16" 16 (Serve.seq_bucket 1);
  check_int "power of two is its own bucket" 16 (Serve.seq_bucket 16);
  check_int "just past a power rounds up" 32 (Serve.seq_bucket 17);
  check_int "100 buckets to 128" 128 (Serve.seq_bucket 100);
  check_int "256 buckets to 256" 256 (Serve.seq_bucket 256);
  check_int "257 buckets to 512" 512 (Serve.seq_bucket 257)

let test_parse_lines_numbers () =
  let requests, errors =
    Serve.parse_lines ~framework:"gcd2" ~selection:"13"
      [ "tiny"; "bad #x"; ""; "# comment"; "a b c d"; "tiny2 tflite" ]
  in
  check_int "two requests" 2 (List.length requests);
  check_int "two malformed lines" 2 (List.length errors);
  (match requests with
  | [ a; b ] ->
    check_int "first request line" 1 a.Serve.line;
    check_int "second request line" 6 b.Serve.line
  | _ -> Alcotest.fail "unexpected request list");
  (match errors with
  | [ e1; e2 ] ->
    check_int "first error line" 2 e1.Serve.line;
    check_int "second error line" 5 e2.Serve.line
  | _ -> Alcotest.fail "unexpected error list");
  let _, shifted =
    Serve.parse_lines ~framework:"gcd2" ~selection:"13" ~first_line:10 [ "x y z w" ]
  in
  check_int "first_line offsets the numbering" 10
    (match shifted with [ e ] -> e.Serve.line | _ -> -1)

(* ------------------------------------------------------------------ *)
(* Config resolution *)

let test_config_of () =
  (match Serve.config_of ~framework:"tflite" ~selection:"local" () with
  | Ok c -> check_bool "local selection" true (c.Compiler.selection = Compiler.Local)
  | Error d -> Alcotest.failf "tflite/local rejected: %a" Diag.pp d);
  (match Serve.config_of ~framework:"gcd2" ~selection:"4" () with
  | Ok c ->
    check_bool "partitioned selection" true
      (c.Compiler.selection = Compiler.Partitioned 4)
  | Error d -> Alcotest.failf "gcd2/4 rejected: %a" Diag.pp d);
  (match Serve.config_of ~device:"hexagon-g2" ~framework:"gcd2" ~selection:"13" () with
  | Ok c ->
    Alcotest.(check string)
      "device applied to the configuration" "hexagon-g2"
      (Compiler.device c).Gcd2_devices.Desc.name
  | Error d -> Alcotest.failf "gcd2 on hexagon-g2 rejected: %a" Diag.pp d);
  let rejected ?device ~framework ~selection () =
    match Serve.config_of ?device ~framework ~selection () with
    | Error d -> check_bool "invalid-request" true (d.Diag.code = Diag.Invalid_request)
    | Ok _ -> Alcotest.failf "%s/%s accepted" framework selection
  in
  rejected ~framework:"caffe" ~selection:"13" ();
  rejected ~framework:"gcd2" ~selection:"0" ();
  rejected ~framework:"gcd2" ~selection:"-3" ();
  rejected ~framework:"gcd2" ~selection:"banana" ();
  rejected ~device:"hexagon9000" ~framework:"gcd2" ~selection:"13" ()

(* ------------------------------------------------------------------ *)
(* Serving *)

(* Any per-request failure must come back as a typed outcome, never an
   exception out of the loop. *)
let test_unknown_model_is_failed_outcome () =
  let r =
    Serve.serve_one ~resolve:resolve_tiny (policy ()) ~cold:true
      (Serve.request "no-such-model")
  in
  check_bool "outcome is error" true (r.Serve.outcome = Serve.Failed);
  (match r.Serve.diag with
  | Some d ->
    check_bool "invalid-request" true (d.Diag.code = Diag.Invalid_request);
    Alcotest.(check (option string)) "model stamped" (Some "no-such-model") d.Diag.model
  | None -> Alcotest.fail "failed outcome has no diagnostic");
  check_bool "no compile attached" true (r.Serve.compiled = None)

let test_batch_cold_warm_and_cache () =
  let dir = temp_dir () in
  let reqs = [ Serve.request "tiny"; Serve.request "tiny"; Serve.request "tiny2" ] in
  let results, report =
    Serve.run_batch ~resolve:resolve_tiny (policy ~cache_dir:dir ()) reqs
  in
  (match results with
  | [ a; b; c ] ->
    check_bool "first tiny is cold" true a.Serve.cold;
    check_bool "repeat tiny is warm" false b.Serve.cold;
    check_bool "repeat tiny hits the cache" true b.Serve.hit;
    check_bool "tiny2 is cold" true c.Serve.cold;
    (match (a.Serve.compiled, b.Serve.compiled) with
    | Some ca, Some cb ->
      Alcotest.(check (array int))
        "hit serves the stored assignment" ca.Compiler.assignment
        cb.Compiler.assignment;
      Alcotest.(check (float 0.0))
        "hit serves the stored latency" (Compiler.latency_ms ca)
        (Compiler.latency_ms cb)
    | _ -> Alcotest.fail "served request lost its compile")
  | _ -> Alcotest.fail "unexpected result list");
  check_int "all ok" 3 report.Serve.ok;
  check_int "no errors" 0 report.Serve.errors;
  check_int "one hit" 1 report.Serve.hits;
  check_int "two cold latencies" 2 (List.length report.Serve.cold_ms);
  check_int "one warm latency" 1 (List.length report.Serve.warm_ms)

(* A sequence-parametric test model: the graph's shape depends only on
   the bucket, like the zoo's transformer builders. *)
let tiny_seq bucket =
  let rng = Rng.create 11 in
  let b = B.create () in
  let x = B.input b [| 1; bucket; 4; 4 |] in
  let w1 = T.random ~quant:weight_q rng [| 3; 3; 4; 4 |] in
  let c1 = B.conv2d ~weight:w1 b x ~kh:3 ~kw:3 ~stride:1 ~pad:1 ~cout:4 in
  let _ = B.add b Op.Relu [ c1 ] in
  B.finish b

let resolve_seq ?seq = function
  | "seqy" ->
    tiny_seq (match seq with Some s -> Serve.seq_bucket s | None -> 16)
  | m -> invalid_arg ("unknown test model " ^ m)

(* The tentpole cache property: a never-exactly-compiled sequence length
   is served warm from the artifact compiled for another length in the
   same bucket; a length in a different bucket compiles cold. *)
let test_batch_same_bucket_is_warm () =
  let dir = temp_dir () in
  let reqs =
    [
      Serve.request ~seq:100 "seqy";
      Serve.request ~seq:120 "seqy";
      Serve.request ~seq:200 "seqy";
    ]
  in
  let results, report =
    Serve.run_batch ~resolve:resolve_seq (policy ~cache_dir:dir ()) reqs
  in
  (match results with
  | [ a; b; c ] ->
    check_bool "seq=100 is cold" true a.Serve.cold;
    check_bool "seq=120 shares seq=100's bucket: warm" false b.Serve.cold;
    check_bool "seq=120 hits the cache" true b.Serve.hit;
    check_bool "seq=200 is another bucket: cold" true c.Serve.cold;
    (match (a.Serve.compiled, b.Serve.compiled) with
    | Some ca, Some cb ->
      Alcotest.(check (array int))
        "bucket hit serves the stored assignment" ca.Compiler.assignment
        cb.Compiler.assignment
    | _ -> Alcotest.fail "served request lost its compile")
  | _ -> Alcotest.fail "unexpected result list");
  check_int "all ok" 3 report.Serve.ok;
  check_int "one bucket hit" 1 report.Serve.hits;
  check_int "two cold latencies" 2 (List.length report.Serve.cold_ms)

(* An already-expired deadline is a [timeout] outcome: permanent, not
   retried, and excluded from the latency populations. *)
let test_deadline_timeout () =
  let r =
    Serve.serve_one ~resolve:resolve_tiny
      (policy ~deadline_ms:0.0 ~retries:5 ())
      ~cold:true (Serve.request "tiny")
  in
  check_bool "outcome is timeout" true (r.Serve.outcome = Serve.Timed_out);
  check_int "deadline failures are not retried" 1 r.Serve.attempts;
  match r.Serve.diag with
  | Some d -> check_bool "deadline-exceeded" true (d.Diag.code = Diag.Deadline_exceeded)
  | None -> Alcotest.fail "timeout without diagnostic"

let test_report_excludes_failures () =
  let reqs =
    [ Serve.request "tiny"; Serve.request "absent"; Serve.request "tiny" ]
  in
  let _, report = Serve.run_batch ~resolve:resolve_tiny (policy ()) reqs in
  check_int "three requests" 3 report.Serve.requests;
  check_int "two served" 2 report.Serve.ok;
  check_int "one error" 1 report.Serve.errors;
  check_int "failed request not in the cold population" 1
    (List.length report.Serve.cold_ms);
  check_int "failed request not in the warm population" 1
    (List.length report.Serve.warm_ms)

(* A retried request re-checks the stored artifact.  By then a
   concurrent worker may have quarantined the entry (or the janitor
   evicted it): nothing is left to check against, so the compile is
   served, not failed as a mismatch. *)
let test_retry_with_vanished_entry_is_served () =
  let dir = temp_dir () in
  let calls = ref 0 in
  let compile ~config ~cache_dir ~jobs ~deadline_ms g =
    incr calls;
    if !calls = 1 then Error (Diag.make Diag.Cache_io "transient cache failure")
    else begin
      let r = Serve.default_compile ~config ~cache_dir ~jobs ~deadline_ms g in
      let entry = Gcd2_store.Cache.entry_path dir (Compiler.fingerprint config g) in
      Sys.rename entry (Gcd2_store.Cache.quarantine_path entry);
      r
    end
  in
  let r =
    Serve.serve_one ~resolve:resolve_tiny ~compile (policy ~cache_dir:dir ())
      ~cold:true (Serve.request "tiny")
  in
  (match r.Serve.diag with
  | Some d -> Alcotest.failf "request failed: %a" Diag.pp d
  | None -> ());
  check_bool "outcome is retried" true (r.Serve.outcome = Serve.Retried);
  check_int "two attempts" 2 r.Serve.attempts

let tests =
  [
    Alcotest.test_case "parse: well-formed lines" `Quick test_parse_ok;
    Alcotest.test_case "parse: malformed lines are errors" `Quick test_parse_rejects;
    Alcotest.test_case "parse: device= field" `Quick test_parse_device_field;
    Alcotest.test_case "parse: seq= field" `Quick test_parse_seq_field;
    Alcotest.test_case "seq buckets" `Quick test_seq_bucket;
    Alcotest.test_case "parse: errors carry line numbers" `Quick test_parse_lines_numbers;
    Alcotest.test_case "config resolution" `Quick test_config_of;
    Alcotest.test_case "unknown model is a typed outcome" `Quick
      test_unknown_model_is_failed_outcome;
    Alcotest.test_case "batch: cold/warm and cache hits" `Quick
      test_batch_cold_warm_and_cache;
    Alcotest.test_case "batch: same bucket is a warm hit" `Quick
      test_batch_same_bucket_is_warm;
    Alcotest.test_case "expired deadline is a timeout" `Quick test_deadline_timeout;
    Alcotest.test_case "report excludes failed requests" `Quick
      test_report_excludes_failures;
    Alcotest.test_case "retry with a vanished entry is served" `Quick
      test_retry_with_vanished_entry_is_served;
  ]
