(* Tests for the tiled-kernel autotuner: the candidate space only
   contains specs the generators accept (and they really generate,
   bit-exactly), tuning never loses to the adaptive heuristic, and a
   tuned compile changes only the schedule — VM outputs stay
   bit-identical while the request fingerprint (and hence the cache
   entry) moves. *)

module Simd = Gcd2_codegen.Simd
module Matmul = Gcd2_codegen.Matmul
module Unroll = Gcd2_codegen.Unroll
module Tile = Gcd2_codegen.Tile
module Autotune = Gcd2_codegen.Autotune
module Testbench = Gcd2_codegen.Testbench
module Interp = Gcd2_kernels.Interp
module Packer = Gcd2_sched.Packer
module Desc = Gcd2_devices.Desc
module Streams = Gcd2_cost.Streams
module Opcost = Gcd2_cost.Opcost
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Artifact = Gcd2_store.Artifact
module Trace = Gcd2_util.Trace
module Rng = Gcd2_util.Rng
module Sat = Gcd2_util.Saturate
module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
open Gcd2_graph
module B = Graph.Builder

let mult, shift = Sat.quantize_multiplier 0.05

let base_spec simd ~m ~k ~n =
  let un = max 2 (Gcd2_tensor.Layout.column_group (Simd.layout simd)) in
  {
    Matmul.device = Desc.hexagon698;
    simd;
    m;
    k;
    n;
    mult;
    shift;
    act_table = None;
    strategy = Packer.sda;
    un;
    ug = 1;
    abuf = 2;
    wbuf = 2;
    addressing = Matmul.Bump;
  }

let with_setting (s : Matmul.spec) (u : Unroll.setting) =
  { s with Matmul.un = u.Unroll.un; ug = u.Unroll.ug; abuf = u.Unroll.abuf; wbuf = u.Unroll.wbuf }

let simd_of_int i = List.nth Simd.all (i mod 3)

(* ------------------------------------------------------------------ *)
(* The candidate space *)

(* Every candidate Tile.space enumerates must pass the generator's own
   validation and the register/VTCM feasibility checks — the tuner
   costs them without re-checking. *)
let qcheck_space_feasible =
  QCheck.Test.make ~name:"every space candidate is feasible" ~count:40
    QCheck.(quad (int_range 1 150) (int_range 1 64) (int_range 1 24) (int_range 0 2))
    (fun (m, k, n, simd_i) ->
      let base = base_spec (simd_of_int simd_i) ~m ~k ~n in
      let space = Tile.space base in
      space <> []
      && List.for_all (fun u -> Tile.feasible (with_setting base u)) space)

(* A sample of candidates per random shape must actually generate, and
   generate bit-exact kernels — feasibility is not just a predicate,
   it is a promise the generators keep. *)
let qcheck_space_generates =
  QCheck.Test.make ~name:"space candidates generate bit-exact kernels" ~count:12
    QCheck.(quad (int_range 1 70) (int_range 1 32) (int_range 1 10) (int_range 0 2))
    (fun (m, k, n, simd_i) ->
      let base = base_spec (simd_of_int simd_i) ~m ~k ~n in
      let space = Tile.space base in
      (* sample: spread across the enumeration order, capped for time *)
      let sample =
        List.filteri (fun i _ -> i mod max 1 (List.length space / 5) = 0) space
      in
      let rng = Rng.create (m + (k * 131) + n) in
      let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
      let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
      let want = Interp.matmul_i8 ~m ~k ~n a w ~mult ~shift in
      List.for_all
        (fun u ->
          let got = Testbench.run (with_setting base u) ~a ~w in
          got.Testbench.data = want)
        sample)

(* ------------------------------------------------------------------ *)
(* Tuning vs the heuristic *)

let qcheck_tuned_never_worse =
  QCheck.Test.make ~name:"tuned cycles <= adaptive heuristic cycles" ~count:25
    QCheck.(quad (int_range 1 150) (int_range 1 64) (int_range 1 24) (int_range 0 2))
    (fun (m, k, n, simd_i) ->
      let simd = simd_of_int simd_i in
      let base = base_spec simd ~m ~k ~n in
      let heuristic = with_setting base (Unroll.adaptive simd ~m ~k ~n) in
      let tuned = with_setting base (Autotune.tune Autotune.default base) in
      Matmul.cycles tuned <= Matmul.cycles heuristic)

let test_tune_verified_winner () =
  (* the verify path runs the winner against the heuristic kernel on
     the VM; the result must still never lose to the heuristic *)
  List.iter
    (fun simd ->
      let base = base_spec simd ~m:64 ~k:32 ~n:12 in
      let heuristic = with_setting base (Unroll.adaptive simd ~m:64 ~k:32 ~n:12) in
      let tuned =
        with_setting base (Autotune.tune { Autotune.budget = 8; verify = true } base)
      in
      Alcotest.(check bool)
        (Simd.name simd ^ " verified tuned <= heuristic")
        true
        (Matmul.cycles tuned <= Matmul.cycles heuristic))
    Simd.all

(* The simulator executes hexagon698 only: a kernel packed for a wider
   device must be refused by name, not run with the wrong vector width
   (which returns different data, or faults out of bounds). *)
let test_testbench_refuses_unexecutable_device () =
  let m, k, n = (64, 32, 8) in
  let spec = base_spec Simd.I_vrmpy ~m ~k ~n in
  let rng = Rng.create 7 in
  let a = Array.init (m * k) (fun _ -> Rng.int8 rng) in
  let w = Array.init (k * n) (fun _ -> Rng.int8 rng) in
  Alcotest.(check (array int))
    "hexagon698 runs" (Interp.matmul_i8 ~m ~k ~n a w ~mult ~shift)
    (Testbench.run spec ~a ~w).Testbench.data;
  match Testbench.kernel { spec with Matmul.device = Desc.hexagon_g2 } with
  | exception Invalid_argument msg ->
    let names = List.mem "hexagon-g2" (String.split_on_char ' ' msg) in
    Alcotest.(check bool) ("message names the device: " ^ msg) true names
  | _ -> Alcotest.fail "a hexagon-g2 kernel ran on the hexagon698 simulator"

(* ------------------------------------------------------------------ *)
(* The tune spec grammar *)

let test_spec_grammar () =
  let ok s = match Autotune.of_string s with Ok c -> c | Error e -> Alcotest.fail e in
  Alcotest.(check int) "budget" 32 (ok "32").Autotune.budget;
  Alcotest.(check bool) "no verify" false (ok "32").Autotune.verify;
  Alcotest.(check int) "on = default budget" Autotune.default_budget (ok "on").Autotune.budget;
  Alcotest.(check bool) "verify alone" true (ok "verify").Autotune.verify;
  Alcotest.(check int) "verify alone keeps default budget" Autotune.default_budget
    (ok "verify").Autotune.budget;
  Alcotest.(check bool) "budget+verify" true (ok "16+verify").Autotune.verify;
  Alcotest.(check int) "budget+verify budget" 16 (ok "16+verify").Autotune.budget;
  (* to_string/of_string round-trip *)
  List.iter
    (fun c ->
      match Autotune.of_string (Autotune.to_string c) with
      | Ok c' -> Alcotest.(check bool) "round-trip" true (c = c')
      | Error e -> Alcotest.fail e)
    [
      Autotune.default;
      { Autotune.budget = 1; verify = false };
      { Autotune.budget = 100; verify = true };
    ];
  List.iter
    (fun bad ->
      match Autotune.of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "0"; "-4"; "x"; "8+bogus"; "8+verify+verify"; "off" ]

(* ------------------------------------------------------------------ *)
(* Whole-compiler behaviour *)

let weight_q = Q.make (1.0 /. 64.0)

(* Convs, a residual add, a matmul head: enough multiply nodes for the
   tuner to bite, small enough to run on the VM. *)
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

let tuned_config ?(budget = 16) () =
  {
    Compiler.default with
    Compiler.opcost =
      {
        Compiler.default.Compiler.opcost with
        Opcost.tune = Some { Autotune.budget; verify = false };
      };
  }

let test_tuned_compile_outputs_identical () =
  let g = weighted_cnn 5 in
  let plain = Compiler.compile g in
  let tuned = Compiler.compile ~config:(tuned_config ()) g in
  Alcotest.(check bool) "tuned modeled cycles <= heuristic" true
    (tuned.Compiler.report.Gcd2_cost.Graphcost.cycles
    <= plain.Compiler.report.Gcd2_cost.Graphcost.cycles);
  (* the tuner moves the schedule, never the math *)
  let rng = Rng.create 11 in
  let input = T.random rng (Graph.node plain.Compiler.graph 0).Graph.out_shape in
  let inputs = [ (0, input) ] in
  let o_plain = Runtime.run plain ~inputs in
  let o_tuned = Runtime.run tuned ~inputs in
  Alcotest.(check int) "same node count" (Array.length o_plain) (Array.length o_tuned);
  Array.iteri
    (fun i t ->
      if not (T.equal_data t o_tuned.(i)) then
        Alcotest.failf "node %d: tuned compile's output differs" i)
    o_plain;
  (* counters: every tuned compile enumerates and costs; costings never
     exceed the enumeration *)
  let counter n = Trace.counter tuned.Compiler.trace n in
  Alcotest.(check bool) "candidates counted" true (counter "tune-candidates" > 0);
  Alcotest.(check bool) "costings counted" true (counter "tune-costed" > 0);
  Alcotest.(check bool) "costed <= candidates" true
    (counter "tune-costed" <= counter "tune-candidates")

let test_tuned_fingerprint_distinct () =
  let g = weighted_cnn 5 in
  let plain = Compiler.fingerprint Compiler.default g in
  let tuned = Compiler.fingerprint (tuned_config ()) g in
  Alcotest.(check bool) "tuned digest differs" false (plain = tuned);
  Alcotest.(check bool) "budget is part of the digest" false
    (tuned = Compiler.fingerprint (tuned_config ~budget:32 ()) g);
  let costed_uv =
    {
      Compiler.default with
      Compiler.opcost =
        { Compiler.default.Compiler.opcost with Opcost.eltwise_uv = `Costed };
    }
  in
  Alcotest.(check bool) "eltwise uv policy is part of the digest" false
    (plain = Compiler.fingerprint costed_uv g)

let temp_dir () =
  let f = Filename.temp_file "gcd2-tune-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_tuned_artifact_round_trip () =
  let dir = temp_dir () in
  let g = weighted_cnn 5 in
  let config = tuned_config () in
  let cold = Compiler.compile ~cache_dir:dir ~config g in
  let entry =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".gcd2art")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one cache entry, found %d" (List.length fs)
  in
  (* the stored tuned artifact re-serializes bit-identically *)
  (match Artifact.load ~path:entry () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (art, _bytes_read) ->
    Alcotest.(check bool) "store round-trip is bit-identical" true
      (Bytes.to_string (Artifact.to_bytes art) = read_file entry));
  (* and the warm compile serves the tuned schedule from the cache *)
  let warm = Compiler.compile ~cache_dir:dir ~config g in
  Alcotest.(check bool) "warm tuned compile is a hit" true (Compiler.from_cache warm);
  Alcotest.(check (array int)) "warm assignment unchanged" cold.Compiler.assignment
    warm.Compiler.assignment;
  Alcotest.(check (float 0.0)) "warm latency unchanged" (Compiler.latency_ms cold)
    (Compiler.latency_ms warm)

(* ------------------------------------------------------------------ *)
(* The eltwise unroll knob *)

let test_eltwise_uv_choice () =
  let device = Desc.hexagon698 and strategy = Packer.sda in
  Alcotest.(check int) "fixed resolves to itself" 3
    (Streams.unary_uv ~uv:(`Fixed 3) ~device ~strategy ~vectors:64 ());
  let costed = Streams.unary_uv ~uv:`Costed ~device ~strategy ~vectors:64 () in
  Alcotest.(check bool) "costed uv is a candidate" true
    (List.mem costed Streams.uv_candidates);
  let at uv = Streams.unary_cycles ~uv:(`Fixed uv) ~device ~strategy ~vectors:64 in
  List.iter
    (fun uv ->
      Alcotest.(check bool)
        (Printf.sprintf "costed beats uv=%d" uv)
        true
        (at costed <= at uv))
    Streams.uv_candidates;
  (* the costed binary choice also never loses to the pinned default *)
  let b uv =
    Streams.binary_cycles ~uv ~device ~strategy ~op:Gcd2_codegen.Eltwise.Badd ~vectors:64
  in
  Alcotest.(check bool) "costed binary <= pinned binary" true (b `Costed <= b (`Fixed 2))

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_space_feasible;
    QCheck_alcotest.to_alcotest qcheck_space_generates;
    QCheck_alcotest.to_alcotest qcheck_tuned_never_worse;
    Alcotest.test_case "verify path never loses to heuristic" `Quick
      test_tune_verified_winner;
    Alcotest.test_case "testbench refuses a device it cannot run" `Quick
      test_testbench_refuses_unexecutable_device;
    Alcotest.test_case "tune spec grammar" `Quick test_spec_grammar;
    Alcotest.test_case "tuned compile: identical outputs, counters" `Quick
      test_tuned_compile_outputs_identical;
    Alcotest.test_case "tuned fingerprint distinct" `Quick test_tuned_fingerprint_distinct;
    Alcotest.test_case "tuned artifact round-trips the store" `Quick
      test_tuned_artifact_round_trip;
    Alcotest.test_case "eltwise uv knob" `Quick test_eltwise_uv_choice;
  ]
