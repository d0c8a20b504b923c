(* Tests for the compiled-artifact store: request fingerprints,
   save/load round-trips that are bit-identical, cache hits that are
   indistinguishable from the cold compile that stored them (down to
   Runtime outputs), and corrupt entries degrading to misses. *)

module T = Gcd2_tensor.Tensor
module Q = Gcd2_tensor.Quant
module Rng = Gcd2_util.Rng
module Trace = Gcd2_util.Trace
module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Artifact = Gcd2_store.Artifact
module Zoo = Gcd2_models.Zoo

let desc = Gcd2_devices.Desc.hexagon698
open Gcd2_graph
module B = Graph.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir () =
  let f = Filename.temp_file "gcd2-store-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let weight_q = Q.make (1.0 /. 64.0)

(* Same shape of graph as the core suite: convs, a residual add, a
   matmul head — enough to exercise SIMD plans and packed programs. *)
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

let only_entry dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
  with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected exactly one cache entry, found %d" (List.length fs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let test_fingerprint () =
  let d cfg g = Compiler.fingerprint cfg g in
  let default = Compiler.default in
  let digest = d default (weighted_cnn 1) in
  check_int "32 hex chars" 32 (String.length digest);
  String.iter
    (fun ch ->
      if not ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) then
        Alcotest.failf "non-hex digest char %c" ch)
    digest;
  Alcotest.(check string) "deterministic" digest (d default (weighted_cnn 1));
  Alcotest.(check bool) "weights change the digest" false
    (digest = d default (weighted_cnn 2));
  let local = { default with Compiler.selection = Compiler.Local } in
  Alcotest.(check bool) "selection changes the digest" false
    (digest = d local (weighted_cnn 1));
  let noopt = { default with Compiler.optimize_graph = false } in
  Alcotest.(check bool) "optimize_graph changes the digest" false
    (digest = d noopt (weighted_cnn 1));
  let renamed = { default with Compiler.name = "renamed" } in
  Alcotest.(check string) "cosmetic name is excluded" digest (d renamed (weighted_cnn 1))

(* Two devices must never answer each other's requests: the full
   descriptor is folded into the fingerprint, so per-device configs get
   distinct digests and distinct cache entries. *)
let test_fingerprint_separates_devices () =
  let with_dev d = Compiler.with_device d Compiler.default in
  let g = weighted_cnn 1 in
  let d698 = Compiler.fingerprint (with_dev Gcd2_devices.Desc.hexagon698) g in
  let dg2 = Compiler.fingerprint (with_dev Gcd2_devices.Desc.hexagon_g2) g in
  Alcotest.(check bool) "per-device digests differ" false (d698 = dg2);
  (* a retuned descriptor under the same name is still a different
     request: the rendering covers every field, not just the name *)
  let tuned =
    { Gcd2_devices.Desc.hexagon698 with Gcd2_devices.Desc.ddr_bytes_per_cycle = 2.0 }
  in
  Alcotest.(check bool) "same-name retuned descriptor differs" false
    (d698 = Compiler.fingerprint (with_dev tuned) g);
  (* end to end: compiling the same graph for both devices through one
     cache directory must store two entries, and each warm compile must
     hit its own device's entry *)
  let dir = temp_dir () in
  let c698 = Compiler.compile ~cache_dir:dir ~config:(with_dev Gcd2_devices.Desc.hexagon698) g in
  let cg2 = Compiler.compile ~cache_dir:dir ~config:(with_dev Gcd2_devices.Desc.hexagon_g2) g in
  check_int "two cache entries" 2
    (Array.length
       (Array.of_list
          (List.filter
             (fun f -> Filename.check_suffix f ".gcd2art")
             (Array.to_list (Sys.readdir dir)))));
  let w698 = Compiler.compile ~cache_dir:dir ~config:(with_dev Gcd2_devices.Desc.hexagon698) g in
  let wg2 = Compiler.compile ~cache_dir:dir ~config:(with_dev Gcd2_devices.Desc.hexagon_g2) g in
  Alcotest.(check bool) "warm 698 compile is a hit" true (Compiler.from_cache w698);
  Alcotest.(check bool) "warm g2 compile is a hit" true (Compiler.from_cache wg2);
  Alcotest.(check (array int))
    "warm 698 assignment unchanged" c698.Compiler.assignment w698.Compiler.assignment;
  Alcotest.(check (array int))
    "warm g2 assignment unchanged" cg2.Compiler.assignment wg2.Compiler.assignment;
  Alcotest.(check bool) "the two devices compiled differently" false
    (c698.Compiler.report.Gcd2_cost.Graphcost.cycles
    = cg2.Compiler.report.Gcd2_cost.Graphcost.cycles)

(* The digest must separate everything that changes the compile: the
   disabled-pass list, and `supported` predicates that only differ on ops
   the optimizer derives (the bitmap is rendered over the optimized
   graph, the op universe selection actually sees). *)
let test_fingerprint_disable_and_derived_ops () =
  let default = Compiler.default in
  let digest = Compiler.fingerprint default (weighted_cnn 1) in
  Alcotest.(check bool) "disabling a pass changes the digest" false
    (digest
    = Compiler.fingerprint ~disable:[ "fuse-activations" ] default (weighted_cnn 1));
  Alcotest.(check string) "the disable list is order/duplicate-insensitive"
    (Compiler.fingerprint ~disable:[ "fuse-activations"; "report" ] default
       (weighted_cnn 1))
    (Compiler.fingerprint
       ~disable:[ "report"; "fuse-activations"; "report" ]
       default (weighted_cnn 1));
  (* rejects fused convolutions only — agrees with the default predicate
     on every op of the *input* graph, where convs still carry no act *)
  let reject_fused =
    {
      default with
      Compiler.opcost =
        {
          default.Compiler.opcost with
          Gcd2_cost.Opcost.supported =
            (fun op ->
              match op with Op.Conv2d { act = Some _; _ } -> false | _ -> true);
        };
    }
  in
  Alcotest.(check bool) "supported differing only on fused ops changes the digest" false
    (digest = Compiler.fingerprint reject_fused (weighted_cnn 1))

(* Every cache entry is keyed by its request digest, so a change to the
   rendering re-keys the whole store.  Pin the digests of one zoo model
   under each live unroll mode ([`Adaptive], [`Out 2], [`None]) and on
   the second device, so that such a change fails here rather than
   passing silently; a deliberate one also bumps the request version. *)
let test_fingerprint_pinned () =
  let g = Zoo.build "MobileNet-V3" in
  List.iter
    (fun (what, config, digest) ->
      Alcotest.(check string) what digest (Compiler.fingerprint config g))
    [
      ("default", Compiler.default, "5ed6b67b4d51f6a72bc2235f26afc5ed");
      ("tflite", Gcd2_frameworks.Framework.tflite, "9fd3579e7134b5d8bb2b1a1fa068bc6c");
      ("no_opt", Gcd2_frameworks.Framework.no_opt, "30f36b75cd0bba19716eaa5740fbdedf");
      ( "hexagon-g2",
        Compiler.with_device Gcd2_devices.Desc.hexagon_g2 Compiler.default,
        "00647be2091376d860434486fcd04ea0" );
    ]

(* ------------------------------------------------------------------ *)
(* Serialization round-trip *)

let test_roundtrip_bytes () =
  let dir = temp_dir () in
  let c = Compiler.compile ~cache_dir:dir (weighted_cnn 3) in
  Alcotest.(check bool) "cold compile is not from cache" false (Compiler.from_cache c);
  let path = only_entry dir in
  let raw = read_file path in
  let art, bytes_read =
    match Artifact.load ~path () with
    | Ok v -> v
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  check_int "load reports the file size" (String.length raw) bytes_read;
  Alcotest.(check string) "entry is named by its digest"
    (Filename.basename path)
    (art.Artifact.digest ^ ".gcd2art");
  Alcotest.(check string) "digest matches the request"
    (Compiler.fingerprint c.Compiler.config (weighted_cnn 3))
    art.Artifact.digest;
  Alcotest.(check (array int)) "stored assignment matches the compile"
    c.Compiler.assignment art.Artifact.assignment;
  Alcotest.(check bool) "some packed programs are stored" true
    (Array.exists Option.is_some (Lazy.force art.Artifact.programs));
  Alcotest.(check string) "save -> load -> to_bytes is bit-identical"
    (Stdlib.Digest.to_hex (Stdlib.Digest.string raw))
    (Stdlib.Digest.to_hex (Stdlib.Digest.bytes (Artifact.to_bytes art)))

(* Nodes with equal kernel specs share one stored program, and the
   encoded artifact is the same bytes whatever the kernel memo holds:
   warm, emptied, or losing every lookup. *)
let test_artifact_stores_each_kernel_once () =
  let module Opcost = Gcd2_cost.Opcost in
  let module Fault = Gcd2_util.Fault in
  let dir = temp_dir () in
  let c = Compiler.compile ~cache_dir:dir (Zoo.build ~seq:16 "TinyBERT") in
  let path = only_entry dir in
  let art =
    match Artifact.load ~path () with Ok (a, _) -> a | Error e -> Alcotest.failf "load: %s" e
  in
  let options = c.Compiler.config.Compiler.opcost in
  let g = art.Artifact.graph in
  let programs = Lazy.force art.Artifact.programs in
  let specs =
    Array.init (Graph.size g) (fun v ->
        Opcost.plan_spec options g (Graph.node g v)
          art.Artifact.plans.(v).(art.Artifact.assignment.(v)))
  in
  let shared = ref 0 in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j && si <> None && si = sj then begin
            incr shared;
            check_bool "equal specs hold one program" true
              (Option.get programs.(i) == Option.get programs.(j))
          end)
        specs)
    specs;
  check_bool "some nodes share a kernel" true (!shared > 0);
  let stored = read_file path in
  let encode () =
    Bytes.to_string
      (Artifact.to_bytes
         {
           art with
           Artifact.programs =
             Lazy.from_val
               (Artifact.programs_of ~options g art.Artifact.plans art.Artifact.assignment);
         })
  in
  check_bool "warm memo: same bytes" true (encode () = stored);
  Gcd2_util.Memo.clear_all ();
  check_bool "empty memo: same bytes" true (encode () = stored);
  Fault.with_spec (Fault.parse_exn "seed=1,memo-lookup=1") (fun () ->
      check_bool "every memo lookup missing: same bytes" true (encode () = stored))

(* The program an artifact stores for a SIMD node is the program the
   runtime executes for it, up to what differs by construction: the
   buffer bases ([Smovi] immediates), the requantization ([Vscale]
   multiplier and shift) and the lookup tables.  Both have the kernel
   cycles the cost model charged the node. *)
let test_stored_program_is_executed () =
  let module Opcost = Gcd2_cost.Opcost in
  let module Matmul = Gcd2_codegen.Matmul in
  let module Testbench = Gcd2_codegen.Testbench in
  let module Program = Gcd2_isa.Program in
  let module Instr = Gcd2_isa.Instr in
  let erase (p : Program.t) =
    let instr = function
      | Instr.Smovi (r, _) -> Instr.Smovi (r, 0)
      | Instr.Vscale (d, s, _, _) -> Instr.Vscale (d, s, 0, 0)
      | i -> i
    in
    let rec node = function
      | Program.Block packets -> Program.Block (List.map (List.map instr) packets)
      | Program.Loop { trip; body } -> Program.Loop { trip; body = List.map node body }
    in
    { p with Program.nodes = List.map node p.Program.nodes; tables = [] }
  in
  let hexagon698 = Gcd2_devices.Desc.hexagon698 in
  List.iter
    (fun (name, seq) ->
      Gcd2_util.Memo.clear_all ();
      let dir = temp_dir () in
      let config = Compiler.with_device hexagon698 Compiler.default in
      let c =
        Compiler.compile ~config ~cache_dir:dir
          (Zoo.with_random_weights (Zoo.build ?seq name))
      in
      let art =
        match Artifact.load ~path:(only_entry dir) () with
        | Ok (a, _) -> a
        | Error e -> Alcotest.failf "load: %s" e
      in
      let g = c.Compiler.graph in
      let programs = Lazy.force art.Artifact.programs in
      let rng = Rng.create 5 in
      let inputs =
        Graph.fold
          (fun acc node ->
            match node.Graph.op with
            | Op.Input { shape } -> (node.Graph.id, T.random rng shape) :: acc
            | _ -> acc)
          [] g
      in
      let outs = Runtime.run c ~inputs in
      let checked = ref 0 in
      Graph.iter
        (fun node ->
          let id = node.Graph.id in
          let plan =
            c.Compiler.cost.Gcd2_cost.Graphcost.plans.(id).(c.Compiler.assignment.(id))
          in
          let options = c.Compiler.config.Compiler.opcost in
          match (programs.(id), Opcost.plan_spec options g node plan) with
          | None, None -> ()
          | Some stored, Some spec ->
            (* the runtime's spec, rebuilt as [Runtime] builds it *)
            let quant i = outs.(List.nth node.Graph.inputs i).T.quant in
            let in_b, act =
              match node.Graph.op with
              | Op.Conv2d { act; _ } | Op.Matmul { act; _ } ->
                ((Option.get node.Graph.weight).T.quant, act)
              | _ -> (quant 1, None)
            in
            let mult, shift = Q.requant_multiplier ~in_a:(quant 0) ~in_b ~out:Q.default in
            let tables =
              match act with
              | Some a -> [ (1, Gcd2_kernels.Lut.of_act ~in_q:Q.default ~out_q:Q.default a) ]
              | None -> []
            in
            let runtime_spec = { spec with Matmul.device = hexagon698; mult; shift } in
            let trace = Trace.create "runtime kernel" in
            let executed =
              Trace.with_ambient trace (fun () ->
                  Testbench.program (Testbench.kernel ~tables runtime_spec))
            in
            let what = Printf.sprintf "%s node %d" name id in
            check_int (what ^ ": the runtime built this kernel") 0
              (Trace.counter trace "memo-misses");
            check_bool (what ^ ": stored = executed up to immediates") true
              (erase stored = erase executed);
            let costed = Matmul.cycles spec in
            check_int (what ^ ": stored cycles") costed (Program.static_cycles ~desc stored);
            check_int (what ^ ": executed cycles") costed (Program.static_cycles ~desc executed);
            incr checked
          | _ -> Alcotest.failf "%s node %d: artifact and plan disagree on SIMD" name id)
        g;
      check_bool (name ^ ": some SIMD nodes") true (!checked > 0))
    [ ("MobileNet-V3", None); ("TinyBERT", Some 64) ]

let test_of_bytes_rejects_garbage () =
  let err b = match Artifact.of_bytes b with Ok _ -> "ok" | Error e -> e in
  Alcotest.(check string) "short input" "too short for header"
    (err (Bytes.of_string "short"));
  Alcotest.(check string) "wrong magic" "bad magic"
    (err (Bytes.make Artifact.header_len 'x'))

(* The programs are a payload section of their own, decoded only when
   forced: a load leaves them undecoded, forcing gives exactly what
   [programs_of] builds (equal specs still sharing one program), and
   re-encoding the loaded artifact gives back the file. *)
let test_programs_decode_on_demand () =
  let dir = temp_dir () in
  let c = Compiler.compile ~cache_dir:dir (Zoo.build ~seq:16 "TinyBERT") in
  let path = only_entry dir in
  let art =
    match Artifact.load ~path () with Ok (a, _) -> a | Error e -> Alcotest.failf "load: %s" e
  in
  check_bool "a loaded artifact has not decoded its programs" false
    (Lazy.is_val art.Artifact.programs);
  check_bool "to_bytes of the loaded artifact is the file" true
    (Bytes.to_string (Artifact.to_bytes art) = read_file path);
  let forced = Lazy.force art.Artifact.programs in
  let built =
    Artifact.programs_of ~options:c.Compiler.config.Compiler.opcost art.Artifact.graph
      art.Artifact.plans art.Artifact.assignment
  in
  check_bool "forced programs are the ones programs_of builds" true (forced = built);
  let distinct ps =
    Array.fold_left
      (fun acc p -> match p with Some p when not (List.memq p acc) -> p :: acc | _ -> acc)
      [] ps
    |> List.length
  in
  check_int "decoded programs keep their sharing" (distinct built) (distinct forced)

(* An entry in the previous format — version 2, the programs inside the
   one payload section — fails the version-word check: a miss, never a
   misdecode, and the recompile rewrites it in the current format. *)
let test_old_version_is_rewritten () =
  let dir = temp_dir () in
  let g = weighted_cnn 17 in
  let c1 = Compiler.compile ~cache_dir:dir g in
  let path = only_entry dir in
  let art =
    match Artifact.load ~path () with Ok (a, _) -> a | Error e -> Alcotest.failf "load: %s" e
  in
  let old_layout =
    "graph=Gcd2_graph.Graph.t(Op.t,Tensor.t,Quant.t);plans=Gcd2_cost.Plan.t(Layout.t,Simd.t,\
     Unroll.t{un,ug,abuf,wbuf}) array array;assignment=int array;objective=float;\
     report=Gcd2_cost.Graphcost.report;programs=Gcd2_isa.Program.t(Packet.t,Instr.t) option \
     array;selection_seconds=float"
  in
  let payload =
    Marshal.to_string
      ( art.Artifact.graph,
        art.Artifact.plans,
        art.Artifact.assignment,
        art.Artifact.objective,
        art.Artifact.report,
        Lazy.force art.Artifact.programs,
        (* the old format's stored selection wall time *)
        0.25 )
      []
  in
  let b = Buffer.create (Artifact.header_len + String.length payload) in
  Buffer.add_string b Artifact.magic;
  Buffer.add_string b (String.sub (Stdlib.Digest.string ("2:" ^ old_layout)) 0 4);
  Buffer.add_string b art.Artifact.digest;
  Buffer.add_string b (Stdlib.Digest.string payload);
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  write_file path (Buffer.contents b);
  (match Artifact.load ~path () with
  | Ok _ -> Alcotest.fail "an old-format entry decoded"
  | Error e -> Alcotest.(check string) "old entry rejected" "format version mismatch" e);
  let c2 = Compiler.compile ~cache_dir:dir g in
  check_bool "old entry is a miss" false (Compiler.from_cache c2);
  (match Artifact.load ~path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "old entry not rewritten: %s" e);
  let c3 = Compiler.compile ~cache_dir:dir g in
  check_bool "rewritten entry hits" true (Compiler.from_cache c3);
  Alcotest.(check (float 0.0)) "same latency" (Compiler.latency_ms c1) (Compiler.latency_ms c3)

(* [Compiler.lookup] is the [cache-lookup] pass on its own: a known
   digest answered from the entry with the pass's result and counters,
   and any miss an [Error] counting what it quarantined. *)
let test_digest_lookup () =
  let dir = temp_dir () in
  let g = weighted_cnn 19 in
  let config = Compiler.default in
  let digest = Compiler.fingerprint config g in
  (match Compiler.lookup ~config ~dir digest with
  | Error 0 -> ()
  | _ -> Alcotest.fail "lookup of an absent entry");
  let cold = Compiler.compile ~config ~cache_dir:dir g in
  let warm = Compiler.compile ~config ~cache_dir:dir g in
  (match Compiler.lookup ~config ~dir digest with
  | Ok c ->
    check_bool "from cache" true (Compiler.from_cache c);
    List.iter
      (fun k ->
        check_int k (Trace.counter warm.Compiler.trace k) (Trace.counter c.Compiler.trace k))
      [ "cache-hits"; "cache-bytes"; "cache-misses" ];
    Alcotest.(check (array int)) "assignment" cold.Compiler.assignment c.Compiler.assignment;
    Alcotest.(check (float 0.0)) "latency" (Compiler.latency_ms cold) (Compiler.latency_ms c);
    check_bool "report" true (warm.Compiler.report = c.Compiler.report);
    check_bool "plan tables" true
      (warm.Compiler.cost.Gcd2_cost.Graphcost.plans = c.Compiler.cost.Gcd2_cost.Graphcost.plans);
    check_int "graph" (Graph.size warm.Compiler.graph) (Graph.size c.Compiler.graph);
    check_bool "no graph pass ran" true (Trace.find c.Compiler.trace "fuse-activations" = None)
  | Error _ -> Alcotest.fail "lookup of a stored entry missed");
  let path = only_entry dir in
  write_file path "not an artifact";
  match Compiler.lookup ~config ~dir digest with
  | Error 1 -> check_bool "quarantined aside" true (Sys.file_exists (path ^ ".bad"))
  | _ -> Alcotest.fail "lookup of a corrupt entry"

(* ------------------------------------------------------------------ *)
(* Cache hits are bit-identical to the compile that stored them *)

let test_cache_hit_equivalence () =
  let dir = temp_dir () in
  let c1 = Compiler.compile ~cache_dir:dir (weighted_cnn 5) in
  let c2 = Compiler.compile ~cache_dir:dir (weighted_cnn 5) in
  Alcotest.(check bool) "first compile misses" false (Compiler.from_cache c1);
  Alcotest.(check bool) "second compile hits" true (Compiler.from_cache c2);
  check_int "cold cache-misses" 1 (Trace.counter c1.Compiler.trace "cache-misses");
  check_int "warm cache-hits" 1 (Trace.counter c2.Compiler.trace "cache-hits");
  check_int "warm cache-misses" 0 (Trace.counter c2.Compiler.trace "cache-misses");
  (* the expensive passes never even open a span on a hit *)
  let select =
    List.find
      (fun n -> String.length n > 7 && String.sub n 0 7 = "select:")
      (Compiler.pass_names ~cache_dir:dir c2.Compiler.config)
  in
  Alcotest.(check bool) "build-costs ran cold" true
    (Trace.find c1.Compiler.trace "build-costs" <> None);
  Alcotest.(check bool) "build-costs skipped warm" true
    (Trace.find c2.Compiler.trace "build-costs" = None);
  Alcotest.(check bool) "select skipped warm" true
    (Trace.find c2.Compiler.trace select = None);
  (* identical results, bit for bit *)
  Alcotest.(check (float 0.0)) "latency" (Compiler.latency_ms c1) (Compiler.latency_ms c2);
  Alcotest.(check (float 0.0)) "report cycles" c1.Compiler.report.Compiler.Graphcost.cycles
    c2.Compiler.report.Compiler.Graphcost.cycles;
  Alcotest.(check (array int)) "assignment" c1.Compiler.assignment c2.Compiler.assignment;
  (* and the cached compile runs: outputs match tensor for tensor *)
  let rng = Rng.create 42 in
  let input = T.random rng (Graph.node c1.Compiler.graph 0).Graph.out_shape in
  let inputs = [ (0, input) ] in
  let o1 = Runtime.run c1 ~inputs in
  let o2 = Runtime.run c2 ~inputs in
  check_int "same node count" (Array.length o1) (Array.length o2);
  Array.iteri
    (fun i t1 ->
      if not (T.equal_data t1 o2.(i)) then
        Alcotest.failf "node %d: cached compile's output differs" i)
    o1

(* ------------------------------------------------------------------ *)
(* Corruption: every damaged entry is a miss, never an error *)

let with_mangled_entry name mangle =
  let dir = temp_dir () in
  let c1 = Compiler.compile ~cache_dir:dir (weighted_cnn 7) in
  let path = only_entry dir in
  mangle path (read_file path);
  let c2 = Compiler.compile ~cache_dir:dir (weighted_cnn 7) in
  Alcotest.(check bool) (name ^ ": recompile is a miss") false (Compiler.from_cache c2);
  check_int (name ^ ": counted as a miss") 1
    (Trace.counter c2.Compiler.trace "cache-misses");
  Alcotest.(check (float 0.0))
    (name ^ ": recompile result unchanged")
    (Compiler.latency_ms c1) (Compiler.latency_ms c2);
  (* the recompile stored a fresh entry over the damaged one *)
  match Artifact.load ~path:(only_entry dir) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: entry not repaired after recompile: %s" name e

(* An ablated compile and a full compile of the same graph through the
   same cache must never serve each other's artifacts. *)
let test_disabled_passes_do_not_share_entries () =
  let dir = temp_dir () in
  let g = weighted_cnn 9 in
  let ablated = Compiler.compile ~cache_dir:dir ~disable:[ "fuse-activations" ] g in
  let full = Compiler.compile ~cache_dir:dir g in
  Alcotest.(check bool) "ablated cold compile misses" false (Compiler.from_cache ablated);
  Alcotest.(check bool) "full compile does not hit the ablated entry" false
    (Compiler.from_cache full);
  Alcotest.(check bool) "fusion made the two graphs differ" true
    (Graph.size ablated.Compiler.graph > Graph.size full.Compiler.graph);
  let ablated2 = Compiler.compile ~cache_dir:dir ~disable:[ "fuse-activations" ] g in
  let full2 = Compiler.compile ~cache_dir:dir g in
  Alcotest.(check bool) "ablated warm compile hits" true (Compiler.from_cache ablated2);
  Alcotest.(check bool) "full warm compile hits" true (Compiler.from_cache full2);
  check_int "ablated hit returns the unfused graph"
    (Graph.size ablated.Compiler.graph)
    (Graph.size ablated2.Compiler.graph);
  check_int "full hit returns the fused graph"
    (Graph.size full.Compiler.graph)
    (Graph.size full2.Compiler.graph);
  Alcotest.(check (float 0.0)) "ablated latency preserved"
    (Compiler.latency_ms ablated) (Compiler.latency_ms ablated2);
  Alcotest.(check (float 0.0)) "full latency preserved" (Compiler.latency_ms full)
    (Compiler.latency_ms full2)

(* [jobs] is deliberately excluded from the request fingerprint: the
   worker count of plan enumeration cannot change the artifact, so a
   sequential compile's entry must serve a parallel compile verbatim
   (and vice versa).  Guards against someone "helpfully" adding jobs to
   Fingerprint.request and silently splitting the cache per machine. *)
let test_jobs_share_cache_entries () =
  let dir = temp_dir () in
  let g = weighted_cnn 11 in
  let seq = Compiler.compile ~cache_dir:dir ~jobs:1 g in
  Alcotest.(check bool) "jobs:1 cold compile misses" false (Compiler.from_cache seq);
  let par = Compiler.compile ~cache_dir:dir ~jobs:4 g in
  Alcotest.(check bool) "jobs:4 hits the jobs:1 entry" true (Compiler.from_cache par);
  check_int "still exactly one entry" 1
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
    |> List.length);
  Alcotest.(check (float 0.0))
    "identical latency" (Compiler.latency_ms seq) (Compiler.latency_ms par);
  Alcotest.(check (array int)) "identical assignment" seq.Compiler.assignment
    par.Compiler.assignment

(* Any failure to read an entry must surface as [Error], never as an
   exception: here the entry path is a directory, so the open succeeds
   and the read itself fails. *)
let test_load_never_raises () =
  let dir = temp_dir () in
  (match Artifact.load ~path:dir () with
  | Ok _ -> Alcotest.fail "loading a directory succeeded"
  | Error _ -> ());
  match Artifact.load ~path:(Filename.concat dir "absent.gcd2art") () with
  | Ok _ -> Alcotest.fail "loading a missing file succeeded"
  | Error _ -> ()

let test_corrupt_entries_are_misses () =
  with_mangled_entry "truncated" (fun path raw ->
      write_file path (String.sub raw 0 (String.length raw / 2)));
  with_mangled_entry "bit-flipped payload" (fun path raw ->
      let b = Bytes.of_string raw in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      write_file path (Bytes.to_string b));
  with_mangled_entry "future format version" (fun path raw ->
      let b = Bytes.of_string raw in
      Bytes.set b 11 '\xff';
      write_file path (Bytes.to_string b));
  with_mangled_entry "garbage file" (fun path _ -> write_file path "not an artifact")

(* A damaged entry is quarantined — renamed aside, never deleted — so
   the poisoned bytes survive for post-mortem while the recompile's
   fresh store self-heals the cache. *)
let test_quarantine_self_heals () =
  let dir = temp_dir () in
  let c1 = Compiler.compile ~cache_dir:dir (weighted_cnn 13) in
  let path = only_entry dir in
  write_file path "not an artifact";
  let c2 = Compiler.compile ~cache_dir:dir (weighted_cnn 13) in
  Alcotest.(check bool) "recompile is a miss" false (Compiler.from_cache c2);
  check_int "quarantine counted" 1 (Trace.counter c2.Compiler.trace "cache-quarantined");
  Alcotest.(check string) "poisoned bytes preserved under .bad" "not an artifact"
    (read_file (path ^ ".bad"));
  (match Artifact.load ~path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "entry not self-healed: %s" e);
  let c3 = Compiler.compile ~cache_dir:dir (weighted_cnn 13) in
  Alcotest.(check bool) "healed entry hits" true (Compiler.from_cache c3);
  check_int "clean lookups do not quarantine" 0
    (Trace.counter c3.Compiler.trace "cache-quarantined");
  Alcotest.(check (float 0.0)) "healed entry serves the original bits"
    (Compiler.latency_ms c1) (Compiler.latency_ms c3)

(* [Artifact.save] promises that a failing store never litters the
   cache directory: an injected cache-write fault between the temp-file
   write and the atomic rename must remove the temp file on the way
   out. *)
let test_save_fault_leaves_no_debris () =
  let module Fault = Gcd2_util.Fault in
  let primer = temp_dir () in
  let dir = temp_dir () in
  let _ = Compiler.compile ~cache_dir:primer (weighted_cnn 15) in
  let art =
    match Artifact.load ~path:(only_entry primer) () with
    | Ok (art, _) -> art
    | Error e -> Alcotest.failf "primer artifact unreadable: %s" e
  in
  let path = Filename.concat dir (art.Artifact.digest ^ ".gcd2art") in
  Fault.with_spec (Fault.parse_exn "seed=1,cache-write=1") (fun () ->
      match Artifact.save ~path art with
      | _ -> Alcotest.fail "save under a certain cache-write fault succeeded"
      | exception Fault.Injected { point = "cache-write"; _ } -> ());
  Alcotest.(check (array string)) "failed save left the directory empty" [||]
    (Sys.readdir dir);
  (* the same save succeeds once the fault is gone, bit-identically *)
  let _ = Artifact.save ~path art in
  match Artifact.load ~expect_digest:art.Artifact.digest ~path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-fault save does not round-trip: %s" e

(* ------------------------------------------------------------------ *)
(* Every zoo model round-trips bit-identically and re-serves from cache *)

let test_zoo_roundtrip () =
  let dir = temp_dir () in
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.Zoo.build () in
      let cold = Compiler.compile ~cache_dir:dir g in
      let digest = Compiler.fingerprint cold.Compiler.config (e.Zoo.build ()) in
      let path = Filename.concat dir (digest ^ ".gcd2art") in
      let raw = read_file path in
      let art =
        match Artifact.load ~expect_digest:digest ~path () with
        | Ok (art, _) -> art
        | Error err -> Alcotest.failf "%s: load failed: %s" e.Zoo.name err
      in
      Alcotest.(check string)
        (e.Zoo.name ^ ": save -> load -> to_bytes is bit-identical")
        (Stdlib.Digest.to_hex (Stdlib.Digest.string raw))
        (Stdlib.Digest.to_hex (Stdlib.Digest.bytes (Artifact.to_bytes art)));
      let warm = Compiler.compile ~cache_dir:dir (e.Zoo.build ()) in
      Alcotest.(check bool) (e.Zoo.name ^ ": warm compile hits") true
        (Compiler.from_cache warm);
      Alcotest.(check (float 0.0))
        (e.Zoo.name ^ ": warm latency identical")
        (Compiler.latency_ms cold) (Compiler.latency_ms warm);
      Alcotest.(check (array int))
        (e.Zoo.name ^ ": warm assignment identical")
        cold.Compiler.assignment warm.Compiler.assignment)
    Zoo.all

(* Two cold compiles of one request write the same bytes, whatever the
   worker count: the entry holds no wall time, and memo values that
   racing domains both computed are shared, so [Marshal] writes one
   sharing graph. *)
let test_cold_compiles_byte_identical () =
  List.iter
    (fun name ->
      let entry jobs =
        Gcd2_util.Memo.clear_all ();
        let dir = temp_dir () in
        ignore (Compiler.compile ~jobs ~cache_dir:dir (Zoo.build name));
        read_file (only_entry dir)
      in
      let one = entry 1 in
      check_bool (name ^ ": jobs 1 twice") true (String.equal one (entry 1));
      check_bool (name ^ ": jobs 1 = jobs 2") true (String.equal one (entry 2)))
    [ "MobileNet-V3"; "EfficientDet-d0"; "Conformer" ]

(* ------------------------------------------------------------------ *)
(* Shape bucketing: sequence lengths in one bucket build the same padded
   graph, so the fingerprint — and thus the artifact entry — is shared;
   a never-exactly-compiled length in a compiled bucket is a warm hit. *)

let test_bucketed_entries_shared () =
  check_int "bucket clamps to the model maximum" 256 (Zoo.bucket ~max_seq:256 300);
  check_int "bucket floor" 16 (Zoo.bucket ~max_seq:256 3);
  let dir = temp_dir () in
  let entries () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
    |> List.length
  in
  let compile seq = Compiler.compile ~cache_dir:dir (Zoo.build ~seq "TinyBERT") in
  let a = compile 20 in
  check_int "first length compiles one entry" 1 (entries ());
  (* seq=24 was never compiled, but its bucket (32) was *)
  let b = compile 24 in
  check_int "same bucket shares the entry" 1 (entries ());
  Alcotest.(check bool) "bucket mate is a cache hit" true (Compiler.from_cache b);
  Alcotest.(check (array int))
    "bucket mate serves the stored assignment" a.Compiler.assignment
    b.Compiler.assignment;
  let c = compile 40 in
  check_int "another bucket compiles its own entry" 2 (entries ());
  Alcotest.(check bool) "other bucket is cold" false (Compiler.from_cache c)

(* ------------------------------------------------------------------ *)
(* Janitor: debris sweep, quarantine age-out, LRU budget, lease immunity *)

module Janitor = Gcd2_store.Janitor
module Counters = Gcd2_util.Stats.Counters
module Lease = Gcd2_store.Lease

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Backdate a file so age gates and LRU ordering are deterministic. *)
let backdate path ~by_s =
  let t = Unix.gettimeofday () -. by_s in
  Unix.utimes path t t

let entry_names dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".gcd2art")
  |> List.sort compare

(* Prime [n] distinct entries (seeds 1..n) and return their digests
   oldest-first: the entry of seed [i] is backdated by [(n-i)*100] s. *)
let prime_entries dir n =
  List.init n (fun i ->
      let seed = i + 1 in
      let before = entry_names dir in
      ignore (Compiler.compile ~cache_dir:dir (weighted_cnn seed));
      match List.filter (fun f -> not (List.mem f before)) (entry_names dir) with
      | [ f ] ->
        backdate (Filename.concat dir f) ~by_s:(float_of_int ((n - i) * 100));
        Filename.chop_suffix f ".gcd2art"
      | fs -> Alcotest.failf "expected one new entry for seed %d, got %d" seed (List.length fs))

let test_janitor_sweeps_debris () =
  with_dir @@ fun dir ->
  let plant name ~age =
    let p = Filename.concat dir name in
    write_file p "debris";
    backdate p ~by_s:age
  in
  plant "gcd2art-old-write.tmp" ~age:1000.0;
  plant "gcd2art-live-write.tmp" ~age:1.0;
  plant "old-entry.gcd2art.bad" ~age:1000.0;
  plant "fresh-entry.gcd2art.bad" ~age:1.0;
  write_file (Filename.concat dir "deadkey.lease") "pid=999999999 stamp=0.0\n";
  let cfg = { Janitor.default with Janitor.tmp_max_age_s = 60.0; bad_max_age_s = 60.0 } in
  let r = Janitor.sweep ~dir cfg in
  check_int "one tmp removed" 1 (Counters.get r "tmp_removed");
  check_int "one bad removed" 1 (Counters.get r "bad_removed");
  check_int "dead-pid lease broken" 1 (Counters.get r "leases_broken");
  check_int "no errors" 0 (Counters.get r "errors");
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "young debris and fresh quarantine survive"
    [ "fresh-entry.gcd2art.bad"; "gcd2art-live-write.tmp" ]
    left;
  (* a second sweep over the clean directory is a no-op *)
  let r2 = Janitor.sweep ~dir cfg in
  check_int "idempotent: nothing more to remove" 0
    (Counters.get r2 "tmp_removed" + Counters.get r2 "bad_removed"
    + Counters.get r2 "leases_broken")

let test_janitor_lru_eviction () =
  with_dir @@ fun dir ->
  match prime_entries dir 3 with
  | [ oldest; middle; newest ] ->
    let size d = (Unix.stat (Filename.concat dir (d ^ ".gcd2art"))).Unix.st_size in
    let oldest_bytes = size oldest in
    (* budget fits exactly the two newest entries *)
    let cfg = { Janitor.default with Janitor.max_bytes = Some (size middle + size newest) } in
    let r = Janitor.sweep ~dir cfg in
    check_int "oldest entry evicted first" 1 (Counters.get r "evicted");
    check_int "evicted bytes accounted" oldest_bytes (Counters.get r "evicted_bytes");
    check_int "surviving entries" 2 (Counters.get r "entries");
    Alcotest.(check (list string))
      "LRU order: oldest gone, newer two intact"
      (List.sort compare [ middle ^ ".gcd2art"; newest ^ ".gcd2art" ])
      (entry_names dir)
  | ds -> Alcotest.failf "expected 3 primed entries, got %d" (List.length ds)

let test_janitor_never_evicts_leased () =
  with_dir @@ fun dir ->
  match prime_entries dir 2 with
  | [ oldest; newest ] ->
    (* the LRU victim is protected by a live lease, so the janitor must
       evict the *younger* entry instead to meet the budget *)
    let lease =
      match Lease.acquire ~dir oldest with
      | Ok l -> l
      | Error _ -> Alcotest.fail "acquire on a fresh dir failed"
    in
    Fun.protect ~finally:(fun () -> Lease.release lease) @@ fun () ->
    let size d = (Unix.stat (Filename.concat dir (d ^ ".gcd2art"))).Unix.st_size in
    let cfg = { Janitor.default with Janitor.max_bytes = Some (size oldest) } in
    let r = Janitor.sweep ~dir cfg in
    check_int "leased victim skipped" 1 (Counters.get r "skipped_leased");
    check_int "younger entry evicted instead" 1 (Counters.get r "evicted");
    Alcotest.(check (list string))
      "leased entry survives eviction" [ oldest ^ ".gcd2art" ] (entry_names dir);
    check_bool "lease file intact" true
      (Sys.file_exists (Lease.path ~dir oldest));
    check_int "newest gone" (size oldest) (Counters.get r "bytes");
    ignore newest
  | ds -> Alcotest.failf "expected 2 primed entries, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Leases: exclusivity, staleness by dead pid and by ttl, safe breaking *)

let test_lease_lifecycle () =
  with_dir @@ fun dir ->
  let digest = "aaaa1111" in
  let l =
    match Lease.acquire ~dir digest with
    | Ok l -> l
    | Error _ -> Alcotest.fail "first acquire failed"
  in
  (match Lease.acquire ~dir digest with
  | Error `Held -> ()
  | Ok _ -> Alcotest.fail "second acquire won a held lease"
  | Error (`Io e) -> Alcotest.failf "io error: %s" e);
  (match Lease.state ~dir digest with
  | Lease.Held pid -> check_int "held by us" (Unix.getpid ()) pid
  | _ -> Alcotest.fail "held lease not reported Held");
  check_bool "refresh while held" true (Lease.refresh l);
  Lease.release l;
  check_bool "release removes the file" false (Sys.file_exists (Lease.path ~dir digest));
  (match Lease.state ~dir digest with
  | Lease.Free -> ()
  | _ -> Alcotest.fail "released lease not Free");
  (match Lease.acquire ~dir digest with
  | Ok l2 -> Lease.release l2
  | Error _ -> Alcotest.fail "re-acquire after release failed")

(* A pid that is certainly dead: far above the kernel's pid_max, so
   [kill pid 0] is ESRCH.  (Forking a real corpse would be cleaner but
   Unix.fork is off-limits once any test has spawned a domain.) *)
let dead_pid () = 999_999_999

let test_lease_stale_dead_owner () =
  with_dir @@ fun dir ->
  let digest = "bbbb2222" in
  let corpse = dead_pid () in
  (match Lease.acquire ~owner:corpse ~dir digest with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "acquire as the doomed owner failed");
  (* the owner is gone: stale immediately, no ttl wait *)
  (match Lease.state ~dir digest with
  | Lease.Stale (Some pid) -> check_int "stale reports the dead pid" corpse pid
  | _ -> Alcotest.fail "dead-owner lease not Stale");
  check_bool "break frees the key" true (Lease.break ~dir digest);
  check_bool "second break finds nothing" false (Lease.break ~dir digest);
  (match Lease.acquire ~dir digest with
  | Ok l -> Lease.release l
  | Error _ -> Alcotest.fail "acquire after break failed")

let test_lease_stale_by_ttl () =
  with_dir @@ fun dir ->
  let digest = "cccc3333" in
  (* live pid, ancient stamp: a wedged-but-alive owner *)
  write_file (Lease.path ~dir digest)
    (Printf.sprintf "pid=%d stamp=1.000000\n" (Unix.getpid ()));
  (match Lease.state ~ttl_s:5.0 ~dir digest with
  | Lease.Stale (Some _) -> ()
  | _ -> Alcotest.fail "expired stamp not Stale");
  (* garbled lease files are stale outright *)
  write_file (Lease.path ~dir digest) "not a lease";
  (match Lease.state ~dir digest with
  | Lease.Stale None -> ()
  | _ -> Alcotest.fail "garbled lease not Stale None");
  check_bool "garbled lease breaks" true (Lease.break ~dir digest)

(* Model-checked exclusivity: two "processes" (our pid and pid 1 —
   both alive forever) race acquire / release / expire / break on one
   digest.  The model tracks whether a lease file exists and who owns
   it; the property is that the real outcomes always agree — in
   particular acquire NEVER succeeds while a lease exists (two
   leaders), and a break-then-retake is detected by the old owner's
   refresh returning false. *)
let qcheck_lease_never_two_leaders =
  QCheck.Test.make ~name:"lease: concurrent acquire/break never admits two leaders"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 7))
  @@ fun ops ->
  with_dir @@ fun dir ->
  let digest = "qcheckkey" in
  let pids = [| Unix.getpid (); 1 |] in
  let handles = [| None; None |] in
  let model = ref None (* Some who, while a lease file exists *) in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  List.iter
    (fun op ->
      let who = op mod 2 in
      match op / 2 with
      | 0 -> (
        (* acquire *)
        match Lease.acquire ~owner:pids.(who) ~dir digest with
        | Ok l ->
          if !model <> None then fail "acquire succeeded over an existing lease";
          handles.(who) <- Some l;
          model := Some who
        | Error `Held -> if !model = None then fail "acquire failed on a free key"
        | Error (`Io e) -> fail "io error: %s" e)
      | 1 -> (
        (* release: only the owner's release may free the key *)
        match handles.(who) with
        | Some l ->
          Lease.release l;
          handles.(who) <- None;
          if !model = Some who then model := None
        | None -> ())
      | 2 ->
        (* expire: backdate the stamp, owner unchanged *)
        (match !model with
        | Some holder ->
          write_file (Lease.path ~dir digest)
            (Printf.sprintf "pid=%d stamp=1.000000\n" pids.(holder))
        | None -> ())
      | _ -> (
        (* break, only when observably stale (the module's contract) *)
        match Lease.state ~ttl_s:3600.0 ~dir digest with
        | Lease.Stale _ ->
          if Lease.break ~owner:pids.(who) ~dir digest then begin
            (match !model with
            | Some old when old <> who -> (
              (* the deposed owner must learn it lost: refresh false *)
              match handles.(old) with
              | Some l ->
                if Lease.refresh l then fail "deposed owner still refreshes";
                handles.(old) <- None
              | None -> ())
            | _ -> ());
            model := None
          end
        | Lease.Held _ | Lease.Free -> ()))
    ops;
  (* final agreement: file exists iff the model says someone holds it *)
  if Sys.file_exists (Lease.path ~dir digest) <> (!model <> None) then
    fail "model and directory disagree at the end";
  true

let tests =
  [
    Alcotest.test_case "request fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "devices never share cache entries" `Quick
      test_fingerprint_separates_devices;
    Alcotest.test_case "fingerprint: disable list and derived ops" `Quick
      test_fingerprint_disable_and_derived_ops;
    Alcotest.test_case "request digests are pinned" `Quick test_fingerprint_pinned;
    Alcotest.test_case "job counts share cache entries" `Quick
      test_jobs_share_cache_entries;
    Alcotest.test_case "disabled passes do not share entries" `Quick
      test_disabled_passes_do_not_share_entries;
    Alcotest.test_case "load never raises" `Quick test_load_never_raises;
    Alcotest.test_case "artifact round-trip is bit-identical" `Quick test_roundtrip_bytes;
    Alcotest.test_case "artifact stores each distinct kernel once" `Quick
      test_artifact_stores_each_kernel_once;
    Alcotest.test_case "stored program is the executed program" `Quick
      test_stored_program_is_executed;
    Alcotest.test_case "of_bytes rejects garbage" `Quick test_of_bytes_rejects_garbage;
    Alcotest.test_case "stored programs are decoded on demand" `Quick
      test_programs_decode_on_demand;
    Alcotest.test_case "an old-version entry is a miss and is rewritten" `Quick
      test_old_version_is_rewritten;
    Alcotest.test_case "digest lookup is the cache-lookup pass" `Quick test_digest_lookup;
    Alcotest.test_case "cache hit equals cold compile" `Quick test_cache_hit_equivalence;
    Alcotest.test_case "corrupt entries are misses" `Quick test_corrupt_entries_are_misses;
    Alcotest.test_case "quarantine preserves and self-heals" `Quick
      test_quarantine_self_heals;
    Alcotest.test_case "failing saves leave no temp debris" `Quick
      test_save_fault_leaves_no_debris;
    Alcotest.test_case "bucketed sequence lengths share entries" `Quick
      test_bucketed_entries_shared;
    Alcotest.test_case "cold compiles write identical bytes at any jobs" `Quick
      test_cold_compiles_byte_identical;
    Alcotest.test_case "janitor sweeps debris, quarantine and stale leases" `Quick
      test_janitor_sweeps_debris;
    Alcotest.test_case "janitor evicts LRU down to the byte budget" `Quick
      test_janitor_lru_eviction;
    Alcotest.test_case "janitor never evicts a leased entry" `Quick
      test_janitor_never_evicts_leased;
    Alcotest.test_case "lease lifecycle: exclusive, released, retaken" `Quick
      test_lease_lifecycle;
    Alcotest.test_case "lease of a dead owner is stale and breakable" `Quick
      test_lease_stale_dead_owner;
    Alcotest.test_case "lease staleness by ttl and garbling" `Quick
      test_lease_stale_by_ttl;
    QCheck_alcotest.to_alcotest qcheck_lease_never_two_leaders;
    Alcotest.test_case "zoo artifacts round-trip" `Slow test_zoo_roundtrip;
  ]
