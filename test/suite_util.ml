(* Tests for Gcd2_util: saturating arithmetic, requantization, RNG, stats. *)

open Gcd2_util

let check_int = Alcotest.(check int)

let test_sat_bounds () =
  check_int "sat8 clamps high" 127 (Saturate.sat8 1000);
  check_int "sat8 clamps low" (-128) (Saturate.sat8 (-1000));
  check_int "sat8 passes through" 5 (Saturate.sat8 5);
  check_int "sat16 clamps high" 32767 (Saturate.sat16 100000);
  check_int "sat16 clamps low" (-32768) (Saturate.sat16 (-100000));
  check_int "sat32 clamps high" 0x7fffffff (Saturate.sat32 (1 lsl 40));
  check_int "sat32 clamps low" (-0x80000000) (Saturate.sat32 (-(1 lsl 40)))

let test_wrap32 () =
  check_int "wrap32 positive overflow" (-0x80000000) (Saturate.wrap32 0x80000000);
  check_int "wrap32 identity" 42 (Saturate.wrap32 42);
  check_int "wrap32 negative" (-1) (Saturate.wrap32 0xffffffff)

let test_sign_extend () =
  check_int "8-bit negative" (-1) (Saturate.sign_extend ~bits:8 0xff);
  check_int "8-bit positive" 127 (Saturate.sign_extend ~bits:8 0x7f);
  check_int "16-bit negative" (-2) (Saturate.sign_extend ~bits:16 0xfffe)

let test_rounding_shift () =
  check_int "rounds up at half" 2 (Saturate.rounding_shift_right 3 1);
  check_int "rounds down below half" 1 (Saturate.rounding_shift_right 5 2);
  check_int "symmetric for negatives" (-2) (Saturate.rounding_shift_right (-3) 1);
  check_int "shift by zero" 7 (Saturate.rounding_shift_right 7 0)

let test_quantize_multiplier () =
  (* apply_multiplier (quantize_multiplier s) must approximate x * s. *)
  List.iter
    (fun s ->
      let mult, shift = Saturate.quantize_multiplier s in
      List.iter
        (fun x ->
          let got = Saturate.apply_multiplier x (mult, shift) in
          let want = Float.round (float_of_int x *. s) in
          let err = abs (got - int_of_float want) in
          if err > 1 then
            Alcotest.failf "scale %.6f x %d: got %d want %.0f" s x got want)
        [ 0; 1; -1; 100; -100; 12345; -54321; 1000000 ])
    [ 0.5; 0.25; 0.1; 0.0123; 0.9; 0.003; 0.7071 ]

let test_requantize () =
  let mult, shift = Saturate.quantize_multiplier 0.05 in
  check_int "requantize saturates" 127
    (Saturate.requantize 1_000_000 ~mult ~shift ~zero:0);
  check_int "requantize zero point" 3 (Saturate.requantize 60 ~mult ~shift ~zero:0)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same seeds agree" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int8_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int8 r in
    if v < -127 || v > 127 then Alcotest.failf "int8 out of range: %d" v
  done

let test_stats () =
  Alcotest.(check (float 1e-9)) "geomean of (2,8)" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_int "ceil_div exact" 3 (Stats.ceil_div 9 3);
  check_int "ceil_div rounds up" 4 (Stats.ceil_div 10 3);
  check_int "round_up" 128 (Stats.round_up 100 64)

(* Nearest-rank percentile: the smallest element with at least p% of the
   sample at or below it. *)
let test_percentile () =
  let checkf = Alcotest.(check (float 1e-9)) in
  checkf "empty sample" 0.0 (Stats.percentile 50.0 []);
  checkf "singleton p1" 7.0 (Stats.percentile 1.0 [ 7.0 ]);
  checkf "singleton p99" 7.0 (Stats.percentile 99.0 [ 7.0 ]);
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  checkf "sorts its input" 1.0 (Stats.percentile 10.0 xs);
  (* nearest rank over 5 elements: rank = ceil(p/100 * 5) *)
  checkf "p20 is the 1st of 5" 1.0 (Stats.percentile 20.0 xs);
  checkf "p21 is the 2nd of 5" 2.0 (Stats.percentile 21.0 xs);
  checkf "p50 of odd count is the middle" 3.0 (Stats.p50 xs);
  checkf "p100 is the max" 5.0 (Stats.percentile 100.0 xs);
  checkf "p0 clamps to the min" 1.0 (Stats.percentile 0.0 xs);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50 of 1..100" 50.0 (Stats.p50 hundred);
  checkf "p95 of 1..100" 95.0 (Stats.p95 hundred);
  checkf "p99 of 1..100" 99.0 (Stats.p99 hundred)

let qcheck_percentile_member =
  QCheck.Test.make ~name:"percentile is a member of the sample" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_inclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (xs, p) -> List.mem (Gcd2_util.Stats.percentile p xs) xs)

let qcheck_sat8 =
  QCheck.Test.make ~name:"sat8 stays in range" ~count:500
    QCheck.(int_range (-100000) 100000)
    (fun x ->
      let v = Gcd2_util.Saturate.sat8 x in
      v >= -128 && v <= 127 && (x < -128 || x > 127 || v = x))

let qcheck_rounding =
  QCheck.Test.make ~name:"rounding shift within 1 of float division" ~count:500
    QCheck.(pair (int_range (-1000000) 1000000) (int_range 0 16))
    (fun (x, n) ->
      let got = Saturate.rounding_shift_right x n in
      let want = Float.round (float_of_int x /. float_of_int (1 lsl n)) in
      abs_float (float_of_int got -. want) <= 0.5)

(* ------------------------------------------------------------------ *)
(* Memo tables *)

let test_memo_caches_and_counts () =
  let m : (int, int) Memo.t = Memo.create "test-square" in
  let calls = ref 0 in
  let square x =
    Memo.find_or_add m x (fun () ->
        incr calls;
        x * x)
  in
  Alcotest.(check int) "computes" 9 (square 3);
  Alcotest.(check int) "hits" 9 (square 3);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "distinct key computes" 16 (square 4);
  Alcotest.(check int) "two entries" 2 (Memo.size m);
  Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Memo.size m);
  Alcotest.(check int) "recomputes after clear" 9 (square 3);
  Alcotest.(check int) "three computations total" 3 !calls

let test_memo_clear_all () =
  let a : (int, int) Memo.t = Memo.create "test-a" in
  let b : (int, int) Memo.t = Memo.create "test-b" in
  ignore (Memo.find_or_add a 1 (fun () -> 1));
  ignore (Memo.find_or_add b 2 (fun () -> 2));
  Memo.clear_all ();
  Alcotest.(check int) "a cleared" 0 (Memo.size a);
  Alcotest.(check int) "b cleared" 0 (Memo.size b)

let test_memo_parallel_domains () =
  let m : (int, int) Memo.t = Memo.create "test-parallel" in
  (* hammer one table from several domains: every read must be coherent
     (the benign compute race may duplicate work, never corrupt a value) *)
  let results =
    Pool.map_array ~jobs:4
      (fun i -> Memo.find_or_add m (i mod 7) (fun () -> (i mod 7) * 1000))
      (Array.init 200 (fun i -> i))
  in
  Array.iteri
    (fun i got -> Alcotest.(check int) (Fmt.str "slot %d" i) (i mod 7 * 1000) got)
    results;
  Alcotest.(check int) "7 unique keys" 7 (Memo.size m)

(* ------------------------------------------------------------------ *)
(* Domain pool *)

let test_pool_default_jobs () =
  Alcotest.(check bool) "positive" true (Pool.default_jobs () >= 1)

let test_pool_matches_sequential_map () =
  let arr = Array.init 57 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Fmt.str "jobs:%d" jobs) seq
        (Pool.map_array ~jobs f arr))
    [ 1; 2; 3; 4; 8; 100 ]

let test_pool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map_array ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single" [| 7 |]
    (Pool.map_array ~jobs:4 (fun x -> x + 1) [| 6 |])

let test_pool_propagates_exception () =
  match
    Pool.map_array ~jobs:3
      (fun x -> if x = 5 then failwith "boom" else x)
      (Array.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let test_pool_merges_worker_traces () =
  let tr = Trace.create "parent" in
  Trace.with_ambient tr (fun () ->
      Trace.run_root tr (fun () ->
          ignore
            (Pool.map_array ~jobs:4
               (fun x ->
                 Trace.in_span "work" (fun () -> Trace.count "items" 1);
                 x)
               (Array.init 20 (fun i -> i)))));
  Alcotest.(check int) "worker counters absorbed" 20 (Trace.counter tr "items");
  Alcotest.(check int) "pool-tasks recorded" 20 (Trace.counter tr "pool-tasks");
  Alcotest.(check bool) "worker span tree merged" true
    (Trace.find tr "work" <> None)

(* ---------------- trace output, byte for byte ---------------- *)

(* The sinks print each closed span's wall-clock seconds as [%.6f];
   replace each such figure with [S] so the rest of a line compares
   exactly. *)
let mask_seconds s =
  let n = String.length s in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let b = Buffer.create n in
  let rec go i =
    if i < n then
      if digit i then begin
        let j = ref i in
        while digit !j do incr j done;
        let frac = !j + 1 in
        if frac + 6 <= n && s.[!j] = '.' && List.for_all digit (List.init 6 (( + ) frac))
        then begin
          Buffer.add_char b 'S';
          go (frac + 6)
        end
        else begin
          Buffer.add_string b (String.sub s i (!j - i));
          go !j
        end
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* A fixed nested trace: root and child counters, a zero-valued counter,
   a span entered twice, and one absorbed worker trace whose spans merge
   with the parent's same-named ones. *)
let pinned_trace sink =
  let w = Trace.create "worker" in
  Trace.run_root w (fun () ->
      Trace.add w "tasks" 1;
      Trace.with_span w "pack" (fun () ->
          Trace.add w "packets" 3;
          Trace.add w "stalls" 1);
      Trace.with_span w "emit" (fun () -> Trace.add w "kernels" 2));
  let t = Trace.create ~sink "compile" in
  Trace.with_ambient t (fun () ->
      Trace.run_root t (fun () ->
          Trace.count "nodes" 7;
          Trace.with_span t "build-costs" (fun () ->
              Trace.count "plans" 4;
              Trace.in_span "pack" (fun () ->
                  Trace.count "packets" 5;
                  Trace.count "stalls" 0);
              Trace.absorb (Trace.root w);
              Trace.count "plans" 1);
          Trace.with_span t "select" (fun () -> Trace.count "partitions" 2);
          Trace.with_span t "select" (fun () -> ())));
  t

let test_trace_output_pinned () =
  let sink_output make =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    ignore (pinned_trace (make ppf));
    Format.pp_print_flush ppf ();
    mask_seconds (Buffer.contents buf)
  in
  Alcotest.(check string) "text sink"
    "[trace] compile/build-costs/pack Ss packets=5 stalls=0\n\
     [trace] compile/build-costs Ss plans=5 tasks=1\n\
     [trace] compile/select Ss partitions=2\n\
     [trace] compile/select Ss partitions=2\n\
     [trace] compile Ss nodes=7\n"
    (sink_output (fun ppf -> Trace.Text ppf));
  Alcotest.(check string) "jsonl sink"
    {|{"span":"pack","path":"compile/build-costs/pack","seconds":S,"calls":1,"counters":{"packets":5,"stalls":0}}
{"span":"build-costs","path":"compile/build-costs","seconds":S,"calls":1,"counters":{"plans":5,"tasks":1}}
{"span":"select","path":"compile/select","seconds":S,"calls":1,"counters":{"partitions":2}}
{"span":"select","path":"compile/select","seconds":S,"calls":2,"counters":{"partitions":2}}
{"span":"compile","path":"compile","seconds":S,"calls":1,"counters":{"nodes":7}}
|}
    (sink_output (fun ppf -> Trace.Jsonl ppf));
  let t = pinned_trace Trace.Silent in
  (* fixed seconds, so [pp] compares exactly too *)
  let i = ref 0 in
  let rec fix (s : Trace.span) =
    incr i;
    s.Trace.seconds <- 0.0625 *. float_of_int !i;
    List.iter fix s.Trace.children
  in
  fix (Trace.root t);
  Alcotest.(check string) "pp"
    {|compile                                0.0625 s  nodes=7
  build-costs                          0.1250 s  plans=5  tasks=1
    pack                               0.1875 s  (2 calls)  packets=8  stalls=1
    emit                               0.2500 s  kernels=2
  select                               0.3125 s  (2 calls)  partitions=2
|}
    (Format.asprintf "%a" Trace.pp t);
  check_int "counter sums over spans" 8 (Trace.counter t "packets");
  (* benchmark/w_compile.ml still reads the deleted [tune-pruned] *)
  check_int "never-bumped counter reads 0" 0 (Trace.counter t "tune-pruned");
  Alcotest.(check (list string)) "counter names, first-seen depth-first"
    [ "nodes"; "plans"; "tasks"; "packets"; "stalls"; "kernels"; "partitions" ]
    (Trace.counter_names t)

(* ---------------- latency histograms (Stats.Hist) ---------------- *)

let test_hist_buckets () =
  let h = Stats.Hist.create () in
  Alcotest.(check int) "fresh hist is empty" 0 (Stats.Hist.count h);
  (* bucket_of is monotone in the value *)
  let values = [ 0.002; 0.01; 0.5; 1.0; 1.5; 10.0; 250.0; 9999.0 ] in
  let bs = List.map Stats.Hist.bucket_of values in
  List.iter2
    (fun a b -> Alcotest.(check bool) "bucket_of monotone" true (a <= b))
    (List.filteri (fun i _ -> i < List.length bs - 1) bs)
    (List.tl bs);
  (* the bucket floor never exceeds the value it buckets *)
  List.iter
    (fun v ->
      let f = Stats.Hist.bucket_floor (Stats.Hist.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "floor %g <= %g" f v)
        true (f <= v))
    values;
  (* underflow and overflow land in the sentinel buckets *)
  Alcotest.(check int) "underflow bucket" 0 (Stats.Hist.bucket_of 1e-9);
  Alcotest.(check int) "overflow bucket"
    (Stats.Hist.buckets - 1)
    (Stats.Hist.bucket_of 1e9)

let test_hist_percentile_accuracy () =
  let h = Stats.Hist.create () in
  (* 1..1000 ms uniformly: exact p50 = 500, p95 = 950, p99 = 990 *)
  for i = 1 to 1000 do
    Stats.Hist.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Stats.Hist.count h);
  (* one log bucket spans a ratio of 2^(1/8) ~ 9.05%; the reported
     percentile is the bucket's lower edge, so it may sit up to one
     bucket ratio below the exact nearest-rank value and never above it *)
  let ratio = Float.pow 2.0 (1.0 /. 8.0) in
  List.iter
    (fun (p, exact) ->
      let got = Stats.Hist.percentile p h in
      Alcotest.(check bool)
        (Printf.sprintf "p%g %g within one bucket of %g" p got exact)
        true
        (got <= exact && got >= exact /. (ratio *. ratio)))
    [ (50.0, 500.); (95.0, 950.); (99.0, 990.) ]

let test_hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  List.iter (Stats.Hist.add a) [ 1.0; 2.0; 400.0 ];
  List.iter (Stats.Hist.add b) [ 0.5; 2.0; 90000.0 ];
  let m = Stats.Hist.merge a b in
  Alcotest.(check int) "merged count" 6 (Stats.Hist.count m);
  Alcotest.(check (array int)) "merge is pointwise sum"
    (Array.map2 ( + ) (Stats.Hist.counts a) (Stats.Hist.counts b))
    (Stats.Hist.counts m);
  (* merge_into agrees with the pure merge *)
  let into = Stats.Hist.copy a in
  Stats.Hist.merge_into ~into b;
  Alcotest.(check (array int)) "merge_into = merge" (Stats.Hist.counts m)
    (Stats.Hist.counts into);
  (* the originals are untouched by the pure merge *)
  Alcotest.(check int) "a untouched" 3 (Stats.Hist.count a)

let hist_of_list l =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) l;
  h

let latency_list =
  (* latencies spanning the full bucket range, underflow and overflow
     included *)
  QCheck.(list_of_size Gen.(0 -- 40) (float_range 1e-6 5e6))

let qcheck_hist_merge_commutative =
  QCheck.Test.make ~name:"hist merge is commutative" ~count:200
    QCheck.(pair latency_list latency_list)
    (fun (xs, ys) ->
      let a = hist_of_list xs and b = hist_of_list ys in
      Stats.Hist.counts (Stats.Hist.merge a b)
      = Stats.Hist.counts (Stats.Hist.merge b a))

let qcheck_hist_merge_associative =
  QCheck.Test.make ~name:"hist merge is associative" ~count:200
    QCheck.(triple latency_list latency_list latency_list)
    (fun (xs, ys, zs) ->
      let a = hist_of_list xs and b = hist_of_list ys and c = hist_of_list zs in
      Stats.Hist.counts (Stats.Hist.merge (Stats.Hist.merge a b) c)
      = Stats.Hist.counts (Stats.Hist.merge a (Stats.Hist.merge b c)))

let qcheck_hist_merge_count =
  QCheck.Test.make ~name:"hist merge preserves total count" ~count:200
    QCheck.(pair latency_list latency_list)
    (fun (xs, ys) ->
      let a = hist_of_list xs and b = hist_of_list ys in
      Stats.Hist.count (Stats.Hist.merge a b)
      = List.length xs + List.length ys)

(* ---------------- named counters (Stats.Counters) ---------------- *)

let counters_of bumps =
  let c = Stats.Counters.create [] in
  List.iter (fun (k, n) -> Stats.Counters.add c k n) bumps;
  c

let keys c = List.map fst (Stats.Counters.to_list c)

let test_counters () =
  let c = Stats.Counters.create [ "served"; "failed"; "hits" ] in
  Alcotest.(check string) "declared keys render at zero" "served=0 failed=0 hits=0"
    (Stats.Counters.render c);
  Stats.Counters.add c "hits" 2;
  Stats.Counters.add c "sweeps" 1;
  Stats.Counters.add c "served" 3;
  Alcotest.(check string) "values, first-use order" "served=3 failed=0 hits=2 sweeps=1"
    (Stats.Counters.render c);
  check_int "a never-bumped key reads 0" 0 (Stats.Counters.get c "respawns");
  Alcotest.(check string) "empty registry renders nothing" ""
    (Stats.Counters.render (Stats.Counters.create []));
  let d = counters_of [ ("adopted", 4); ("hits", 1) ] in
  let m = Stats.Counters.merge c d in
  Alcotest.(check string) "merge keeps the left order, appends new keys"
    "served=3 failed=0 hits=3 sweeps=1 adopted=4" (Stats.Counters.render m);
  Alcotest.(check string) "merge is pure" "served=3 failed=0 hits=2 sweeps=1"
    (Stats.Counters.render c);
  Stats.Counters.merge_into ~into:c d;
  Alcotest.(check string) "merge_into = merge" (Stats.Counters.render m)
    (Stats.Counters.render c)

let bumps =
  QCheck.(
    list_of_size Gen.(0 -- 20) (pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) (int_range 0 100)))

let qcheck_counters_merge_associative =
  QCheck.Test.make ~name:"counters merge is associative" ~count:200
    QCheck.(triple bumps bumps bumps)
    (fun (xs, ys, zs) ->
      let a = counters_of xs and b = counters_of ys and c = counters_of zs in
      Stats.Counters.(to_list (merge (merge a b) c) = to_list (merge a (merge b c))))

let qcheck_counters_merge_commutative =
  QCheck.Test.make ~name:"counters merge is commutative up to key order" ~count:200
    QCheck.(pair bumps bumps)
    (fun (xs, ys) ->
      let a = counters_of xs and b = counters_of ys in
      let sorted c = List.sort compare (Stats.Counters.to_list c) in
      sorted (Stats.Counters.merge a b) = sorted (Stats.Counters.merge b a))

let qcheck_counters_merge_order =
  QCheck.Test.make ~name:"counters merge keeps first-use order" ~count:200
    QCheck.(pair bumps bumps)
    (fun (xs, ys) ->
      let a = counters_of xs and b = counters_of ys in
      keys (Stats.Counters.merge a b)
      = keys a @ List.filter (fun k -> not (List.mem k (keys a))) (keys b))

(* ---------------- deadlines are domain-local ---------------- *)

(* Regression for the serve daemon: two worker domains with staggered
   deadlines.  The domain whose deadline has expired must be the ONLY
   one cancelled — with process-global deadline state the generous
   domain would be cancelled by its neighbour's stale deadline. *)
let test_deadline_domain_local () =
  Alcotest.(check bool) "no ambient deadline in the parent" true
    (Deadline.get () = None);
  let expired_fired = Atomic.make false in
  let generous_survived = Atomic.make true in
  let tight =
    Domain.spawn (fun () ->
        Deadline.with_deadline
          (Some (Trace.now () -. 0.5))
          (fun () ->
            match
              for _ = 1 to 20 do
                Deadline.check ();
                Unix.sleepf 0.002
              done
            with
            | () -> ()
            | exception Deadline.Expired _ -> Atomic.set expired_fired true))
  in
  let generous =
    Domain.spawn (fun () ->
        Deadline.with_deadline
          (Some (Trace.now () +. 60.))
          (fun () ->
            try
              for _ = 1 to 20 do
                Deadline.check ();
                Unix.sleepf 0.002
              done
            with Deadline.Expired _ -> Atomic.set generous_survived false))
  in
  Domain.join tight;
  Domain.join generous;
  Alcotest.(check bool) "expired domain was cancelled" true
    (Atomic.get expired_fired);
  Alcotest.(check bool) "concurrent generous domain was not" true
    (Atomic.get generous_survived);
  (* a freshly spawned domain does not inherit the parent's deadline *)
  Deadline.with_deadline
    (Some (Trace.now () -. 1.0))
    (fun () ->
      let child_sees = Domain.spawn (fun () -> Deadline.get ()) in
      Alcotest.(check bool) "spawned domain starts deadline-free" true
        (Domain.join child_sees = None))

let tests =
  [
    Alcotest.test_case "saturation bounds" `Quick test_sat_bounds;
    Alcotest.test_case "wrap32" `Quick test_wrap32;
    Alcotest.test_case "sign extension" `Quick test_sign_extend;
    Alcotest.test_case "rounding shift" `Quick test_rounding_shift;
    Alcotest.test_case "quantize multiplier roundtrip" `Quick test_quantize_multiplier;
    Alcotest.test_case "requantize" `Quick test_requantize;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int8 range" `Quick test_rng_int8_range;
    Alcotest.test_case "stats helpers" `Quick test_stats;
    Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
    Alcotest.test_case "memo caches and counts" `Quick test_memo_caches_and_counts;
    Alcotest.test_case "memo clear_all" `Quick test_memo_clear_all;
    Alcotest.test_case "memo under parallel domains" `Quick test_memo_parallel_domains;
    Alcotest.test_case "pool default jobs" `Quick test_pool_default_jobs;
    Alcotest.test_case "pool = sequential map" `Quick test_pool_matches_sequential_map;
    Alcotest.test_case "pool edge sizes" `Quick test_pool_empty_and_single;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_propagates_exception;
    Alcotest.test_case "pool merges worker traces" `Quick test_pool_merges_worker_traces;
    QCheck_alcotest.to_alcotest qcheck_percentile_member;
    QCheck_alcotest.to_alcotest qcheck_sat8;
    QCheck_alcotest.to_alcotest qcheck_rounding;
    Alcotest.test_case "hist bucket layout" `Quick test_hist_buckets;
    Alcotest.test_case "hist percentile accuracy" `Quick
      test_hist_percentile_accuracy;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "deadlines are domain-local" `Quick
      test_deadline_domain_local;
    QCheck_alcotest.to_alcotest qcheck_hist_merge_commutative;
    QCheck_alcotest.to_alcotest qcheck_hist_merge_associative;
    QCheck_alcotest.to_alcotest qcheck_hist_merge_count;
    Alcotest.test_case "trace text, jsonl and pp output pinned" `Quick
      test_trace_output_pinned;
    Alcotest.test_case "counters: order, zeros, render, merge" `Quick test_counters;
    QCheck_alcotest.to_alcotest qcheck_counters_merge_associative;
    QCheck_alcotest.to_alcotest qcheck_counters_merge_commutative;
    QCheck_alcotest.to_alcotest qcheck_counters_merge_order;
  ]
