(* Self-tests of the benchmark harness: its statistics, span arithmetic,
   seeded serve traffic, and agreement between BENCHMARK.json and the
   metrics the harness prints. *)

open Gcd2_benchmark

let feq = Alcotest.float 1e-9

let test_tail_rule () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  (match Sample.tail xs with
  | Some (p, v) ->
    Alcotest.check feq "value" 90.0 v;
    Alcotest.check feq "percentile" 90.0 p;
    Alcotest.(check int) "ten beyond" 10 (List.length (List.filter (fun x -> x > v) xs))
  | None -> Alcotest.fail "100 samples have a tail");
  Alcotest.(check bool) "10 samples have none" true
    (Sample.tail (List.init 10 float_of_int) = None);
  (match Sample.tail (List.init 11 float_of_int) with
  | Some (_, v) -> Alcotest.check feq "11 samples: the minimum" 0.0 v
  | None -> Alcotest.fail "11 samples have a tail");
  (* failures are +inf: they sort last and push the tail up *)
  match Sample.tail (List.init 20 float_of_int @ List.init 10 (fun _ -> infinity)) with
  | Some (_, v) -> Alcotest.check feq "failures beyond the tail" 19.0 v
  | None -> Alcotest.fail "30 samples have a tail"

(* The values Python's statistics.quantiles(xs, n=4) gives. *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, m, q3 = Sample.quartiles xs in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " median") b m;
    Alcotest.check feq (name ^ " q3") c q3
  in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "1..4" [ 4.; 2.; 3.; 1. ] (1.25, 2.5, 3.75);
  check "1..10" one_to_ten (2.75, 5.5, 8.25);
  check "5 values" [ 10.; 12.; 11.; 15.; 13. ] (10.5, 12.0, 14.0);
  Alcotest.check feq "spread" 1.0 (Sample.spread one_to_ten)

let span id ?parent name start stop = { Spans.id; name; start; stop; parent; tag = "" }

let test_self_time () =
  let spans =
    [
      span 0 "runtime.node" 0.0 10.0;
      (* overlapping children count once *)
      span 1 ~parent:0 "tensor.stage" 1.0 3.0;
      span 2 ~parent:0 "vm.run" 2.0 5.0;
      (* a child running past its parent counts only inside it *)
      span 3 ~parent:0 "tensor.unstage" 8.0 12.0;
      (* a grandchild is its parent's business, not the grandparent's *)
      span 4 ~parent:1 "codegen.generate" 1.5 2.5;
    ]
  in
  let self =
    List.map (fun ((s : Spans.span), v) -> (s.Spans.id, v)) (Spans.self_times spans)
  in
  Alcotest.check feq "parent" 4.0 (List.assoc 0 self);
  Alcotest.check feq "child with a child" 1.0 (List.assoc 1 self);
  Alcotest.check feq "leaf" 3.0 (List.assoc 2 self);
  Alcotest.check feq "child past its parent" 4.0 (List.assoc 3 self);
  Alcotest.check feq "disjoint" 0.0 (Spans.covered ~lo:0.0 ~hi:1.0 [ (2.0, 3.0) ]);
  let layers = Spans.layer_self spans in
  Alcotest.check feq "runtime layer" 4.0 (List.assoc "runtime" layers);
  Alcotest.check feq "tensor layer" 5.0 (List.assoc "tensor" layers);
  (* recorded spans nest by the open-span stack *)
  let t = Spans.create () in
  Spans.with_span (Some t) "a.outer" (fun () -> Spans.with_span (Some t) "b.inner" ignore);
  match Spans.spans t with
  | [ inner; outer ] ->
    Alcotest.(check (option int)) "parent" (Some outer.Spans.id) inner.Spans.parent;
    Alcotest.(check bool) "inside" true
      (inner.Spans.start >= outer.Spans.start && inner.Spans.stop <= outer.Spans.stop)
  | _ -> Alcotest.fail "two spans"

let test_schedule () =
  let sched seed =
    Seeded.schedule ~seed ~rate:50.0 ~seconds:15.0 ~conns:2 ~nkeys:20 ~zipf_s:1.1
  in
  let a = sched 7 in
  Alcotest.(check bool) "same seed, same traffic" true (a = sched 7);
  Alcotest.(check bool) "another seed, other traffic" true (a <> sched 8);
  Alcotest.(check bool) "about 50/s for 15 s" true
    (Array.length a > 600 && Array.length a < 900);
  Array.iteri
    (fun i (q : Seeded.request) ->
      Alcotest.(check bool) "due within the run" true
        (q.Seeded.due >= 0.0 && q.Seeded.due < 15.0);
      Alcotest.(check int) "round-robin" (i mod 2) q.Seeded.conn;
      if i > 0 then
        Alcotest.(check bool) "in due order" true (q.Seeded.due >= a.(i - 1).Seeded.due))
    a;
  Alcotest.(check int) "20 distinct keys" 20
    (List.length (List.sort_uniq compare (Array.to_list Seeded.keys)));
  let drawn k = List.length (List.filter (fun q -> q.Seeded.key = k) (Array.to_list a)) in
  Alcotest.(check bool) "zipf: rank 0 beats rank 19" true (drawn 0 > 5 * drawn 19);
  let order seed = Seeded.shuffle (Seeded.rng ~seed "order-0") (Array.init 10 Fun.id) in
  Alcotest.(check bool) "seeded order repeats" true (order 3 = order 3)

let all = Metrics.end_to_end @ Metrics.per_layer

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long *)
let valid_name s =
  let letter_or_digit = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1
  && String.length s <= 64
  && letter_or_digit s.[0]
  && String.for_all (fun c -> letter_or_digit c || c = '_' || c = '.' || c = '-') s

let test_names () =
  let names = List.map (fun m -> m.Metrics.name) all in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n))
    (names @ Metrics.workload_names);
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end to end" true
    (List.exists
       (fun m ->
         m.Metrics.name = "setup_s" && m.Metrics.unit_ = "s" && m.Metrics.better = Lower)
       Metrics.end_to_end)

(* BENCHMARK.json lists exactly the metrics the harness prints: the
   ones in [Metrics], which every run is checked against. *)
let test_manifest () =
  let j = Json.of_file "../../BENCHMARK.json" in
  let list k = Json.to_list (Json.member k j) in
  let str k o = Json.to_str (Json.member k o) in
  let row name unit_ better bound =
    let bound = Option.fold ~none:"-" ~some:string_of_float bound in
    String.concat " " [ name; unit_; better; bound ]
  in
  let ours ms =
    List.map
      (fun m ->
        let better = if m.Metrics.better = Lower then "lower" else "higher" in
        row m.Metrics.name m.Metrics.unit_ better m.Metrics.bound)
      ms
  in
  let theirs key =
    List.map
      (fun o ->
        row (str "name" o) (str "unit" o) (str "better" o)
          (Option.map Json.to_num (List.assoc_opt "bound" (Json.to_obj o))))
      (list key)
  in
  Alcotest.(check (list string)) "command" [ "sh"; "benchmark/run.sh" ]
    (List.map Json.to_str (list "command"));
  Alcotest.(check (list string)) "paths" [ "benchmark" ] (List.map Json.to_str (list "paths"));
  Alcotest.check feq "run_seconds" (float_of_int Metrics.run_seconds)
    (Json.to_num (Json.member "run_seconds" j));
  Alcotest.(check (list (pair string string))) "workloads" Metrics.workloads
    (List.map (fun w -> (str "name" w, str "why" w)) (list "workloads"));
  Alcotest.(check (list string)) "end_to_end" (ours Metrics.end_to_end) (theirs "end_to_end");
  Alcotest.(check (list string)) "per_layer" (ours Metrics.per_layer) (theirs "per_layer")

let () =
  Alcotest.run "benchmark"
    [
      ( "harness",
        [
          Alcotest.test_case "tail: highest percentile with 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "serve traffic is a function of the seed" `Quick test_schedule;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json matches the printed metrics" `Quick test_manifest;
        ] );
    ]
