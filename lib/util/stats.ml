(** Small statistics helpers for the benchmark harness. *)

let mean xs =
  if xs = [] then 0.0
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Geometric mean, the aggregate the paper reports for speedups. *)
let geomean xs =
  if xs = [] then 0.0
  else begin
    let logs = List.map (fun x -> if x <= 0.0 then 0.0 else log x) xs in
    exp (mean logs)
  end

let maxf xs = List.fold_left Float.max neg_infinity xs
let minf xs = List.fold_left Float.min infinity xs

(** Nearest-rank percentile (inclusive): the smallest element of [xs]
    such that at least [p] percent of the sample is <= it.  Works on a
    sorted copy; [0.0] on an empty sample (matching {!mean}). *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let p50 xs = percentile 50.0 xs
let p95 xs = percentile 95.0 xs
let p99 xs = percentile 99.0 xs

(** Integer ceiling division. *)
let ceil_div a b = (a + b - 1) / b

(** Round [a] up to the next multiple of [b]. *)
let round_up a b = ceil_div a b * b

(* ------------------------------------------------------------------ *)
(* Mergeable log-bucket latency histograms                             *)

module Hist = struct
  (* Fixed geometric bucket layout: [sub_octave] buckets per factor of
     two, spanning [lo_ms, hi_ms).  The layout is a module-level
     constant, never per-instance state, so any two histograms merge by
     summing their count arrays — no rebinning, no retained samples. *)
  let sub_octave = 8
  let lo_ms = 1e-3
  let hi_ms = 1e6

  (* log2(hi/lo) * sub_octave interior buckets, plus an underflow bucket
     (index 0, everything <= lo including non-positive values) and an
     overflow bucket (last index, everything >= hi). *)
  let interior =
    int_of_float (Float.ceil (Float.log2 (hi_ms /. lo_ms) *. float_of_int sub_octave))

  let buckets = interior + 2

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make buckets 0; total = 0 }

  let bucket_of ms =
    if ms <= lo_ms then 0
    else if ms >= hi_ms then buckets - 1
    else
      let i = int_of_float (Float.log2 (ms /. lo_ms) *. float_of_int sub_octave) in
      1 + max 0 (min (interior - 1) i)

  (* Lower edge of bucket [i]; the value a percentile query reports.
     Reporting the edge (not a midpoint) keeps the estimate a value that
     is provably <= the true nearest-rank percentile's bucket upper
     bound, i.e. within one bucket ratio (2^(1/8) ~ 9%) of exact. *)
  let bucket_floor i =
    if i <= 0 then 0.0
    else if i >= buckets - 1 then hi_ms
    else lo_ms *. Float.pow 2.0 (float_of_int (i - 1) /. float_of_int sub_octave)

  let add t ms =
    let i = bucket_of ms in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let count t = t.total

  (* Pure merge: a fresh histogram holding both samples.  Associative
     and commutative by construction (elementwise integer sums), which
     is what lets per-worker histograms fold in any order. *)
  let merge a b =
    { counts = Array.map2 ( + ) a.counts b.counts; total = a.total + b.total }

  (* In-place variant for the hot path (a worker folding a request into
     its own histogram uses [add]; the stats emitter folds workers into
     an accumulator with this). *)
  let merge_into ~into src =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.total <- into.total + src.total

  let copy t = { counts = Array.copy t.counts; total = t.total }
  let counts t = Array.copy t.counts

  (* Nearest-rank percentile over the bucket counts, mirroring
     {!percentile}: the lower edge of the bucket holding the rank-th
     sample; 0.0 on an empty histogram. *)
  let percentile p t =
    if t.total = 0 then 0.0
    else begin
      let rank =
        max 1 (min t.total (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.total))))
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < buckets do
        seen := !seen + t.counts.(!i);
        incr i
      done;
      bucket_floor (!i - 1)
    end

  let p50 t = percentile 50.0 t
  let p95 t = percentile 95.0 t
  let p99 t = percentile 99.0 t
end

(* ------------------------------------------------------------------ *)
(* Mergeable named counters                                            *)

module Counters = struct
  (* Entries in first-use order: a bump finds its key in a short list and
     updates it in place; only a new key rebuilds the list. *)
  type entry = { key : string; mutable v : int }
  type t = { mutable entries : entry list }

  let rec find key = function
    | [] -> None
    | e :: rest -> if String.equal e.key key then Some e else find key rest

  let add t key n =
    match find key t.entries with
    | Some e -> e.v <- e.v + n
    | None -> t.entries <- t.entries @ [ { key; v = n } ]

  let create keys =
    let t = { entries = [] } in
    List.iter (fun k -> add t k 0) keys;
    t

  let get t key = match find key t.entries with Some e -> e.v | None -> 0

  let to_list t = List.map (fun e -> (e.key, e.v)) t.entries

  let merge_into ~into src = List.iter (fun e -> add into e.key e.v) src.entries

  (* Pure merge: [a]'s keys in their order, then [b]'s new ones in
     theirs.  Values are sums, so merging is associative, and commutative
     up to that order. *)
  let merge a b =
    let t = create [] in
    merge_into ~into:t a;
    merge_into ~into:t b;
    t

  let render t =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (to_list t))
end
