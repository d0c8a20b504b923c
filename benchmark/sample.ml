(* Order statistics over samples of one metric.

   Failed or refused requests enter latency samples as [infinity]: they
   sort last, so they push percentiles up and miss every latency limit. *)

let sorted xs = List.sort Float.compare xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spreads this harness prints
   are the ones an external check of the same values recomputes. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      (* no interpolation at delta 0, where 0 * infinity would be nan *)
      if delta = 0 then a.(j - 1)
      else ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(* The highest nearest-rank percentile that still has at least [beyond]
   samples above it: the sorted sample at 0-based rank [n - 1 - beyond].
   Returns [(percentile, value)], or [None] when the sample has fewer
   than [beyond + 1] values and no such percentile exists. *)
let tail ?(beyond = 10) xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n <= beyond then None
  else
    let k = n - 1 - beyond in
    Some (100.0 *. float_of_int (k + 1) /. float_of_int n, a.(k))

let geomean = function
  | [] -> Float.nan
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
