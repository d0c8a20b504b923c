(* Everything a workload draws at random, as a function of the seed:
   the same seed gives the same model order, weights, inputs and serve
   traffic.

   Serve traffic: keys are the 20 (zoo model, device) pairs in zoo
   order, and key rank r is drawn with zipf(s) weight 1/(r+1)^s.  The
   ranking is the same for every seed: which model is hot decides how
   long a warm request takes, so a seeded ranking would make the
   latency a property of the seed.  Arrivals are Poisson at [rate] per
   second, assigned round-robin to [conns] connections. *)

module Rng = Gcd2_util.Rng

let devices = [ "hexagon698"; "hexagon-g2" ]

type request = {
  due : float;  (** seconds after the schedule starts *)
  key : int;  (** index into the keyspace *)
  conn : int;
}

(* A generator per purpose, so changing how one input is drawn never
   shifts another. *)
let rng ~seed purpose = Rng.create (Hashtbl.hash (seed, purpose))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Request lines in zipf-rank order: rank 0 is the hottest key. *)
let keys =
  Array.of_list
    (List.concat_map
       (fun model -> List.map (fun d -> Printf.sprintf "%s device=%s" model d) devices)
       Gcd2_models.Zoo.names)

let zipf_cdf n s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf u =
  let n = Array.length cdf in
  let rec find i = if i >= n - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

let schedule ~seed ~rate ~seconds ~conns ~nkeys ~zipf_s =
  let arrivals = rng ~seed "arrivals" and picks = rng ~seed "keys" in
  let cdf = zipf_cdf nkeys zipf_s in
  let rec go t i acc =
    let t = t -. (log (1.0 -. Rng.float arrivals) /. rate) in
    if t >= seconds then List.rev acc
    else
      let q = { due = t; key = draw cdf (Rng.float picks); conn = i mod conns } in
      go t (i + 1) (q :: acc)
  in
  Array.of_list (go 0.0 0 [])
