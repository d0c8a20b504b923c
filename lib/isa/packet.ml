(** VLIW packets: up to four instructions issued together.

    Instructions inside a packet are kept in program order; the machine
    executes them "in parallel" but, because hard-dependent instructions
    are never co-packed, program-order evaluation inside a packet computes
    exactly what the interlocked hardware computes.

    A packet is legal when (1) a slot assignment exists under the
    {!Iclass.slot_mask_on} constraints, and (2) no two members have a hard
    dependency.  Its cost is the maximum member latency plus the stalls
    induced by intra-packet soft-dependency chains (paper Figure 4) —
    packets do not overlap (paper footnote 5). *)

type t = Instr.t list

module Desc = Gcd2_devices.Desc

let max_size = 4

(** Packet capacity of a device (instructions issued per cycle). *)
let capacity (d : Desc.t) = d.Desc.slot_count

(* Exact slot-assignment check over {!Iclass.slot_mask_on} bitmasks: does
   an injective map of instructions to the device's slots exist?
   Backtracking over at most [slot_count] masks; existence is
   order-independent, so callers may pass masks in any order.  This is
   the packer's hot legality primitive — no lists, no [Instr.t] in
   sight. *)
let masks_feasible ~desc masks =
  let rec assign used = function
    | [] -> true
    | m :: rest ->
      let avail = ref (m land lnot used) and ok = ref false in
      while (not !ok) && !avail <> 0 do
        let bit = !avail land - !avail in
        avail := !avail land lnot bit;
        if assign (used lor bit) rest then ok := true
      done;
      !ok
  in
  List.length masks <= capacity desc && assign 0 masks

(** Does a slot assignment exist for these instructions? *)
let slots_feasible ~desc instrs =
  masks_feasible ~desc (List.map (fun i -> Iclass.slot_mask_on desc (Instr.iclass i)) instrs)

(* Hard dependencies forbid co-packing. *)
let rec no_hard_pairs = function
  | [] -> true
  | i :: rest ->
    List.for_all (fun j -> Dep.classify i j <> Some Dep.Hard) rest
    && no_hard_pairs rest

(** A packet is legal iff it fits the slots and contains no hard
    dependency. *)
let legal ~desc instrs = slots_feasible ~desc instrs && no_hard_pairs instrs

(** [stall p] — extra cycles caused by intra-packet soft-dependency chains:
    the longest penalty-weighted soft path inside the packet. *)
let stall (p : t) =
  let arr = Array.of_list p in
  let n = Array.length arr in
  let extra = Array.make n 0 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      match Dep.classify arr.(i) arr.(j) with
      | Some (Dep.Soft pen) -> extra.(j) <- max extra.(j) (extra.(i) + pen)
      | Some Dep.Hard | None -> ()
    done
  done;
  Array.fold_left max 0 extra

(** Issue-to-completion cycles of the packet: max latency + soft stalls.
    The empty packet costs nothing. *)
let cycles ~desc (p : t) =
  match p with
  | [] -> 0
  | _ -> List.fold_left (fun m i -> max m (Instr.latency_on desc i)) 0 p + stall p

let pp ppf (p : t) =
  Fmt.pf ppf "{ %a }" Fmt.(list ~sep:(any "; ") Instr.pp) p
