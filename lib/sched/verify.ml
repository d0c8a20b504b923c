(** Independent validity checker for packet schedules, used by the test
    suite (including property-based tests): whatever packing strategy
    produced a schedule, it must be a dependence-respecting partition of
    the block into legal packets. *)

open Gcd2_isa

type error =
  | Not_a_partition
  | Illegal_packet of int
  | Ordering_violation of { producer : int; consumer : int }

let pp_error ppf = function
  | Not_a_partition -> Fmt.string ppf "packets are not a partition of the block"
  | Illegal_packet k -> Fmt.pf ppf "packet %d violates slot or hard-dependency rules" k
  | Ordering_violation { producer; consumer } ->
    Fmt.pf ppf "instruction %d is scheduled after its consumer %d" producer consumer

(** [check instrs packets] — [packets] as returned by
    {!Packer.pack_indices}, validated against the device's slot rules. *)
let check ~desc instrs (packets : int list list) =
  Gcd2_util.Trace.in_span "verify" @@ fun () ->
  let n = Array.length instrs in
  let position = Array.make n (-1) in
  (* packet index of every instruction; also checks the partition. *)
  let ok_partition =
    let seen = Array.make n false in
    List.iteri
      (fun k members ->
        List.iter
          (fun i ->
            if i >= 0 && i < n && not seen.(i) then begin
              seen.(i) <- true;
              position.(i) <- k
            end)
          members)
      packets;
    Array.for_all (fun b -> b) seen
    && List.fold_left (fun a p -> a + List.length p) 0 packets = n
  in
  if not ok_partition then Error Not_a_partition
  else begin
    let idg = Idg.build ~desc (Array.map Dep.info instrs) in
    let bad_packet = ref None in
    List.iteri
      (fun k members ->
        let sorted = List.sort compare members = members in
        let packet = List.map (fun i -> instrs.(i)) members in
        if (not sorted) || not (Packet.legal ~desc packet) then
          if !bad_packet = None then bad_packet := Some k)
      packets;
    match !bad_packet with
    | Some k -> Error (Illegal_packet k)
    | None ->
      let violation = ref None in
      Array.iteri
        (fun i succs ->
          Array.iter
            (fun j ->
              let bad =
                match Idg.edge idg i j with
                | Some Dep.Hard -> position.(i) >= position.(j)
                | _ -> position.(i) > position.(j)
              in
              if bad && !violation = None then
                violation := Some (Ordering_violation { producer = i; consumer = j }))
            succs)
        idg.Idg.succ;
      (match !violation with Some e -> Error e | None -> Ok ())
  end
