(** VLIW instruction packing.

    {!pack} with {!strategy} [Sda] is the paper's Algorithm 1 — the
    Soft-Dependency-Aware packer.  It packs bottom-up: each round finds the
    critical path of the remaining IDG, seeds a packet with the path's last
    unpacked instruction, then repeatedly adds the highest-scoring {e free}
    instruction (one whose every remaining successor is already in the
    packet via a soft edge) that satisfies the slot/resource constraints.
    The score of a candidate [i] is the paper's Equation 4:
    {v  i.score = (i.order + i.pred) * w - |hi_lat - i.lat| * (1 - w)  v}
    minus a penalty [p(i, packet)] when [i] has a soft dependency with a
    packet member (lines 27-28 of Algorithm 1).

    [Soft_to_hard] treats every soft dependency as hard (no co-packing),
    and [Soft_to_none] removes the penalty term only — the two ablations of
    the paper's Figure 11.  [List_topdown] is a conventional latency-
    weighted list scheduler that does not distinguish soft dependencies,
    standing in for the LLVM packetizer used by Halide/TVM/RAKE.

    Two implementations live here.  The optimized one (the default) keeps
    freeness as per-instruction blocking-successor counters and a ready
    set, walks the critical path incrementally over the IDG's [cover]
    edges, checks packet legality on slot bitmasks and the IDG's O(1) kind
    matrix, and scores stall penalties with a tiny ≤4-member chain DP
    instead of two from-scratch {!Packet.stall} recomputations.
    {!pack_reference} is the original direct transcription of Algorithm 1,
    kept as the executable specification: both produce {e identical}
    packet lists (same order, same tie-breaks — both pick the highest
    score and, among equal scores, the highest index), which the property
    tests in the test suite pin across random blocks and every strategy. *)

open Gcd2_isa

type strategy =
  | Sda of { w : float; p : float }
      (** [w] weights depth vs latency-matching in Equation 4; [p] scales
          the soft-dependency stall penalty (both "empirically decided" in
          the paper) *)
  | Soft_to_hard
  | Soft_to_none
  | List_topdown
  | In_order
      (** LLVM-packetizer-like baseline: scan the emitted instruction
          sequence in order, appending to the open packet while legal
          (soft dependencies treated as hard), never reordering — the
          packing the paper ascribes to the stock backends *)

let default_w = 0.3
let default_p = 4.0

(** The tuned SDA configuration. *)
let sda = Sda { w = default_w; p = default_p }

let pp_strategy ppf = function
  | Sda { w; p } -> Fmt.pf ppf "sda(w=%.2f,p=%.1f)" w p
  | Soft_to_hard -> Fmt.string ppf "soft_to_hard"
  | Soft_to_none -> Fmt.string ppf "soft_to_none"
  | List_topdown -> Fmt.string ppf "list_topdown"
  | In_order -> Fmt.string ppf "in_order"

(* Members of a packet are kept as ascending instruction indices so that
   program order inside the packet is preserved. *)
let insert_sorted i members =
  let rec go = function
    | [] -> [ i ]
    | j :: rest when j < i -> j :: go rest
    | rest -> i :: rest
  in
  go members

(* ------------------------------------------------------------------ *)
(* Matrix-backed packet queries (members ascending = program order, so
   the pair (i, j) with i < j is exactly the program-order pair the
   reference asks Dep.classify about).                                 *)

(* Packet.stall over member indices: longest penalty-weighted soft chain,
   via O(1) matrix lookups.  Packets hold <= 4 members, so the list DP
   carries its own (index, chain-stall) pairs. *)
let stall_of idg members =
  let rec go acc earlier = function
    | [] -> acc
    | j :: rest ->
      let e =
        List.fold_left
          (fun e (i, ei) ->
            match Idg.edge idg i j with
            | Some (Dep.Soft pen) when ei + pen > e -> ei + pen
            | _ -> e)
          0 earlier
      in
      go (max acc e) ((j, e) :: earlier) rest
  in
  go 0 [] members

(* Packet.cycles over member indices. *)
let members_cycles idg members =
  match members with
  | [] -> 0
  | _ ->
    List.fold_left (fun m i -> max m idg.Idg.lat.(i)) 0 members + stall_of idg members

let hard_between idg i j = if i < j then Idg.hard idg i j else Idg.hard idg j i
let soft_between idg i j = if i < j then Idg.soft idg i j else Idg.soft idg j i
let edge_between idg i j = if i < j then Idg.edge idg i j else Idg.edge idg j i

(* Has [i] a hard (soft) edge with one of [members]? *)
let rec hard_with idg i = function
  | [] -> false
  | m :: ms -> hard_between idg m i || hard_with idg i ms

let rec soft_with idg i = function
  | [] -> false
  | m :: ms -> soft_between idg m i || soft_with idg i ms

(* ------------------------------------------------------------------ *)
(* The bottom-up packing loop of Algorithm 1 (specialised by soft-edge
   treatment), incremental version.

   Freeness bookkeeping: blockers.(i) counts the successors of i that
   still pin it — alive successors not absorbed into the open packet
   through a soft edge.  An alive non-member is free iff its count is 0.
   Joining the packet unpins soft predecessors (unless as_hard);
   retiring at the end of the round unpins the rest, so every edge is
   decremented exactly once over the lifetime of its successor.  The free
   non-members are kept in an unordered ready set: a vertex enters it
   when its count reaches 0 and leaves it when it joins a packet.

   Per round, the seed comes from one {!Idg.critical_seed} walk over the
   alive vertices and [cover] edges.  Per slot step, only the ready set is
   scanned.  The reference scans candidates in ascending index order and
   replaces the best on [score >= best], so it picks the highest score
   and, among equal scores, the highest index; comparing (score, index)
   picks the same candidate in any scan order.  A candidate's legality is
   its hard edges to the members plus slot feasibility, which depends on
   the candidate only through its slot mask, so it is decided once per
   mask.  A candidate with no soft edge to a member adds no stall (its
   chain term is 0 and it extends no member's chain), so the stall DP
   runs only for the others. *)
let pack_bottom_up ~desc ~w ~pscale ~as_hard ~penalize ~gate idg =
  let n = Idg.size idg in
  let alive = Array.make n true in
  let blockers = Array.map Array.length idg.Idg.succ in
  (* the ready set is [ready.(0 .. nready - 1)], and [at.(i)] is [i]'s slot *)
  let ready = Array.make n 0 and at = Array.make n 0 and nready = ref 0 in
  let make_ready i =
    ready.(!nready) <- i;
    at.(i) <- !nready;
    incr nready
  in
  let unpin p =
    blockers.(p) <- blockers.(p) - 1;
    if blockers.(p) = 0 then make_ready p
  in
  Array.iteri (fun i b -> if b = 0 then make_ready i) blockers;
  (* [i] (ready) joins the open packet *)
  let join i =
    decr nready;
    let last = ready.(!nready) in
    ready.(at.(i)) <- last;
    at.(last) <- at.(i);
    if not as_hard then
      Array.iter (fun p -> if Idg.soft idg p i then unpin p) idg.Idg.pred.(i)
  in
  let paths = Idg.paths idg in
  (* [fits.(mask)] is valid for the slot step numbered [fits_step.(mask)] *)
  let masks = Array.fold_left max 0 idg.Idg.slot_mask + 1 in
  let fits = Array.make masks false and fits_step = Array.make masks (-1) in
  let step = ref 0 in
  let remaining = ref n in
  let packets = ref [] in
  while !remaining > 0 do
    let seed = Idg.critical_seed idg paths alive in
    let members = ref [ seed ] in
    let mcount = ref 1 in
    let hi_lat = ref idg.Idg.lat.(seed) in
    let cur_stall = ref 0 in
    join seed;
    let full = ref false in
    while (not !full) && !mcount < Packet.capacity desc do
      (* select_instruction of Algorithm 1 *)
      incr step;
      let member_masks = List.map (fun m -> idg.Idg.slot_mask.(m)) !members in
      let slots_fit i =
        let mask = idg.Idg.slot_mask.(i) in
        if fits_step.(mask) <> !step then begin
          fits_step.(mask) <- !step;
          fits.(mask) <- Packet.masks_feasible ~desc (mask :: member_masks)
        end;
        fits.(mask)
      in
      let best = ref (-1) and best_score = ref neg_infinity in
      for k = 0 to !nready - 1 do
        let i = ready.(k) in
        if (not (hard_with idg i !members)) && slots_fit i then begin
          let lat = idg.Idg.lat.(i) in
          let score =
            (float_of_int (idg.Idg.order.(i) + idg.Idg.ancestors.(i)) *. w)
            -. (float_of_int (abs (!hi_lat - lat)) *. (1.0 -. w))
          in
          let soft = penalize && soft_with idg i !members in
          let stall =
            if soft then max 0 (stall_of idg (insert_sorted i !members) - !cur_stall) else 0
          in
          let score = if soft then score -. (pscale *. float_of_int stall) else score in
          (* Economic gate (part of the penalty mechanism): once the packet
             has real contents, refuse candidates whose stall would cost as
             much as issuing them in a later packet's free slot. *)
          if
            (not (gate && stall >= 2 && !mcount >= 2))
            && (score > !best_score || (score = !best_score && i > !best))
          then begin
            best := i;
            best_score := score
          end
        end
      done;
      if !best < 0 then full := true
      else begin
        let i = !best in
        members := insert_sorted i !members;
        incr mcount;
        if idg.Idg.lat.(i) > !hi_lat then hi_lat := idg.Idg.lat.(i);
        join i;
        cur_stall := stall_of idg !members
      end
    done;
    List.iter
      (fun i ->
        alive.(i) <- false;
        Array.iter (fun p -> if as_hard || Idg.hard idg p i then unpin p) idg.Idg.pred.(i);
        decr remaining)
      !members;
    (* Packets are created exit-first; collecting with (::) restores program
       order. *)
    packets := !members :: !packets
  done;
  !packets

(* Conventional top-down list scheduling, all dependencies treated as hard
   (the behaviour the paper ascribes to the Halide/TVM/RAKE backends). *)
let pack_list_topdown ~desc idg =
  let n = Idg.size idg in
  (* Priority: heaviest latency path to the exit. *)
  let weight = Array.make n 0 in
  for i = n - 1 downto 0 do
    weight.(i) <- idg.Idg.lat.(i);
    Array.iter
      (fun j -> weight.(i) <- max weight.(i) (idg.Idg.lat.(i) + weight.(j)))
      idg.Idg.succ.(i)
  done;
  let scheduled = Array.make n false in
  let unpreds = Array.map Array.length idg.Idg.pred in
  let done_count = ref 0 in
  let packets = ref [] in
  while !done_count < n do
    let members = ref [] in
    let progress = ref true in
    while !progress && List.length !members < Packet.capacity desc do
      progress := false;
      let best = ref None in
      for i = 0 to n - 1 do
        if
          (not scheduled.(i))
          && (not (List.mem i !members))
          && unpreds.(i) = 0
          && (* all dependencies hard: no co-packing with any dependence *)
          List.for_all (fun j -> edge_between idg i j = None) !members
          && Packet.masks_feasible ~desc
               (idg.Idg.slot_mask.(i)
               :: List.map (fun m -> idg.Idg.slot_mask.(m)) !members)
        then
          match !best with
          | Some (_, bw) when weight.(i) <= bw -> ()
          | _ -> best := Some (i, weight.(i))
      done;
      match !best with
      | Some (i, _) ->
        members := insert_sorted i !members;
        progress := true
      | None -> ()
    done;
    (match !members with
    | [] ->
      (* Cannot happen: some unscheduled instruction always has unpreds = 0. *)
      assert false
    | ms ->
      List.iter
        (fun i ->
          scheduled.(i) <- true;
          incr done_count;
          Array.iter (fun j -> unpreds.(j) <- unpreds.(j) - 1) idg.Idg.succ.(i))
        ms;
      packets := ms :: !packets)
  done;
  List.rev !packets

(* The in-order packetizer: no reordering; a packet closes as soon as the
   next instruction cannot join it (any dependency with a member counts,
   soft included). *)
let pack_in_order ~desc idg =
  let n = Idg.size idg in
  let packets = ref [] and cur = ref [] in
  for i = 0 to n - 1 do
    let ok =
      List.for_all (fun j -> edge_between idg i j = None) !cur
      && Packet.masks_feasible ~desc
           (idg.Idg.slot_mask.(i) :: List.map (fun m -> idg.Idg.slot_mask.(m)) !cur)
    in
    if ok then cur := insert_sorted i !cur
    else begin
      if !cur <> [] then packets := !cur :: !packets;
      cur := [ i ]
    end
  done;
  if !cur <> [] then packets := !cur :: !packets;
  List.rev !packets

module Trace = Gcd2_util.Trace

(* Strategy dispatch over a prebuilt IDG (built once per block — the Sda
   dual-policy run shares it).  The IDG must have been built with the same
   [desc]. *)
let pack_indices_idg ~desc strategy idg =
  match strategy with
  | Sda { w; p } ->
    (* The stall penalty pays off in slot-saturated code (avoid stalls,
       other instructions will fill the packet) and hurts in
       dependence-bound code (a stall is cheaper than an extra packet).
       The penalty is "empirically decided" (the paper); we decide it
       per block by packing under both policies and keeping the cheaper
       schedule. *)
    let with_gate =
      pack_bottom_up ~desc ~w ~pscale:p ~as_hard:false ~penalize:true ~gate:true idg
    in
    let without =
      pack_bottom_up ~desc ~w ~pscale:0.0 ~as_hard:false ~penalize:true ~gate:false idg
    in
    let cost packets =
      List.fold_left (fun acc members -> acc + members_cycles idg members) 0 packets
    in
    if cost with_gate <= cost without then with_gate else without
  | Soft_to_hard ->
    pack_bottom_up ~desc ~w:default_w ~pscale:0.0 ~as_hard:true ~penalize:false
      ~gate:false idg
  | Soft_to_none ->
    pack_bottom_up ~desc ~w:default_w ~pscale:0.0 ~as_hard:false ~penalize:false
      ~gate:false idg
  | List_topdown -> pack_list_topdown ~desc idg
  | In_order -> pack_in_order ~desc idg

(* A packed block as bytes: its stall count, then per packet the member
   count and the members, each a LEB128 varint — one or two bytes per
   instruction where the [int list list] takes six words. *)
let encode ~stalls packets =
  let b = Buffer.create 64 in
  let rec varint x =
    if x < 0x80 then Buffer.add_char b (Char.chr x)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (x land 0x7f)));
      varint (x lsr 7)
    end
  in
  varint stalls;
  List.iter
    (fun members ->
      varint (List.length members);
      List.iter varint members)
    packets;
  Buffer.contents b

let decode s =
  let pos = ref 0 in
  let rec varint shift acc =
    let c = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else varint (shift + 7) acc
  in
  let rec members k = if k = 0 then [] else let m = varint 0 0 in m :: members (k - 1) in
  let rec packets acc =
    if !pos = String.length s then List.rev acc
    else packets (members (varint 0 0) :: acc)
  in
  let stalls = varint 0 0 in
  (stalls, packets [])

(* Packing is deterministic in (device, strategy, the block's dependence
   projection): {!Idg.build} reads each instruction only through its
   {!Dep.info}, and every strategy packs from the IDG alone.  A cold
   compile packs the same shape many times over — kernels of different
   specs share inner blocks, a kernel repeats its own, and blocks that
   differ only in immediates (buffer bases, pointer strides,
   requantization constants) project to one shape — so each distinct
   shape is packed once per process.  The key holds the projection as
   its marshaled bytes ([No_sharing]: a pure function of its structure),
   and the value is {!encode}d, so an entry retains a few bytes per
   instruction.  The projection is marshaled as a list, not an array: an
   array of more than 256 words is allocated in the major heap, and the
   young records stored into it would all be promoted at the next minor
   collection, which made a hit on a tuned kernel's block several times
   dearer than the marshaling itself. *)
let memo : (Gcd2_devices.Desc.t * strategy * string, string) Gcd2_util.Memo.t =
  Gcd2_util.Memo.create "pack"

(** [pack_indices strategy instrs] packs one basic block (given in program
    order) and returns packets as ascending instruction-index lists. *)
let pack_indices ~desc strategy instrs =
  if Array.length instrs = 0 then []
  else begin
    let infos = List.init (Array.length instrs) (fun k -> Dep.info instrs.(k)) in
    let key = (desc, strategy, Marshal.to_string infos [ Marshal.No_sharing ]) in
    let stalls, packets =
      decode
      @@ Gcd2_util.Memo.find_or_add memo key (fun () ->
             Trace.in_span "pack" @@ fun () ->
             let g = Idg.build ~desc (Array.of_list infos) in
             let packets = pack_indices_idg ~desc strategy g in
             encode
               ~stalls:(List.fold_left (fun acc members -> acc + stall_of g members) 0 packets)
               packets)
    in
    (* Observability: how many packets this schedule issues and how many
       stall cycles its soft co-packings pay, on a hit as on a miss. *)
    Trace.count "packets" (List.length packets);
    Trace.count "stalls" stalls;
    packets
  end

(** [pack strategy instrs] packs one basic block (given in program order)
    into a legal packet sequence. *)
let pack ~desc strategy instrs =
  List.map (fun members -> List.map (fun i -> instrs.(i)) members)
    (pack_indices ~desc strategy instrs)

(** Total cycles of a packed block (no overlap between packets). *)
let block_cycles ~desc packets =
  List.fold_left (fun a p -> a + Packet.cycles ~desc p) 0 packets

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)

(* The pre-optimization packer, kept verbatim as the executable
   specification of the incremental one above: per-candidate freeness
   rescans over the successor lists, Packet.legal / Packet.stall on
   rebuilt instruction lists.  Property tests assert [pack_reference]
   and [pack] return identical packet lists for every strategy; the
   pack-scaling micro-benchmark measures the gap. *)
module Reference = struct
  (* An instruction is free when every still-alive successor sits in the
     current packet through a soft edge (treating members as being packed).
     Under [as_hard], soft edges forbid co-packing too, so freedom requires
     every successor to be already retired. *)
  let free ~as_hard idg alive members i =
    alive.(i)
    && (not (List.mem i members))
    && Array.for_all
         (fun j ->
           (not alive.(j))
           || (List.mem j members
               && (match Idg.edge idg i j with Some (Dep.Soft _) -> not as_hard | _ -> false)))
         idg.Idg.succ.(i)

  let has_soft_with_members idg members i =
    let touches j =
      let kind_between a b = if a < b then Idg.edge idg a b else None in
      match (kind_between i j, kind_between j i) with
      | Some (Dep.Soft _), _ | _, Some (Dep.Soft _) -> true
      | _ -> false
    in
    List.exists touches members

  let to_packet instrs members = List.map (fun i -> instrs.(i)) members

  (* Penalty p(i, packet): the additional stall the packet would suffer if i
     joined — the exact quantity the hardware will pay. *)
  let stall_penalty instrs members i =
    let before = Packet.stall (to_packet instrs members) in
    let after = Packet.stall (to_packet instrs (insert_sorted i members)) in
    max 0 (after - before)

  (* select_instruction of Algorithm 1. *)
  let select_instruction ~desc ~w ~pscale ~penalize ~gate instrs idg alive ~as_hard members =
    let n = Idg.size idg in
    let hi_lat =
      List.fold_left (fun m j -> max m (Instr.latency_on desc instrs.(j))) 0 members
    in
    let best = ref None in
    for i = 0 to n - 1 do
      if free ~as_hard idg alive members i then begin
        let cand = insert_sorted i members in
        if Packet.legal ~desc (to_packet instrs cand) then begin
          let lat = Instr.latency_on desc instrs.(i) in
          let score =
            (float_of_int (idg.Idg.order.(i) + idg.Idg.ancestors.(i)) *. w)
            -. (float_of_int (abs (hi_lat - lat)) *. (1.0 -. w))
          in
          let stall = stall_penalty instrs members i in
          let score =
            if penalize && has_soft_with_members idg members i then
              score -. (pscale *. float_of_int stall)
            else score
          in
          if penalize && gate && stall >= 2 && List.length members >= 2 then ()
          else
            match !best with
            | Some (_, best_score) when score < best_score -> ()
            | _ -> best := Some (i, score)
        end
      end
    done;
    Option.map fst !best

  (* The heaviest alive path, from scratch over every edge: the
     definition {!Idg.critical_seed} computes incrementally. *)
  let critical_path idg alive =
    let n = Idg.size idg in
    let down = Array.make n 0 and next = Array.make n (-1) in
    for i = n - 1 downto 0 do
      if alive.(i) then begin
        down.(i) <- idg.Idg.lat.(i);
        Array.iter
          (fun j ->
            if alive.(j) && down.(i) < idg.Idg.lat.(i) + down.(j) then begin
              down.(i) <- idg.Idg.lat.(i) + down.(j);
              next.(i) <- j
            end)
          idg.Idg.succ.(i)
      end
    done;
    let start = ref (-1) in
    for i = 0 to n - 1 do
      if alive.(i) && (!start = -1 || down.(i) > down.(!start)) then start := i
    done;
    let rec walk i acc = if i = -1 then List.rev acc else walk next.(i) (i :: acc) in
    walk !start []

  let pack_bottom_up ~desc ~w ~pscale ~as_hard ~penalize ~gate instrs =
    let idg = Idg.build ~desc (Array.map Dep.info instrs) in
    let n = Idg.size idg in
    let alive = Array.make n true in
    let remaining = ref n in
    let packets = ref [] in
    while !remaining > 0 do
      let path = critical_path idg alive in
      let seed =
        match List.rev path with
        | s :: _ -> s
        | [] -> assert false
      in
      let members = ref [ seed ] in
      let full = ref false in
      while (not !full) && List.length !members < Packet.capacity desc do
        match
          select_instruction ~desc ~w ~pscale ~penalize ~gate instrs idg alive ~as_hard
            !members
        with
        | Some i -> members := insert_sorted i !members
        | None -> full := true
      done;
      List.iter
        (fun i ->
          alive.(i) <- false;
          decr remaining)
        !members;
      packets := !members :: !packets
    done;
    !packets

  let pack_list_topdown ~desc instrs =
    let idg = Idg.build ~desc (Array.map Dep.info instrs) in
    let n = Idg.size idg in
    let weight = Array.make n 0 in
    for i = n - 1 downto 0 do
      weight.(i) <- Instr.latency_on desc instrs.(i);
      Array.iter
        (fun j -> weight.(i) <- max weight.(i) (Instr.latency_on desc instrs.(i) + weight.(j)))
        idg.Idg.succ.(i)
    done;
    let scheduled = Array.make n false in
    let unpreds = Array.map Array.length idg.Idg.pred in
    let done_count = ref 0 in
    let packets = ref [] in
    while !done_count < n do
      let members = ref [] in
      let progress = ref true in
      while !progress && List.length !members < Packet.capacity desc do
        progress := false;
        let best = ref None in
        for i = 0 to n - 1 do
          if
            (not scheduled.(i))
            && (not (List.mem i !members))
            && unpreds.(i) = 0
            && List.for_all
                 (fun j ->
                   (not (Array.mem j idg.Idg.succ.(i)))
                   && not (Array.mem i idg.Idg.succ.(j)))
                 !members
            && Packet.legal ~desc (to_packet instrs (insert_sorted i !members))
          then
            match !best with
            | Some (_, bw) when weight.(i) <= bw -> ()
            | _ -> best := Some (i, weight.(i))
        done;
        match !best with
        | Some (i, _) ->
          members := insert_sorted i !members;
          progress := true
        | None -> ()
      done;
      match !members with
      | [] -> assert false
      | ms ->
        List.iter
          (fun i ->
            scheduled.(i) <- true;
            incr done_count;
            Array.iter (fun j -> unpreds.(j) <- unpreds.(j) - 1) idg.Idg.succ.(i))
          ms;
        packets := ms :: !packets
    done;
    List.rev !packets

  let pack_in_order ~desc instrs =
    let idg = Idg.build ~desc (Array.map Dep.info instrs) in
    let n = Idg.size idg in
    let packets = ref [] and cur = ref [] in
    let depends i j =
      Array.mem j idg.Idg.succ.(i) || Array.mem i idg.Idg.succ.(j)
    in
    for i = 0 to n - 1 do
      let ok =
        List.for_all (fun j -> not (depends i j)) !cur
        && Packet.legal ~desc (to_packet instrs (insert_sorted i !cur))
      in
      if ok then cur := insert_sorted i !cur
      else begin
        if !cur <> [] then packets := !cur :: !packets;
        cur := [ i ]
      end
    done;
    if !cur <> [] then packets := !cur :: !packets;
    List.rev !packets
end

(** The pre-optimization packer (the executable specification): returns
    the same packet-index lists as {!pack_indices}, recomputed the
    original O(n)-rescan way.  For tests and benchmarks. *)
let pack_indices_reference ~desc strategy instrs =
  if Array.length instrs = 0 then []
  else
    match strategy with
    | Sda { w; p } ->
      let with_gate =
        Reference.pack_bottom_up ~desc ~w ~pscale:p ~as_hard:false ~penalize:true
          ~gate:true instrs
      in
      let without =
        Reference.pack_bottom_up ~desc ~w ~pscale:0.0 ~as_hard:false ~penalize:true
          ~gate:false instrs
      in
      let cost packets =
        List.fold_left
          (fun acc members ->
            acc + Packet.cycles ~desc (List.map (fun i -> instrs.(i)) members))
          0 packets
      in
      if cost with_gate <= cost without then with_gate else without
    | Soft_to_hard ->
      Reference.pack_bottom_up ~desc ~w:default_w ~pscale:0.0 ~as_hard:true
        ~penalize:false ~gate:false instrs
    | Soft_to_none ->
      Reference.pack_bottom_up ~desc ~w:default_w ~pscale:0.0 ~as_hard:false
        ~penalize:false ~gate:false instrs
    | List_topdown -> Reference.pack_list_topdown ~desc instrs
    | In_order -> Reference.pack_in_order ~desc instrs

(** Reference {!pack}. *)
let pack_reference ~desc strategy instrs =
  List.map (fun members -> List.map (fun i -> instrs.(i)) members)
    (pack_indices_reference ~desc strategy instrs)
