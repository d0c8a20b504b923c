(** Programs are trees of zero-overhead hardware loops (Hexagon-style
    [loop0]/[loop1]) whose leaves are straight-line sequences of VLIW
    packets.  The compiler emits one program per DNN operator.

    Because packets never overlap (paper footnote 5) the execution time of
    a program is a purely static quantity: the trip-count-weighted sum of
    packet cycles.  The timing reported by the functional simulator
    ({!Gcd2_vm.Machine}) agrees with {!static_cycles} by construction. *)

(* Programs (with the Packet.t / Instr.t inside) are marshaled into
   compile artifacts: any change to these types' layout requires updating
   Gcd2_store.Artifact.layout, or stale cache entries decode as garbage. *)
type node =
  | Block of Packet.t list
  | Loop of { trip : int; body : node list }

type t = {
  name : string;
  nodes : node list;
  tables : (int * int array) list;
      (** lookup tables for {!Instr.Vlut}: id -> 256 byte values *)
}

let make ?(tables = []) name nodes = { name; nodes; tables }

(* Identity for decode caches (the VM's).  Programs are
   marshaled into compile artifacts and compared structurally by tests, so
   identity must NOT be a stamped id field: a counter would make two
   compiles of the same model produce unequal programs and would collide
   across [Marshal] round-trips.  Instead identity is physical equality —
   the only notion that survives both — bucketed by a cheap bounded
   structural hash. *)
let identity_hash (t : t) = Hashtbl.hash t
let same (a : t) (b : t) = a == b

(* Trip-count-weighted sum of a per-packet integer measure. *)
let sum_packets measure t =
  let rec go nodes =
    List.fold_left
      (fun acc node ->
        match node with
        | Block packets -> acc + List.fold_left (fun a p -> a + measure p) 0 packets
        | Loop { trip; body } -> acc + (trip * go body))
      0 nodes
  in
  go t.nodes

(** Total execution cycles (packets never overlap). *)
let static_cycles ~desc t = sum_packets (Packet.cycles ~desc) t

(** Dynamic packet count. *)
let packet_count t = sum_packets (fun _ -> 1) t

(** Dynamic instruction count. *)
let instr_count t = sum_packets List.length t

(** Dynamic 8-bit multiply-accumulate count. *)
let macs t = sum_packets (fun p -> List.fold_left (fun a i -> a + Instr.macs i) 0 p) t

let packet_bytes select p =
  List.fold_left
    (fun a i ->
      match Instr.mem_access i with
      | Some m -> a + select m
      | None -> a)
    0 p

(** Bytes read from memory over the whole execution. *)
let load_bytes t =
  sum_packets
    (packet_bytes (function Instr.Mem_load (_, n) -> n | Instr.Mem_store _ -> 0))
    t

(** Bytes written to memory over the whole execution. *)
let store_bytes t =
  sum_packets
    (packet_bytes (function Instr.Mem_store (_, n) -> n | Instr.Mem_load _ -> 0))
    t

(** Static (unweighted) packet count of the innermost blocks — the metric
    the paper reports in Figure 7 (right). *)
let static_packet_count t =
  let rec go nodes =
    List.fold_left
      (fun acc node ->
        match node with
        | Block packets -> acc + List.length packets
        | Loop { trip = _; body } -> acc + go body)
      0 nodes
  in
  go t.nodes

let rec pp_node ppf = function
  | Block packets ->
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list Packet.pp) packets
  | Loop { trip; body } ->
    Fmt.pf ppf "@[<v2>loop (trip=%d) {@,%a@]@,}" trip Fmt.(list pp_node) body

let pp ppf t =
  Fmt.pf ppf "@[<v2>program %s {@,%a@]@,}" t.name Fmt.(list pp_node) t.nodes
