(** Programs: trees of zero-overhead hardware loops whose leaves are
    straight-line packet sequences.  Because packets never overlap, every
    cost below is a static quantity that the simulator's dynamic counters
    match exactly. *)

(** Marshaled into compile artifacts: any layout change (here or in
    {!Packet}/{!Instr}) requires updating {!Gcd2_store.Artifact}[.layout],
    or stale cache entries decode as garbage. *)
type node =
  | Block of Packet.t list
  | Loop of { trip : int; body : node list }

type t = {
  name : string;
  nodes : node list;
  tables : (int * int array) list;
      (** lookup tables for {!Instr.Vlut}: id -> 256 byte values *)
}

val make : ?tables:(int * int array) list -> string -> node list -> t

(** Identity for decode caches (e.g. {!Gcd2_vm.Machine}'s decode
    cache).  [same] is physical equality — programs are marshaled into
    compile artifacts and compared structurally by tests, so a stamped
    id field is off the table; physical identity is the only notion that
    survives both.  [identity_hash] is a cheap bounded structural hash,
    usable only to bucket candidates that [same] then confirms. *)
val identity_hash : t -> int

val same : t -> t -> bool

(** Total execution cycles under the device's latencies. *)
val static_cycles : desc:Gcd2_devices.Desc.t -> t -> int

(** Dynamic (trip-weighted) packet count. *)
val packet_count : t -> int

(** Dynamic instruction count. *)
val instr_count : t -> int

(** Dynamic 8-bit multiply-accumulate count. *)
val macs : t -> int

(** Bytes read from / written to memory over the whole execution. *)
val load_bytes : t -> int

val store_bytes : t -> int

(** Static packet count (ignores trip counts) — the paper's Figure 7
    metric. *)
val static_packet_count : t -> int

val pp : Format.formatter -> t -> unit
