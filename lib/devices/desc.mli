(** First-class machine descriptions — the one way a device reaches the
    compiler: every machine-dependent layer takes one as a required
    argument.  See the implementation's module documentation for the
    design contract and the fixed instruction-class order of the
    per-class arrays. *)

type t = {
  name : string;
  slot_count : int;  (** packet capacity: instructions issued per cycle *)
  slot_masks : int array;
      (** per instruction class, in the order
          [salu, smul, ld, st, valu, vmpy, vmpy+, vshift, vperm]
          (mirrored by [Gcd2_isa.Iclass.index]): bit [s] set iff slot [s]
          is allowed *)
  latencies : int array;  (** per class, same order: issue-to-writeback cycles *)
  vector_bytes : int;  (** HVX vector register width *)
  vector_count : int;  (** vector register file size *)
  scalar_count : int;  (** scalar register file size *)
  vtcm_bytes : int;  (** tightly-coupled vector memory capacity *)
  ddr_bytes_per_cycle : float;  (** sustained DDR bandwidth *)
  gather_bytes_per_cycle : float;  (** TCM/L2 staging bandwidth *)
  model_cycles_per_sec : float;
      (** model-cycle → wall-clock calibration (ResNet-50 at the paper's
          ~7 ms on hexagon698) *)
}

val iclass_count : int

(** The paper's Hexagon-698 cDSP — the device the simulator executes; its
    fields equal the historical global constants exactly. *)
val hexagon698 : t

(** A hypothetical wider-HVX successor: 2× vector width, a fifth
    vector-capable issue slot, 2× DDR and gather bandwidth. *)
val hexagon_g2 : t

val builtins : t list
val names : string list

(** Case-insensitive lookup among {!builtins}. *)
val find : string -> t option

(** Like {!find}; raises [Invalid_argument] with the known names when
    unknown. *)
val get : string -> t

(** [$GCD2_DEVICE] when set (unknown value raises), {!hexagon698}
    otherwise.  The CLI resolves its default device through this; the
    library never reads it. *)
val default : unit -> t

(** Raises [Invalid_argument] on an inconsistent descriptor. *)
val validate : t -> unit

val equal : t -> t -> bool

(** Exact canonical rendering of every field (floats in hex) — the form
    {!Gcd2_store.Fingerprint} folds into request digests. *)
val canonical : t -> string

(** Lowercase-hex MD5 of {!canonical}. *)
val digest : t -> string

val ms_of_cycles : t -> float -> float
val cycles_of_us : t -> float -> float
val cycles_of_ms : t -> float -> float

(** Wall-clock-referred effective tera-ops (2 ops per MAC). *)
val tops : t -> macs:int -> cycles:float -> float

val pp : Format.formatter -> t -> unit
