(** First-class machine descriptions.

    A {!t} is the pure-data description of one VLIW DSP target: issue
    slots and per-class slot masks, instruction latencies, vector width,
    register-file sizes, memory bandwidths and the clock calibration.
    It is the one way a device reaches the compiler: every layer that
    depends on the machine (isa, sched, tensor, codegen, cost) takes a
    descriptor as a required argument, so no default silently picks a
    device.  {!hexagon698}'s fields equal the historical global
    constants, so it reproduces the seed bit for bit.  The simulator
    executes hexagon698 only ([Gcd2_vm.Machine.executable]).

    The descriptor is deliberately dumb data — no functions, no
    closures — so it can serve as (part of) memo keys
    ({!Gcd2_util.Memo} needs structural equality) and be rendered
    canonically into cache fingerprints ({!canonical}, {!digest}).

    {b Instruction-class order.}  [slot_masks] and [latencies] are
    indexed by instruction class, in the fixed order

    {v 0 salu, 1 smul, 2 ld, 3 st, 4 valu, 5 vmpy, 6 vmpy+, 7 vshift, 8 vperm v}

    mirrored by [Gcd2_isa.Iclass.index] (the ISA layer sits above this
    one, so the contract is by documented index, not by type). *)

type t = {
  name : string;
  slot_count : int;  (** packet capacity: instructions issued per cycle *)
  slot_masks : int array;
      (** per class (see order above): bit [s] set iff slot [s] allowed *)
  latencies : int array;  (** per class: issue-to-writeback cycles *)
  vector_bytes : int;  (** HVX vector register width *)
  vector_count : int;  (** vector register file size *)
  scalar_count : int;  (** scalar register file size *)
  vtcm_bytes : int;  (** tightly-coupled vector memory capacity *)
  ddr_bytes_per_cycle : float;  (** sustained DDR bandwidth *)
  gather_bytes_per_cycle : float;  (** TCM/L2 staging bandwidth *)
  model_cycles_per_sec : float;
      (** model-cycle → wall-clock calibration.  The machine model follows
          the paper's timing rules literally (packets never overlap,
          footnote 5), undercounting the silicon's inter-packet
          pipelining; this constant maps model cycles to wall clock and is
          calibrated once so GCD2's ResNet-50 lands at the paper's ~7 ms.
          Every compared system scales by it identically. *)
}

let iclass_count = 9

(** The paper's Hexagon-698 cDSP: four slots, 128-byte HVX vectors, the
    slot map and latencies of [Gcd2_isa.Iclass]'s module documentation,
    ~30 GB/s DDR (one byte per model cycle).  Its field values equal the
    historical global constants exactly. *)
let hexagon698 =
  {
    name = "hexagon698";
    slot_count = 4;
    (*                 salu smul ld st valu vmpy vmpy+ vshift vperm *)
    slot_masks = [| 0b1111; 0b1100; 0b0011; 0b0001; 0b1110; 0b1100; 0b1100; 0b0100; 0b1000 |];
    latencies = [| 3; 4; 4; 3; 3; 4; 6; 3; 3 |];
    vector_bytes = 128;
    vector_count = 32;
    scalar_count = 32;
    vtcm_bytes = 256 * 1024;
    ddr_bytes_per_cycle = 1.0;
    gather_bytes_per_cycle = 8.0;
    model_cycles_per_sec = 30.0e9;
  }

(** A hypothetical wider-HVX successor: 2× vector width, a fifth issue
    slot that every vector class may use, and 2× DDR / gather bandwidth.
    Scalar resources, latencies and the clock are unchanged, so every
    difference against {!hexagon698} is attributable to width, issue and
    bandwidth. *)
let hexagon_g2 =
  {
    name = "hexagon-g2";
    slot_count = 5;
    (* vector classes gain slot 4; scalar classes keep the 698 map *)
    slot_masks =
      [| 0b01111; 0b01100; 0b00011; 0b00001; 0b11110; 0b11100; 0b11100; 0b10100; 0b11000 |];
    latencies = [| 3; 4; 4; 3; 3; 4; 6; 3; 3 |];
    vector_bytes = 256;
    vector_count = 32;
    scalar_count = 32;
    vtcm_bytes = 512 * 1024;
    ddr_bytes_per_cycle = 2.0;
    gather_bytes_per_cycle = 16.0;
    model_cycles_per_sec = 30.0e9;
  }

let builtins = [ hexagon698; hexagon_g2 ]
let names = List.map (fun d -> d.name) builtins

let find name =
  let lc = String.lowercase_ascii name in
  List.find_opt (fun d -> String.lowercase_ascii d.name = lc) builtins

let get name =
  match find name with
  | Some d -> d
  | None ->
    invalid_arg
      (Fmt.str "unknown device %S (known: %s)" name (String.concat ", " names))

(** The ambient default device: [$GCD2_DEVICE] when set (unknown names
    raise [Invalid_argument]), {!hexagon698} otherwise.  Only the CLI
    reads it; the library takes its device as an argument, so the env var
    never changes what a library caller computes. *)
let default () =
  match Sys.getenv_opt "GCD2_DEVICE" with
  | None | Some "" -> hexagon698
  | Some name -> get name

let validate d =
  if d.name = "" then invalid_arg "Desc: empty name";
  if d.slot_count < 1 || d.slot_count > 16 then invalid_arg "Desc: bad slot_count";
  if Array.length d.slot_masks <> iclass_count || Array.length d.latencies <> iclass_count
  then invalid_arg "Desc: class arrays must have one entry per instruction class";
  let all_slots = (1 lsl d.slot_count) - 1 in
  Array.iter
    (fun m ->
      if m = 0 then invalid_arg "Desc: a class with no slot can never issue";
      if m land lnot all_slots <> 0 then invalid_arg "Desc: slot mask exceeds slot_count")
    d.slot_masks;
  Array.iter (fun l -> if l < 1 then invalid_arg "Desc: latency must be positive") d.latencies;
  (* panels subdivide the vector by 1/2/4 and kernels pack 4-byte words *)
  if d.vector_bytes < 4 || d.vector_bytes mod 4 <> 0 then
    invalid_arg "Desc: vector_bytes must be a positive multiple of 4";
  if d.vector_count < 4 || d.scalar_count < 4 then invalid_arg "Desc: register file too small";
  (* the tile generator needs room for at least one panel's working set *)
  if d.vtcm_bytes < 16 * d.vector_bytes then invalid_arg "Desc: vtcm_bytes too small";
  if d.ddr_bytes_per_cycle <= 0.0 || d.gather_bytes_per_cycle <= 0.0 then
    invalid_arg "Desc: bandwidths must be positive";
  if d.model_cycles_per_sec <= 0.0 then invalid_arg "Desc: clock must be positive"

let equal (a : t) b = a = b

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)

(** Exact canonical rendering of the full descriptor — every field, in
    declaration order, floats in hex so nothing is rounded.  This string
    is what {!Gcd2_store.Fingerprint} folds into the request digest:
    two descriptors render equal iff they are structurally equal, so
    cache entries can never collide across targets. *)
let canonical d =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  add "device{name=";
  add d.name;
  add (Printf.sprintf ";slots=%d" d.slot_count);
  add ";masks=[";
  add (ints d.slot_masks);
  add "];lat=[";
  add (ints d.latencies);
  add (Printf.sprintf "];vb=%d;vregs=%d;sregs=%d;vtcm=%d" d.vector_bytes d.vector_count
         d.scalar_count d.vtcm_bytes);
  add (Printf.sprintf ";ddr=%h;gather=%h;cps=%h}" d.ddr_bytes_per_cycle
         d.gather_bytes_per_cycle d.model_cycles_per_sec);
  Buffer.contents buf

(** Lowercase-hex MD5 of {!canonical} — the short content-address used
    to tag per-device memo keys and reports. *)
let digest d = Stdlib.Digest.to_hex (Stdlib.Digest.string (canonical d))

(* ------------------------------------------------------------------ *)
(* Derived timing helpers                                              *)

let ms_of_cycles d cycles = cycles /. (d.model_cycles_per_sec /. 1e3)
let cycles_of_us d us = us *. d.model_cycles_per_sec /. 1e6
let cycles_of_ms d ms = ms *. d.model_cycles_per_sec /. 1e3

(** Effective tera-ops (2 ops per MAC) for a node that executes [macs]
    MACs in [cycles] — wall-clock-referred through the device's clock,
    comparable to the paper's "1.51 TOPS for an individual layer". *)
let tops d ~macs ~cycles =
  if cycles <= 0.0 then 0.0
  else 2.0 *. float_of_int macs /. (cycles /. d.model_cycles_per_sec) /. 1e12

let pp ppf d =
  Fmt.pf ppf "%s (%d slots, %dB vectors, %.1f B/cyc DDR)" d.name d.slot_count d.vector_bytes
    d.ddr_bytes_per_cycle
