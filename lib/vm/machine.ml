(** Functional + timing simulator for the DSP of {!Gcd2_isa}.

    Instructions inside a packet are evaluated in program order.  Hard-
    dependent instructions are never co-packed (checked by the schedule
    verifier), and for the soft dependencies that {e are} co-packed the
    interlocked pipeline of the real machine produces exactly the
    program-order result, so this evaluation order is faithful.

    Timing: each executed packet contributes {!Gcd2_isa.Packet.cycles}
    (max member latency + soft-dependency stalls); packets do not overlap
    (paper footnote 5).  The cycle counter therefore always equals
    {!Gcd2_isa.Program.static_cycles} of the executed program — a property
    the test suite checks.

    Two engines compute these semantics:

    - the {e reference} interpreter ({!exec_reference}/{!run_reference}):
      one dispatch per executed instruction, per-byte polymorphic register
      access — simple, obviously faithful, slow;
    - the {e translated} engine (the default {!run}): every instruction of
      a program is decoded {e once} into a closure specialized over the
      concrete [Bytes] windows of its operands (register numbers resolved,
      lane loops specialized per width with word-wide reads/writes, memory
      ops bounds-checked once per execution, [Vlut] tables resolved at
      decode time) and the closure is replayed on every execution — loop
      bodies are translated once and run [trip] times, and repeated
      {!run}s of the same program reuse the cached translation.  Every
      lane loop but [Vmpa]'s is C (lanes.c), in the same read/write
      order, built for the running CPU's vector unit ({!lanes_clone});
      [Vmpa]'s stays OCaml (DESIGN.md §3e says why).

    Both engines produce bit-identical registers, memory and counters (a
    qcheck differential property in the suite); any instruction shape the
    translator does not recognize falls back to a closure around the
    reference interpreter, so the fast path can never change semantics. *)

open Gcd2_isa
module Sat = Gcd2_util.Saturate
module Desc = Gcd2_devices.Desc

type counters = {
  mutable cycles : int;
  mutable packets : int;
  mutable instrs : int;
  mutable macs : int;  (** 8-bit multiply-accumulates executed *)
  mutable loaded_bytes : int;
  mutable stored_bytes : int;
}

type exec_fn = unit -> unit

type t = {
  sregs : int array;  (** 32 scalar registers, signed 32-bit values *)
  vregs : Bytes.t array;  (** 32 vector registers of 128 bytes *)
  mutable mem : Bytes.t;  (** physical backing store, may exceed mem_limit *)
  mutable mem_limit : int;
      (** logical memory size: all bounds checks use this, so a reused
          scratch machine behaves exactly like a fresh machine of this
          size even when the backing store is larger *)
  mutable tables : (int * int array) list;
  counters : counters;
  translations : (int, (Program.t * exec_fn) list) Hashtbl.t;
      (** decode cache: {!Gcd2_isa.Program.identity_hash} buckets,
          confirmed by {!Gcd2_isa.Program.same} *)
  mutable cached_translations : int;
}

(** Can this device's programs execute on the simulator?  The ISA
    semantics (lane counts, packet shapes, the translated engine's
    specialized loops) and the packet timing are hexagon698's; wider
    descriptors are costed analytically, never run. *)
let executable (d : Desc.t) =
  d.Desc.vector_bytes = Reg.vector_bytes
  && d.Desc.scalar_count = Reg.scalar_count
  && d.Desc.vector_count = Reg.vector_count

let create ?(mem_bytes = 1 lsl 22) () =
  {
    sregs = Array.make Reg.scalar_count 0;
    vregs = Array.init Reg.vector_count (fun _ -> Bytes.make Reg.vector_bytes '\000');
    mem = Bytes.make mem_bytes '\000';
    mem_limit = mem_bytes;
    tables = [];
    counters =
      { cycles = 0; packets = 0; instrs = 0; macs = 0; loaded_bytes = 0; stored_bytes = 0 };
    translations = Hashtbl.create 16;
    cached_translations = 0;
  }

let counters t = t.counters
let memory_size t = t.mem_limit

(* ------------------------------------------------------------------ *)
(* Register access                                                     *)

let get_sreg t = function
  | Reg.R n -> t.sregs.(n)
  | r -> invalid_arg (Fmt.str "get_sreg: %a is not scalar" Reg.pp r)

let set_sreg t r v =
  match r with
  | Reg.R n -> t.sregs.(n) <- Sat.wrap32 v
  | r -> invalid_arg (Fmt.str "set_sreg: %a is not scalar" Reg.pp r)

(* A vector operand is a list of (physical register, byte offset) windows;
   pairs span two registers. *)
let operand_bytes = function
  | Reg.V _ -> Reg.vector_bytes
  | Reg.P _ -> 2 * Reg.vector_bytes
  | Reg.R _ -> invalid_arg "vector operand expected"

let get_byte t r i =
  match r with
  | Reg.V n -> Char.code (Bytes.get t.vregs.(n) i)
  | Reg.P k ->
    if i < Reg.vector_bytes then Char.code (Bytes.get t.vregs.(2 * k) i)
    else Char.code (Bytes.get t.vregs.((2 * k) + 1) (i - Reg.vector_bytes))
  | Reg.R _ -> invalid_arg "get_byte: scalar register"

let set_byte t r i v =
  let c = Char.chr (v land 0xff) in
  match r with
  | Reg.V n -> Bytes.set t.vregs.(n) i c
  | Reg.P k ->
    if i < Reg.vector_bytes then Bytes.set t.vregs.(2 * k) i c
    else Bytes.set t.vregs.((2 * k) + 1) (i - Reg.vector_bytes) c
  | Reg.R _ -> invalid_arg "set_byte: scalar register"

let lane_bytes = Instr.width_bytes

(* Little-endian signed lane read/write at an arbitrary width. *)
let get_lane t r ~width l =
  let b = lane_bytes width in
  let base = l * b in
  let rec go i acc = if i = b then acc else go (i + 1) (acc lor (get_byte t r (base + i) lsl (8 * i))) in
  Sat.sign_extend ~bits:(8 * b) (go 0 0)

let set_lane t r ~width l v =
  let b = lane_bytes width in
  let base = l * b in
  for i = 0 to b - 1 do
    set_byte t r (base + i) ((v asr (8 * i)) land 0xff)
  done

let lane_count r width = operand_bytes r / lane_bytes width

(* ------------------------------------------------------------------ *)
(* Unchecked word access                                               *)

(* The compiler's unchecked, native-endian [Bytes] primitives: no bounds
   check, no byte swap, and the [int32] forms never box when converted
   to or from [int] on the spot.  Every use is in bounds by construction:
   the translated closures apply them to whole 128-byte register windows
   at lane offsets below 128, and memory accesses only after one bounds
   check of the whole transfer.  Native order is the simulated DSP's
   little-endian order only on a little-endian host, which module
   initialization checks once. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let () =
  if Sys.big_endian then
    failwith "Gcd2_vm.Machine: the simulator's word access needs a little-endian host"

(* Reads sign-extend like [get_lane]; writes store the low 8/16/32 bits
   like [set_lane], so a [p32] of an unwrapped sum is exactly
   [Sat.wrap32]. *)
let[@inline] sx8 v = (v lxor 0x80) - 0x80
let[@inline] s8 b i = sx8 (Char.code (Bytes.unsafe_get b i))
let[@inline] p8 b i v = Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff))
let[@inline] g16 b o = (get16u b o lxor 0x8000) - 0x8000
let[@inline] p16 b o v = set16u b o v
let[@inline] g32 b o = Int32.to_int (get32u b o)
let[@inline] p32 b o v = set32u b o (Int32.of_int v)
let[@inline] clamp16 v = if v < -32768 then -32768 else if v > 32767 then 32767 else v

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)

let effective_address t (a : Instr.addr) = get_sreg t a.base + a.offset

let check_bounds t addr size =
  if addr < 0 || addr + size > t.mem_limit then
    invalid_arg (Fmt.str "memory access out of bounds: [%d, %d)" addr (addr + size))

let mem_read32 t addr =
  check_bounds t addr 4;
  let b i = Char.code (Bytes.get t.mem (addr + i)) in
  Sat.sign_extend ~bits:32 (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

let mem_write32 t addr v =
  check_bounds t addr 4;
  for i = 0 to 3 do
    Bytes.set t.mem (addr + i) (Char.chr ((v asr (8 * i)) land 0xff))
  done

(* The staging helpers check the whole transfer once, then copy with
   unchecked accesses. *)

(** Stage an int8 array into memory at [addr] (one byte per element). *)
let write_i8_array t ~addr data =
  let n = Array.length data and mem = t.mem in
  check_bounds t addr n;
  for i = 0 to n - 1 do
    p8 mem (addr + i) (Array.unsafe_get data i)
  done

(** Read [len] int8 values from memory at [addr]. *)
let read_i8_array t ~addr ~len =
  check_bounds t addr len;
  let out = Array.make len 0 and mem = t.mem in
  for i = 0 to len - 1 do
    Array.unsafe_set out i (s8 mem (addr + i))
  done;
  out

(** Stage an int16 array into memory at [addr] (2 bytes per element,
    little endian) — 16-bit lane staging for the row-operator kernels. *)
let write_i16_array t ~addr data =
  let n = Array.length data and mem = t.mem in
  check_bounds t addr (2 * n);
  for i = 0 to n - 1 do
    p16 mem (addr + (2 * i)) (Array.unsafe_get data i)
  done

(** Stage an int32 array into memory at [addr] (4 bytes per element). *)
let write_i32_array t ~addr data =
  Array.iteri (fun i v -> mem_write32 t (addr + (4 * i)) v) data

let read_i32_array t ~addr ~len = Array.init len (fun i -> mem_read32 t (addr + (4 * i)))

let window t ~addr ~len =
  check_bounds t addr len;
  t.mem

(* ------------------------------------------------------------------ *)
(* Instruction semantics (reference interpreter)                       *)

let scalar_byte v m = Sat.sign_extend ~bits:8 ((v asr (8 * m)) land 0xff)

let operand_value t = function Instr.Reg r -> get_sreg t r | Instr.Imm i -> i

let exec_salu op a b =
  match op with
  | Instr.Add -> Sat.wrap32 (a + b)
  | Instr.Sub -> Sat.wrap32 (a - b)
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> Sat.wrap32 (a lsl (b land 31))
  | Instr.Shr -> a asr (b land 31)
  | Instr.Min -> min a b
  | Instr.Max -> max a b

let exec_valu op width a b =
  let sat =
    match width with Instr.W8 -> Sat.sat8 | Instr.W16 -> Sat.sat16 | Instr.W32 -> Sat.sat32
  in
  match op with
  | Instr.Vadd -> sat (a + b)
  | Instr.Vsub -> sat (a - b)
  | Instr.Vmax -> max a b
  | Instr.Vmin -> min a b
  | Instr.Vavg -> (a + b + 1) asr 1
  | Instr.Vand -> a land b
  | Instr.Vor -> a lor b
  | Instr.Vxor -> a lxor b

let exec_reference t instr =
  let c = t.counters in
  c.instrs <- c.instrs + 1;
  c.macs <- c.macs + Instr.macs instr;
  match instr with
  | Instr.Smovi (rd, imm) -> set_sreg t rd imm
  | Instr.Salu (op, rd, rs, o) -> set_sreg t rd (exec_salu op (get_sreg t rs) (operand_value t o))
  | Instr.Smul (rd, rs, o) -> set_sreg t rd (Sat.wrap32 (get_sreg t rs * operand_value t o))
  | Instr.Sload (rd, a) ->
    c.loaded_bytes <- c.loaded_bytes + 4;
    set_sreg t rd (mem_read32 t (effective_address t a))
  | Instr.Sstore (a, rs) ->
    c.stored_bytes <- c.stored_bytes + 4;
    mem_write32 t (effective_address t a) (get_sreg t rs)
  | Instr.Vload (vd, a) ->
    c.loaded_bytes <- c.loaded_bytes + Reg.vector_bytes;
    let addr = effective_address t a in
    (* bounds checked once for the whole transfer, then direct byte access *)
    check_bounds t addr Reg.vector_bytes;
    for i = 0 to Reg.vector_bytes - 1 do
      set_byte t vd i (Char.code (Bytes.get t.mem (addr + i)))
    done
  | Instr.Vstore (a, vs) ->
    c.stored_bytes <- c.stored_bytes + Reg.vector_bytes;
    let addr = effective_address t a in
    check_bounds t addr Reg.vector_bytes;
    for i = 0 to Reg.vector_bytes - 1 do
      Bytes.set t.mem (addr + i) (Char.chr (get_byte t vs i land 0xff))
    done
  | Instr.Vmovi (vd, v) ->
    for i = 0 to operand_bytes vd - 1 do
      set_byte t vd i v
    done
  | Instr.Valu (op, width, vd, va, vb) ->
    let n = lane_count vd width in
    for l = 0 to n - 1 do
      set_lane t vd ~width l
        (exec_valu op width (get_lane t va ~width l) (get_lane t vb ~width l))
    done
  | Instr.Vaddw (pd, vs) ->
    for l = 0 to Reg.lanes_16 - 1 do
      let acc = get_lane t pd ~width:Instr.W32 l in
      let x = get_lane t vs ~width:Instr.W16 l in
      set_lane t pd ~width:Instr.W32 l (Sat.wrap32 (acc + x))
    done
  | Instr.Vmpy (pd, vs, rt) ->
    let rt_v = get_sreg t rt in
    let lo, hi =
      match pd with
      | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
      | _ -> invalid_arg "Vmpy: destination must be a pair"
    in
    for i = 0 to Reg.lanes_8 - 1 do
      let a = Sat.sign_extend ~bits:8 (get_byte t vs i) in
      let prod = a * scalar_byte rt_v (i mod 4) in
      let dst = if i mod 2 = 0 then lo else hi in
      let l = i / 2 in
      set_lane t dst ~width:Instr.W16 l
        (Sat.sat16 (get_lane t dst ~width:Instr.W16 l + prod))
    done
  | Instr.Vmpyb (pd, vs, rt, sel) ->
    let rt_v = get_sreg t rt in
    let wv = scalar_byte rt_v sel in
    let lo, hi =
      match pd with
      | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
      | _ -> invalid_arg "Vmpyb: destination must be a pair"
    in
    for i = 0 to Reg.lanes_8 - 1 do
      let a = Sat.sign_extend ~bits:8 (get_byte t vs i) in
      let dst = if i mod 2 = 0 then lo else hi in
      let l = i / 2 in
      set_lane t dst ~width:Instr.W16 l
        (Sat.sat16 (get_lane t dst ~width:Instr.W16 l + (a * wv)))
    done
  | Instr.Vmul (pd, va, vb) ->
    let lo, hi =
      match pd with
      | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
      | _ -> invalid_arg "Vmul: destination must be a pair"
    in
    for i = 0 to Reg.lanes_8 - 1 do
      let a = Sat.sign_extend ~bits:8 (get_byte t va i) in
      let b = Sat.sign_extend ~bits:8 (get_byte t vb i) in
      let dst = if i mod 2 = 0 then lo else hi in
      let l = i / 2 in
      set_lane t dst ~width:Instr.W16 l
        (Sat.sat16 (get_lane t dst ~width:Instr.W16 l + (a * b)))
    done
  | Instr.Vmpa (pd, ps, rt) ->
    let rt_v = get_sreg t rt in
    let b m = scalar_byte rt_v m in
    let lo, hi =
      match pd with
      | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
      | _ -> invalid_arg "Vmpa: destination must be a pair"
    in
    let q0, q1 =
      match ps with
      | Reg.P k -> (Reg.V (2 * k), Reg.V ((2 * k) + 1))
      | _ -> invalid_arg "Vmpa: source must be a pair"
    in
    let s8 r i = Sat.sign_extend ~bits:8 (get_byte t r i) in
    for j = 0 to Reg.lanes_16 - 1 do
      let l = get_lane t lo ~width:Instr.W16 j in
      set_lane t lo ~width:Instr.W16 j
        (Sat.sat16 (l + (s8 q0 (2 * j) * b 0) + (s8 q1 (2 * j) * b 1)));
      let h = get_lane t hi ~width:Instr.W16 j in
      set_lane t hi ~width:Instr.W16 j
        (Sat.sat16 (h + (s8 q0 ((2 * j) + 1) * b 2) + (s8 q1 ((2 * j) + 1) * b 3)))
    done
  | Instr.Vrmpy (vd, vs, rt) ->
    let rt_v = get_sreg t rt in
    for l = 0 to Reg.lanes_32 - 1 do
      let acc = ref (get_lane t vd ~width:Instr.W32 l) in
      for m = 0 to 3 do
        let a = Sat.sign_extend ~bits:8 (get_byte t vs ((4 * l) + m)) in
        acc := !acc + (a * scalar_byte rt_v m)
      done;
      set_lane t vd ~width:Instr.W32 l (Sat.wrap32 !acc)
    done
  | Instr.Vscale (vd, vs, mult, shift) ->
    for l = 0 to Reg.lanes_32 - 1 do
      set_lane t vd ~width:Instr.W32 l
        (Sat.apply_multiplier (get_lane t vs ~width:Instr.W32 l) (mult, shift))
    done
  | Instr.Vscalev (vd, vs, vm, shift) ->
    for l = 0 to Reg.lanes_32 - 1 do
      let mult = get_lane t vm ~width:Instr.W32 l in
      set_lane t vd ~width:Instr.W32 l
        (Sat.apply_multiplier (get_lane t vs ~width:Instr.W32 l) (mult, shift))
    done
  | Instr.Vpack (vd, ps, w) ->
    (match w with
    | Instr.W32 ->
      for l = 0 to Reg.lanes_16 - 1 do
        set_lane t vd ~width:Instr.W16 l (Sat.sat16 (get_lane t ps ~width:Instr.W32 l))
      done
    | Instr.W16 ->
      for l = 0 to Reg.lanes_8 - 1 do
        set_lane t vd ~width:Instr.W8 l (Sat.sat8 (get_lane t ps ~width:Instr.W16 l))
      done
    | Instr.W8 -> invalid_arg "Vpack: cannot narrow 8-bit lanes")
  | Instr.Vshuff (pd, ps, width) ->
    let half = Reg.vector_bytes / lane_bytes width in
    (* Read the whole source pair first so pd = ps is well-defined. *)
    let src = Array.init (2 * half) (fun l -> get_lane t ps ~width l) in
    for i = 0 to half - 1 do
      set_lane t pd ~width (2 * i) src.(i);
      set_lane t pd ~width ((2 * i) + 1) src.(half + i)
    done
  | Instr.Vlut (vd, vs, id) ->
    let table =
      match List.assoc_opt id t.tables with
      | Some tbl -> tbl
      | None -> invalid_arg (Fmt.str "Vlut: unknown table %d" id)
    in
    let src = Array.init Reg.lanes_8 (fun i -> get_byte t vs i) in
    for i = 0 to Reg.lanes_8 - 1 do
      set_byte t vd i table.(src.(i) land 0xff)
    done
  | Instr.Vdup (vd, rs) ->
    let v = get_sreg t rs land 0xff in
    for i = 0 to operand_bytes vd - 1 do
      set_byte t vd i v
    done

(* Single-instruction stepping is inherently the reference path. *)
let exec = exec_reference

(* ------------------------------------------------------------------ *)
(* Reference program execution                                         *)

let exec_packet t (p : Packet.t) =
  t.counters.packets <- t.counters.packets + 1;
  t.counters.cycles <- t.counters.cycles + Packet.cycles ~desc:Desc.hexagon698 p;
  List.iter (exec_reference t) p

let rec exec_node t = function
  | Program.Block packets -> List.iter (exec_packet t) packets
  | Program.Loop { trip; body } ->
    for _ = 1 to trip do
      List.iter (exec_node t) body
    done

let run_reference t (prog : Program.t) =
  t.tables <- prog.Program.tables;
  List.iter (exec_node t) prog.Program.nodes

(* ------------------------------------------------------------------ *)
(* Translated execution engine                                         *)

(* Decode-time specialization of the scalar ALU: the reference's
   [exec_salu] matches on the op every execution; here the binary
   function is resolved once per decoded instruction.  The 32-bit wrap
   stays at the write like [set_sreg] does. *)
let salu_fn op : int -> int -> int =
  match op with
  | Instr.Add -> ( + )
  | Instr.Sub -> ( - )
  | Instr.And -> ( land )
  | Instr.Or -> ( lor )
  | Instr.Xor -> ( lxor )
  | Instr.Shl -> fun a b -> a lsl (b land 31)
  | Instr.Shr -> fun a b -> a asr (b land 31)
  | Instr.Min -> fun a b -> if a < b then a else b
  | Instr.Max -> fun a b -> if a > b then a else b

(* [Sat.wrap32] as one sign extension of the low 32 bits. *)
let[@inline] wrap32 v = Int32.to_int (Int32.of_int v)

(* Decode-time operand resolution.  [None] means the operand does not
   have the shape the specialized closure expects (wrong register kind or
   an out-of-range index); the instruction then falls back to the
   reference interpreter, which raises or misbehaves in exactly the
   documented way — at execution time, not decode time. *)
let sreg_index = function
  | Reg.R n when n >= 0 && n < Reg.scalar_count -> Some n
  | _ -> None

(* First-128-bytes window: whole V register, or the low half of a pair
   (all byte-lane reads/writes below 128 land there). *)
let low_window t = function
  | Reg.V n when n >= 0 && n < Reg.vector_count -> Some t.vregs.(n)
  | Reg.P k when k >= 0 && (2 * k) + 1 < Reg.vector_count -> Some t.vregs.(2 * k)
  | _ -> None

let pair_windows t = function
  | Reg.P k when k >= 0 && (2 * k) + 1 < Reg.vector_count ->
    Some (t.vregs.(2 * k), t.vregs.((2 * k) + 1))
  | _ -> None

(* Every 128-byte segment of the operand, in ascending lane order. *)
let all_segments t = function
  | Reg.V n when n >= 0 && n < Reg.vector_count -> Some [| t.vregs.(n) |]
  | Reg.P k when k >= 0 && (2 * k) + 1 < Reg.vector_count ->
    Some [| t.vregs.(2 * k); t.vregs.((2 * k) + 1) |]
  | _ -> None

(* The four sign-extended bytes of a scalar operand. *)
let[@inline] sbyte rv m = sx8 ((rv asr (8 * m)) land 0xff)

(* Every lane loop but [Vmpa]'s runs in C (lanes.c), over the same
   register windows the other closures use.  Arguments are tagged ints,
   [Bytes.t] and, for [Vlut], the table's [int array], read in place:
   nothing allocates, so the calls are [noalloc]. *)
external vrmpy_lanes : Bytes.t -> Bytes.t -> int -> unit = "gcd2_vm_vrmpy" [@@noalloc]
external vmpy_lanes : Bytes.t -> Bytes.t -> Bytes.t -> int -> unit = "gcd2_vm_vmpy" [@@noalloc]

external vmpyb_lanes : Bytes.t -> Bytes.t -> Bytes.t -> int -> int -> unit = "gcd2_vm_vmpyb"
[@@noalloc]

external vmul_lanes : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit = "gcd2_vm_vmul"
[@@noalloc]

external vaddw_lanes : Bytes.t -> Bytes.t -> Bytes.t -> unit = "gcd2_vm_vaddw" [@@noalloc]

external vpack_w32_lanes : Bytes.t -> Bytes.t -> Bytes.t -> unit = "gcd2_vm_vpack_w32"
[@@noalloc]

external vpack_w16_lanes : Bytes.t -> Bytes.t -> Bytes.t -> unit = "gcd2_vm_vpack_w16"
[@@noalloc]

external vscale_lanes : Bytes.t -> Bytes.t -> int -> int -> unit = "gcd2_vm_vscale" [@@noalloc]

external vscalev_lanes : Bytes.t -> Bytes.t -> Bytes.t -> int -> unit = "gcd2_vm_vscalev"
[@@noalloc]

(* One 128-byte segment of a [Valu]: destination, sources, op, width. *)
external valu_lanes : Bytes.t -> Bytes.t -> Bytes.t -> int -> int -> unit = "gcd2_vm_valu"
[@@noalloc]

external vshuff_lanes : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> int -> unit
  = "gcd2_vm_vshuff"
[@@noalloc]

external vlut_lanes : Bytes.t -> Bytes.t -> int array -> unit = "gcd2_vm_vlut" [@@noalloc]
external lanes_clone : unit -> string = "gcd2_vm_lanes_clone"

(* The C side's op and width numbering. *)
let valu_index = function
  | Instr.Vadd -> 0
  | Instr.Vsub -> 1
  | Instr.Vmax -> 2
  | Instr.Vmin -> 3
  | Instr.Vavg -> 4
  | Instr.Vand -> 5
  | Instr.Vor -> 6
  | Instr.Vxor -> 7

let width_index = function Instr.W8 -> 0 | Instr.W16 -> 1 | Instr.W32 -> 2

(* Translate one instruction into a specialized closure.  Counter updates
   are baked in per instruction (not per packet) so that even a program
   aborted mid-packet by a bounds fault leaves counters bit-identical to
   the reference interpreter.  Lane loops, in C or [Vmpa]'s here,
   preserve the reference's exact read/write order, which is what makes
   aliased operands (e.g. a source vector inside the destination pair)
   behave identically. *)
let translate_instr t ~tables (instr : Instr.t) : exec_fn =
  let c = t.counters in
  let s = t.sregs in
  let vb = Reg.vector_bytes in
  let fallback = fun () -> exec_reference t instr in
  match instr with
  | Instr.Smovi (rd, imm) -> (
    match sreg_index rd with
    | Some d ->
      let v = wrap32 imm in
      fun () ->
        c.instrs <- c.instrs + 1;
        Array.unsafe_set s d v
    | None -> fallback)
  | Instr.Salu (op, rd, rs, o) -> (
    match (sreg_index rd, sreg_index rs, o) with
    | Some d, Some r, Instr.Imm i ->
      let f = salu_fn op in
      fun () ->
        c.instrs <- c.instrs + 1;
        Array.unsafe_set s d (wrap32 (f (Array.unsafe_get s r) i))
    | Some d, Some r, Instr.Reg ro -> (
      match sreg_index ro with
      | Some oi ->
        let f = salu_fn op in
        fun () ->
          c.instrs <- c.instrs + 1;
          Array.unsafe_set s d (wrap32 (f (Array.unsafe_get s r) (Array.unsafe_get s oi)))
      | None -> fallback)
    | _ -> fallback)
  | Instr.Smul (rd, rs, o) -> (
    match (sreg_index rd, sreg_index rs, o) with
    | Some d, Some r, Instr.Imm i ->
      fun () ->
        c.instrs <- c.instrs + 1;
        Array.unsafe_set s d (wrap32 (Array.unsafe_get s r * i))
    | Some d, Some r, Instr.Reg ro -> (
      match sreg_index ro with
      | Some oi ->
        fun () ->
          c.instrs <- c.instrs + 1;
          Array.unsafe_set s d (wrap32 (Array.unsafe_get s r * Array.unsafe_get s oi))
      | None -> fallback)
    | _ -> fallback)
  | Instr.Sload (rd, a) -> (
    match (sreg_index rd, sreg_index a.Instr.base) with
    | Some d, Some b ->
      let off = a.Instr.offset in
      fun () ->
        c.instrs <- c.instrs + 1;
        c.loaded_bytes <- c.loaded_bytes + 4;
        let addr = Array.unsafe_get s b + off in
        check_bounds t addr 4;
        Array.unsafe_set s d (g32 t.mem addr)
    | _ -> fallback)
  | Instr.Sstore (a, rs) -> (
    match (sreg_index a.Instr.base, sreg_index rs) with
    | Some b, Some r ->
      let off = a.Instr.offset in
      fun () ->
        c.instrs <- c.instrs + 1;
        c.stored_bytes <- c.stored_bytes + 4;
        let addr = Array.unsafe_get s b + off in
        check_bounds t addr 4;
        p32 t.mem addr (Array.unsafe_get s r)
    | _ -> fallback)
  | Instr.Vload (vd, a) -> (
    match (low_window t vd, sreg_index a.Instr.base) with
    | Some dst, Some b ->
      let off = a.Instr.offset in
      fun () ->
        c.instrs <- c.instrs + 1;
        c.loaded_bytes <- c.loaded_bytes + vb;
        let addr = Array.unsafe_get s b + off in
        check_bounds t addr vb;
        Bytes.blit t.mem addr dst 0 vb
    | _ -> fallback)
  | Instr.Vstore (a, vs) -> (
    match (low_window t vs, sreg_index a.Instr.base) with
    | Some src, Some b ->
      let off = a.Instr.offset in
      fun () ->
        c.instrs <- c.instrs + 1;
        c.stored_bytes <- c.stored_bytes + vb;
        let addr = Array.unsafe_get s b + off in
        check_bounds t addr vb;
        Bytes.blit src 0 t.mem addr vb
    | _ -> fallback)
  | Instr.Vmovi (vd, v) -> (
    match all_segments t vd with
    | Some segs ->
      let ch = Char.chr (v land 0xff) and nseg = Array.length segs in
      fun () ->
        c.instrs <- c.instrs + 1;
        for sg = 0 to nseg - 1 do
          Bytes.unsafe_fill (Array.unsafe_get segs sg) 0 vb ch
        done
    | None -> fallback)
  | Instr.Valu (op, width, vd, va, vb') -> (
    let op = valu_index op and w = width_index width in
    match (all_segments t vd, all_segments t va, all_segments t vb') with
    | Some [| d |], Some [| a |], Some [| b |] ->
      fun () ->
        c.instrs <- c.instrs + 1;
        valu_lanes d a b op w
    | Some [| d0; d1 |], Some [| a0; a1 |], Some [| b0; b1 |] ->
      fun () ->
        c.instrs <- c.instrs + 1;
        valu_lanes d0 a0 b0 op w;
        valu_lanes d1 a1 b1 op w
    | _ -> fallback)
  | Instr.Vaddw (pd, vs) -> (
    match (pair_windows t pd, low_window t vs) with
    | Some (lo, hi), Some src ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vaddw_lanes lo hi src
    | _ -> fallback)
  | Instr.Vmpy (pd, vs, rt) -> (
    match (pair_windows t pd, low_window t vs, sreg_index rt) with
    | Some (lo, hi), Some src, Some rti ->
      fun () ->
        c.instrs <- c.instrs + 1;
        c.macs <- c.macs + 128;
        vmpy_lanes lo hi src (Array.unsafe_get s rti)
    | _ -> fallback)
  | Instr.Vmpyb (pd, vs, rt, sel) -> (
    match (pair_windows t pd, low_window t vs, sreg_index rt) with
    | Some (lo, hi), Some src, Some rti when sel >= 0 && sel <= 3 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        c.macs <- c.macs + 128;
        vmpyb_lanes lo hi src (Array.unsafe_get s rti) sel
    | _ -> fallback)
  | Instr.Vmul (pd, va, vbr) -> (
    match (pair_windows t pd, low_window t va, low_window t vbr) with
    | Some (lo, hi), Some ab, Some bb ->
      fun () ->
        c.instrs <- c.instrs + 1;
        c.macs <- c.macs + 128;
        vmul_lanes lo hi ab bb
    | _ -> fallback)
  | Instr.Vmpa (pd, ps, rt) -> (
    match (pair_windows t pd, pair_windows t ps, sreg_index rt) with
    | Some (lo, hi), Some (q0, q1), Some rti ->
      fun () ->
        c.instrs <- c.instrs + 1;
        c.macs <- c.macs + 256;
        let rv = Array.unsafe_get s rti in
        let b0 = sbyte rv 0 and b1 = sbyte rv 1 and b2 = sbyte rv 2 and b3 = sbyte rv 3 in
        for j = 0 to 63 do
          let o = 2 * j in
          p16 lo o (clamp16 (g16 lo o + (s8 q0 o * b0) + (s8 q1 o * b1)));
          p16 hi o (clamp16 (g16 hi o + (s8 q0 (o + 1) * b2) + (s8 q1 (o + 1) * b3)))
        done
    | _ -> fallback)
  | Instr.Vrmpy (vd, vs, rt) -> (
    match (low_window t vd, low_window t vs, sreg_index rt) with
    | Some dst, Some src, Some rti ->
      fun () ->
        c.instrs <- c.instrs + 1;
        c.macs <- c.macs + 128;
        vrmpy_lanes dst src (Array.unsafe_get s rti)
    | _ -> fallback)
  | Instr.Vscale (vd, vs, mult, shift) -> (
    (* C emulates the reference's 63-bit arithmetic for shifts 0..62;
       OCaml leaves larger shifts unspecified. *)
    match (low_window t vd, low_window t vs) with
    | Some dst, Some src when shift >= 0 && shift <= 62 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vscale_lanes dst src mult shift
    | _ -> fallback)
  | Instr.Vscalev (vd, vs, vm, shift) -> (
    match (low_window t vd, low_window t vs, low_window t vm) with
    | Some dst, Some src, Some mb when shift >= 0 && shift <= 62 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vscalev_lanes dst src mb shift
    | _ -> fallback)
  | Instr.Vpack (vd, ps, w) -> (
    match (low_window t vd, pair_windows t ps, w) with
    | Some dst, Some (plo, phi), Instr.W32 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vpack_w32_lanes dst plo phi
    | Some dst, Some (plo, phi), Instr.W16 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vpack_w16_lanes dst plo phi
    | _, _, _ -> fallback)
  | Instr.Vshuff (pd, ps, width) -> (
    match (pair_windows t pd, pair_windows t ps) with
    | Some (dlo, dhi), Some (slo, shi) ->
      let w = width_index width in
      fun () ->
        c.instrs <- c.instrs + 1;
        vshuff_lanes dlo dhi slo shi w
    | _ -> fallback)
  | Instr.Vlut (vd, vs, id) -> (
    match (low_window t vd, low_window t vs, List.assoc_opt id tables) with
    | Some dst, Some src, Some table when Array.length table >= 256 ->
      fun () ->
        c.instrs <- c.instrs + 1;
        vlut_lanes dst src table
    | _ -> fallback)
  | Instr.Vdup (vd, rs) -> (
    match (all_segments t vd, sreg_index rs) with
    | Some segs, Some ri ->
      let nseg = Array.length segs in
      fun () ->
        c.instrs <- c.instrs + 1;
        let ch = Char.unsafe_chr (Array.unsafe_get s ri land 0xff) in
        for sg = 0 to nseg - 1 do
          Bytes.unsafe_fill (Array.unsafe_get segs sg) 0 vb ch
        done
    | _ -> fallback)

(* Packet/node translation: packet-level counters (packets, cycles) are
   static, so each packet contributes one prologue closure with the
   precomputed cycle cost, followed by its member instructions. *)
let translate_packet t ~tables (p : Packet.t) : exec_fn list =
  let c = t.counters in
  let cyc = Packet.cycles ~desc:Desc.hexagon698 p in
  let prologue () =
    c.packets <- c.packets + 1;
    c.cycles <- c.cycles + cyc
  in
  prologue :: List.map (translate_instr t ~tables) p

let rec translate_node t ~tables = function
  | Program.Block packets ->
    let fns = Array.of_list (List.concat_map (translate_packet t ~tables) packets) in
    let n = Array.length fns in
    fun () ->
      for i = 0 to n - 1 do
        (Array.unsafe_get fns i) ()
      done
  | Program.Loop { trip; body } ->
    let fns = Array.of_list (List.map (translate_node t ~tables) body) in
    let n = Array.length fns in
    fun () ->
      for _ = 1 to trip do
        for i = 0 to n - 1 do
          (Array.unsafe_get fns i) ()
        done
      done

let translate t (prog : Program.t) : exec_fn =
  let tables = prog.Program.tables in
  let fns = Array.of_list (List.map (translate_node t ~tables) prog.Program.nodes) in
  let n = Array.length fns in
  fun () ->
    for i = 0 to n - 1 do
      (Array.unsafe_get fns i) ()
    done

(* Decode cache: translations are per-machine (closures capture this
   machine's registers) and keyed by program identity.  The cap only
   bounds memory on pathological workloads; one compiled model's kernels
   fit comfortably. *)
let max_cached_translations = 512

let translation t prog =
  let key = Program.identity_hash prog in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt t.translations key) in
  match List.find_opt (fun (p, _) -> Program.same p prog) bucket with
  | Some (_, fn) -> fn
  | None ->
    let fn = translate t prog in
    if t.cached_translations >= max_cached_translations then begin
      Hashtbl.reset t.translations;
      t.cached_translations <- 0
    end;
    let bucket = Option.value ~default:[] (Hashtbl.find_opt t.translations key) in
    Hashtbl.replace t.translations key ((prog, fn) :: bucket);
    t.cached_translations <- t.cached_translations + 1;
    fn

(* ------------------------------------------------------------------ *)
(* Engine selection and program execution                              *)

type engine = Translated | Reference

(* Global so a whole-model differential (bench vm and its CI smoke) can
   run a model through reference dispatch AND a fresh machine per
   [scratch] request, without threading a flag through every layer. *)
let engine_state = ref Translated
let set_engine e = engine_state := e
let engine () = !engine_state

(** Run a whole program; registers and memory persist across calls. *)
let run t (prog : Program.t) =
  Gcd2_util.Fault.fire "vm-run";
  t.tables <- prog.Program.tables;
  match !engine_state with
  | Reference -> List.iter (exec_node t) prog.Program.nodes
  | Translated -> (translation t prog) ()

(* ------------------------------------------------------------------ *)
(* Scratch machines                                                    *)

let reset ?(mem_bytes = 1 lsl 22) t =
  if Bytes.length t.mem < mem_bytes then begin
    (* next power of two, so repeated growth is amortized; a freshly
       allocated Bytes is already zeroed *)
    let cap = ref (max 1 (Bytes.length t.mem)) in
    while !cap < mem_bytes do
      cap := !cap * 2
    done;
    t.mem <- Bytes.make !cap '\000'
  end
  else Bytes.fill t.mem 0 mem_bytes '\000';
  t.mem_limit <- mem_bytes;
  Array.fill t.sregs 0 (Array.length t.sregs) 0;
  Array.iter (fun v -> Bytes.fill v 0 (Bytes.length v) '\000') t.vregs;
  t.tables <- [];
  let c = t.counters in
  c.cycles <- 0;
  c.packets <- 0;
  c.instrs <- 0;
  c.macs <- 0;
  c.loaded_bytes <- 0;
  c.stored_bytes <- 0

(* One scratch machine per domain. *)
let scratch_key = Domain.DLS.new_key (fun () -> create ~mem_bytes:4096 ())

let scratch ?(mem_bytes = 1 lsl 22) () =
  match !engine_state with
  | Reference -> create ~mem_bytes ()
  | Translated ->
    let m = Domain.DLS.get scratch_key in
    reset ~mem_bytes m;
    m
