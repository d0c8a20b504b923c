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
      one dispatch per executed instruction, per-lane register access —
      simple, obviously faithful, slow;
    - the {e native} engine (the default {!run}): a program is decoded
      {e once} per machine into a flat [int array] of records (packets
      with their precomputed cycles, loops with their trip counts,
      instructions with register offsets and full-width immediates,
      [Vlut] tables as 256 bytes), and one C function (lanes.c) runs
      that array in one loop, every lane loop in the reference's
      read/write order, built for the running CPU's vector unit
      ({!lanes_clone}).  Repeated {!run}s of the same program reuse the
      cached decode.

    Both engines produce bit-identical registers, memory and counters (a
    qcheck differential property in the suite).  A program with any
    instruction shape the C loop does not run (an out-of-range register
    or one of the wrong kind, a [Vmpyb] selector outside 0..3, [Vpack] at
    [W8], a [Vscale]/[Vscalev] shift outside 0..62, an unknown or short
    [Vlut] table) runs whole on the reference, and the ambient trace
    counts it as [vm-reference-runs], so the fast path can never change
    semantics. *)

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

(* A program's decode for the C loop (see [decode]), or the verdict that
   it runs on the reference. *)
type decoded =
  | Native of {
      code : int array;
      luts : Bytes.t;  (** its [Vlut] tables, 256 bytes each *)
      loops : Bytes.t;  (** the C loop's trip counters, one word per loop *)
      faults : Instr.t array;  (** memory instructions by fault index *)
    }
  | On_reference

type t = {
  sregs : int array;  (** 32 scalar registers, signed 32-bit values *)
  vregs : Bytes.t;
      (** the 32 vector registers of 128 bytes, [V n] at [128 n]: pair
          [P k] is the 256 bytes at [256 k], its low half first *)
  mutable mem : Bytes.t;  (** physical backing store, may exceed mem_limit *)
  mutable mem_limit : int;
      (** logical memory size: all bounds checks use this, so a reused
          scratch machine behaves exactly like a fresh machine of this
          size even when the backing store is larger *)
  mutable tables : (int * int array) list;
  counters : counters;
  decodes : (int, (Program.t * decoded) list) Hashtbl.t;
      (** decode cache: {!Gcd2_isa.Program.identity_hash} buckets,
          confirmed by {!Gcd2_isa.Program.same} *)
  mutable cached_decodes : int;
}

(** Can this device's programs execute on the simulator?  The ISA
    semantics (lane counts, packet shapes, the native engine's
    specialized loops) and the packet timing are hexagon698's; wider
    descriptors are costed analytically, never run. *)
let executable (d : Desc.t) =
  d.Desc.vector_bytes = Reg.vector_bytes
  && d.Desc.scalar_count = Reg.scalar_count
  && d.Desc.vector_count = Reg.vector_count

let create ?(mem_bytes = 1 lsl 22) () =
  {
    sregs = Array.make Reg.scalar_count 0;
    vregs = Bytes.make (Reg.vector_count * Reg.vector_bytes) '\000';
    mem = Bytes.make mem_bytes '\000';
    mem_limit = mem_bytes;
    tables = [];
    counters =
      { cycles = 0; packets = 0; instrs = 0; macs = 0; loaded_bytes = 0; stored_bytes = 0 };
    decodes = Hashtbl.create 16;
    cached_decodes = 0;
  }

let counters t = t.counters
let memory_size t = t.mem_limit

(* Native order is the simulated DSP's little-endian lane order only on
   a little-endian host: the register and memory words below and in
   lanes.c rely on it. *)
let () =
  if Sys.big_endian then
    failwith "Gcd2_vm.Machine: the simulator's word access needs a little-endian host"

(* ------------------------------------------------------------------ *)
(* Register access                                                     *)

let get_sreg t = function
  | Reg.R n -> t.sregs.(n)
  | r -> invalid_arg (Fmt.str "get_sreg: %a is not scalar" Reg.pp r)

let set_sreg t r v =
  match r with
  | Reg.R n -> t.sregs.(n) <- Sat.wrap32 v
  | r -> invalid_arg (Fmt.str "set_sreg: %a is not scalar" Reg.pp r)

let operand_bytes = function
  | Reg.V _ -> Reg.vector_bytes
  | Reg.P _ -> 2 * Reg.vector_bytes
  | Reg.R _ -> invalid_arg "vector operand expected"

let lane_bytes = Instr.width_bytes

(* Offset in [vregs] of lane byte [i] (of a lane of [size] bytes) of a
   vector operand.  A lane outside the operand raises as an index out of
   the register's own bytes would; an index past the register file makes
   the [Bytes] access raise. *)
let vreg_offset ~who r i size =
  let base =
    match r with
    | Reg.V n -> n * Reg.vector_bytes
    | Reg.P k -> 2 * k * Reg.vector_bytes
    | Reg.R _ -> invalid_arg (who ^ ": scalar register")
  in
  if i < 0 || i > operand_bytes r - size then invalid_arg "index out of bounds";
  base + i

let get_byte t r i = Char.code (Bytes.get t.vregs (vreg_offset ~who:"get_byte" r i 1))

let set_byte t r i v =
  Bytes.set t.vregs (vreg_offset ~who:"set_byte" r i 1) (Char.unsafe_chr (v land 0xff))

(* Little-endian signed lane read/write at an arbitrary width, one word
   access per lane. *)
let get_lane t r ~width l =
  let b = lane_bytes width in
  let o = vreg_offset ~who:"get_byte" r (l * b) b in
  match width with
  | Instr.W8 -> Bytes.get_int8 t.vregs o
  | Instr.W16 -> Bytes.get_int16_le t.vregs o
  | Instr.W32 -> Int32.to_int (Bytes.get_int32_le t.vregs o)

let set_lane t r ~width l v =
  let b = lane_bytes width in
  let o = vreg_offset ~who:"set_byte" r (l * b) b in
  match width with
  | Instr.W8 -> Bytes.set_int8 t.vregs o v
  | Instr.W16 -> Bytes.set_int16_le t.vregs o v
  | Instr.W32 -> Bytes.set_int32_le t.vregs o (Int32.of_int v)

let lane_count r width = operand_bytes r / lane_bytes width

let vector_registers t = Bytes.copy t.vregs

let set_vector_registers t b =
  if Bytes.length b <> Bytes.length t.vregs then
    invalid_arg "set_vector_registers: not a whole register file";
  Bytes.blit b 0 t.vregs 0 (Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)

(* The staging helpers' unchecked, native-endian byte and halfword
   access, after one bounds check of the whole transfer. *)
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] s8 b i = (Char.code (Bytes.unsafe_get b i) lxor 0x80) - 0x80
let[@inline] p8 b i v = Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff))

let effective_address t (a : Instr.addr) = get_sreg t a.base + a.offset

(* Written so that it cannot overflow: [addr + size] wraps negative for
   an [addr] near [max_int]. *)
let check_bounds t addr size =
  if addr < 0 || addr > t.mem_limit - size then
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
    set16u mem (addr + (2 * i)) (Array.unsafe_get data i)
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
(* Native execution engine                                             *)

(* Record opcodes: lanes.c's enum, in its order.  Each record is its
   opcode and then the words the comment lists; a register is its offset
   in [vregs] (a pair's is its low half's) or its scalar index. *)
let op_packet = 0 (* cycles *)
let op_loop = 1 (* trip, slot, body length; the body; then op_end *)
let op_end = 2 (* slot, body length *)
let op_smovi = 3 (* rd, wrapped immediate *)
let op_salu_r = 4 (* op, rd, rs, ro *)
let op_salu_i = 5 (* op, rd, rs, immediate *)
let op_smul_r = 6 (* rd, rs, ro *)
let op_smul_i = 7 (* rd, rs, immediate *)
let op_sload = 8 (* fault index, rd, base, offset *)
let op_sstore = 9 (* fault index, rs, base, offset *)
let op_vload = 10 (* fault index, vd, base, offset *)
let op_vstore = 11 (* fault index, vs, base, offset *)
let op_vmovi = 12 (* vd, operand bytes, value *)
let op_vdup = 13 (* vd, operand bytes, rs *)
let op_valu = 14 (* 3 op + width, vd, va, vb, operand bytes *)
let op_vaddw = 15 (* pd, vs *)
let op_vmpy = 16 (* pd, vs, rt *)
let op_vmpyb = 17 (* pd, vs, rt, selector *)
let op_vmul = 18 (* pd, va, vb *)
let op_vmpa = 19 (* pd, ps, rt *)
let op_vrmpy = 20 (* vd, vs, rt *)
let op_vscale = 21 (* vd, vs, multiplier, shift *)
let op_vscalev = 22 (* vd, vs, vm, shift *)
let op_vpack_w32 = 23 (* vd, ps *)
let op_vpack_w16 = 24 (* vd, ps *)
let op_vshuff = 25 (* pd, ps, width *)
let op_vlut = 26 (* vd, vs, table offset in luts *)

let salu_index = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.And -> 2
  | Instr.Or -> 3
  | Instr.Xor -> 4
  | Instr.Shl -> 5
  | Instr.Shr -> 6
  | Instr.Min -> 7
  | Instr.Max -> 8

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

(* A shape the C loop does not run: the whole program takes the
   reference. *)
exception Unsupported

(* Decode a program into the C loop's records.  Decoding never raises
   for a shape the reference would reject at run time: a trip-0 loop is
   decoded but never run. *)
let decode (prog : Program.t) =
  let faults = ref [] and nfaults = ref 0 and nloops = ref 0 in
  let luts = Buffer.create 256 and lut_ids = ref [] in
  let sreg = function Reg.R n when n >= 0 && n < Reg.scalar_count -> n | _ -> raise Unsupported in
  let vec = function
    | Reg.V n when n >= 0 && n < Reg.vector_count -> n * Reg.vector_bytes
    | Reg.P k when k >= 0 && k < Reg.vector_count / 2 -> 2 * k * Reg.vector_bytes
    | _ -> raise Unsupported
  in
  let pair = function Reg.P _ as r -> vec r | _ -> raise Unsupported in
  let mem op i r (a : Instr.addr) =
    let b = sreg a.Instr.base in
    faults := i :: !faults;
    incr nfaults;
    [| op; !nfaults - 1; r; b; a.Instr.offset |]
  in
  let lut id =
    match List.assoc_opt id !lut_ids with
    | Some off -> off
    | None -> (
      match List.assoc_opt id prog.Program.tables with
      | Some tbl when Array.length tbl >= 256 ->
        let off = Buffer.length luts in
        for i = 0 to 255 do
          Buffer.add_char luts (Char.unsafe_chr (tbl.(i) land 0xff))
        done;
        lut_ids := (id, off) :: !lut_ids;
        off
      | _ -> raise Unsupported)
  in
  let shift s = if s >= 0 && s <= 62 then s else raise Unsupported in
  let instr (i : Instr.t) =
    match i with
    | Instr.Smovi (rd, imm) -> [| op_smovi; sreg rd; Sat.wrap32 imm |]
    | Instr.Salu (op, rd, rs, Instr.Reg ro) ->
      [| op_salu_r; salu_index op; sreg rd; sreg rs; sreg ro |]
    | Instr.Salu (op, rd, rs, Instr.Imm x) -> [| op_salu_i; salu_index op; sreg rd; sreg rs; x |]
    | Instr.Smul (rd, rs, Instr.Reg ro) -> [| op_smul_r; sreg rd; sreg rs; sreg ro |]
    | Instr.Smul (rd, rs, Instr.Imm x) -> [| op_smul_i; sreg rd; sreg rs; x |]
    | Instr.Sload (rd, a) -> mem op_sload i (sreg rd) a
    | Instr.Sstore (a, rs) -> mem op_sstore i (sreg rs) a
    | Instr.Vload (vd, a) -> mem op_vload i (vec vd) a
    | Instr.Vstore (a, vs) -> mem op_vstore i (vec vs) a
    (* [vec] first: [operand_bytes] raises on a scalar register *)
    | Instr.Vmovi (vd, x) ->
      let d = vec vd in
      [| op_vmovi; d; operand_bytes vd; x |]
    | Instr.Vdup (vd, rs) ->
      let d = vec vd in
      [| op_vdup; d; operand_bytes vd; sreg rs |]
    | Instr.Valu (op, w, vd, va, vb) ->
      let d = vec vd in
      let a = vec va in
      let b = vec vb in
      let n = operand_bytes vd in
      if operand_bytes va <> n || operand_bytes vb <> n then raise Unsupported;
      [| op_valu; (3 * valu_index op) + width_index w; d; a; b; n |]
    | Instr.Vaddw (pd, vs) -> [| op_vaddw; pair pd; vec vs |]
    | Instr.Vmpy (pd, vs, rt) -> [| op_vmpy; pair pd; vec vs; sreg rt |]
    | Instr.Vmpyb (pd, vs, rt, sel) ->
      if sel < 0 || sel > 3 then raise Unsupported;
      [| op_vmpyb; pair pd; vec vs; sreg rt; sel |]
    | Instr.Vmul (pd, va, vb) -> [| op_vmul; pair pd; vec va; vec vb |]
    | Instr.Vmpa (pd, ps, rt) -> [| op_vmpa; pair pd; pair ps; sreg rt |]
    | Instr.Vrmpy (vd, vs, rt) -> [| op_vrmpy; vec vd; vec vs; sreg rt |]
    | Instr.Vscale (vd, vs, mult, s) -> [| op_vscale; vec vd; vec vs; mult; shift s |]
    | Instr.Vscalev (vd, vs, vm, s) -> [| op_vscalev; vec vd; vec vs; vec vm; shift s |]
    | Instr.Vpack (vd, ps, Instr.W32) -> [| op_vpack_w32; vec vd; pair ps |]
    | Instr.Vpack (vd, ps, Instr.W16) -> [| op_vpack_w16; vec vd; pair ps |]
    | Instr.Vpack (_, _, Instr.W8) -> raise Unsupported
    | Instr.Vshuff (pd, ps, w) -> [| op_vshuff; pair pd; pair ps; width_index w |]
    | Instr.Vlut (vd, vs, id) -> [| op_vlut; vec vd; vec vs; lut id |]
  in
  let packet p = [| op_packet; Packet.cycles ~desc:Desc.hexagon698 p |] :: List.map instr p in
  let rec node = function
    | Program.Block packets -> List.concat_map packet packets
    | Program.Loop { trip; body } ->
      let body = List.concat_map node body in
      let len = List.fold_left (fun n r -> n + Array.length r) 0 body in
      let slot = !nloops in
      incr nloops;
      ([| op_loop; trip; slot; len |] :: body) @ [ [| op_end; slot; len |] ]
  in
  match List.concat_map node prog.Program.nodes with
  | records ->
    Native
      {
        code = Array.concat records;
        luts = Buffer.to_bytes luts;
        loops = Bytes.create (8 * !nloops);
        faults = Array.of_list (List.rev !faults);
      }
  | exception Unsupported -> On_reference

(* The C loop (lanes.c): code, luts, loops, scalar registers, vector
   registers, memory, its logical size, counters.  Returns -1, or the
   fault index of a memory instruction whose bounds check failed, which
   it did not count. *)
external exec_code :
  int array -> Bytes.t -> Bytes.t -> int array -> Bytes.t -> Bytes.t -> int -> counters -> int
  = "gcd2_vm_exec_byte" "gcd2_vm_exec"
[@@noalloc]

external lanes_clone : unit -> string = "gcd2_vm_lanes_clone"

(* Decode cache: decodes are per-machine (the loop counters are scratch
   state) and keyed by program identity.  The cap only bounds memory on
   pathological workloads; one compiled model's kernels fit
   comfortably. *)
let max_cached_decodes = 512

let decoded t prog =
  let key = Program.identity_hash prog in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt t.decodes key) in
  match List.find_opt (fun (p, _) -> Program.same p prog) bucket with
  | Some (_, d) -> d
  | None ->
    let d = decode prog in
    if t.cached_decodes >= max_cached_decodes then begin
      Hashtbl.reset t.decodes;
      t.cached_decodes <- 0
    end;
    let bucket = Option.value ~default:[] (Hashtbl.find_opt t.decodes key) in
    Hashtbl.replace t.decodes key ((prog, d) :: bucket);
    t.cached_decodes <- t.cached_decodes + 1;
    d

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
  | Translated -> (
    match decoded t prog with
    | On_reference ->
      Gcd2_util.Trace.count "vm-reference-runs" 1;
      List.iter (exec_node t) prog.Program.nodes
    | Native d ->
      let fault =
        exec_code d.code d.luts d.loops t.sregs t.vregs t.mem t.mem_limit t.counters
      in
      (* C stopped before counting the faulting instruction: the
         reference counts it and raises the bounds fault *)
      if fault >= 0 then begin
        exec_reference t d.faults.(fault);
        assert false
      end)

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
  Bytes.fill t.vregs 0 (Bytes.length t.vregs) '\000';
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
