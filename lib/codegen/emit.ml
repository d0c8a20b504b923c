(** Emission helpers: collect instructions into blocks, pack them with a
    chosen strategy, and assemble loop-tree programs. *)

open Gcd2_isa
module Packer = Gcd2_sched.Packer

type t = { mutable rev_instrs : Instr.t list }

let create () = { rev_instrs = [] }

let emit t i = t.rev_instrs <- i :: t.rev_instrs

let instrs t = Array.of_list (List.rev t.rev_instrs)

(** Close the buffer into a basic block packed for the device. *)
let block ~desc ~strategy t =
  let is = instrs t in
  t.rev_instrs <- [];
  Program.Block (Packer.pack ~desc strategy is)

(* Shorthands *)

let addr base offset = { Instr.base; offset }
let movi t rd imm = emit t (Instr.Smovi (rd, imm))
let addi t rd rs imm = emit t (Instr.Salu (Instr.Add, rd, rs, Instr.Imm imm))
let bump t r imm = if imm <> 0 then addi t r r imm
let sload t rd base offset = emit t (Instr.Sload (rd, addr base offset))
let vload t vd base offset = emit t (Instr.Vload (vd, addr base offset))
let vstore t base offset vs = emit t (Instr.Vstore (addr base offset, vs))
let vzero t vd = emit t (Instr.Vmovi (vd, 0))
let vmovi t vd b = emit t (Instr.Vmovi (vd, b))
let valu t op ~width vd va vb = emit t (Instr.Valu (op, width, vd, va, vb))
let vscalev t vd vs vm shift = emit t (Instr.Vscalev (vd, vs, vm, shift))
let vmpy t pd vs rt = emit t (Instr.Vmpy (pd, vs, rt))
let vmul t pd va vb = emit t (Instr.Vmul (pd, va, vb))
let vmpa t pd ps rt = emit t (Instr.Vmpa (pd, ps, rt))
let vrmpy t vd vs rt = emit t (Instr.Vrmpy (vd, vs, rt))
let vaddw t pd vs = emit t (Instr.Vaddw (pd, vs))
let vadd t ~width vd va vb = emit t (Instr.Valu (Instr.Vadd, width, vd, va, vb))
let vscale t vd vs (mult, shift) = emit t (Instr.Vscale (vd, vs, mult, shift))
let vpack t vd ps width = emit t (Instr.Vpack (vd, ps, width))
let vshuff t pd ps width = emit t (Instr.Vshuff (pd, ps, width))
let vlut t vd vs id = emit t (Instr.Vlut (vd, vs, id))

let loop ~trip body = Program.Loop { trip; body }
