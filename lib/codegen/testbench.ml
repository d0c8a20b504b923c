(** Convenience driver: stage a matmul's operands into a simulator, run the
    generated kernel, and return the logical row-major result.  Used by the
    runtime, the test suite, the examples and the benchmark harness. *)

module Machine = Gcd2_vm.Machine

type result = {
  data : int array;  (** logical row-major M x N int8 output *)
  cycles : int;
  packets : int;
  macs : int;
}

(* One generated kernel and its memory map: every base depends only on
   the spec, so one kernel serves any number of operand pairs. *)
type kernel = {
  spec : Matmul.spec;
  prog : Gcd2_isa.Program.t;
  packed_q : int array;
  a_base : int;
  w_base : int;
  c_base : int;
  q_base : int;
  out_bytes : int;
  mem_bytes : int;
}

let kernel ?(tables = []) ?per_channel (spec : Matmul.spec) =
  let d = spec.Matmul.device in
  if not (Machine.executable d) then
    invalid_arg
      (Fmt.str
         "Testbench: device %s (%dB vectors) cannot run on the simulator, which \
          executes hexagon698 only"
         d.Gcd2_devices.Desc.name d.Gcd2_devices.Desc.vector_bytes);
  let simd = spec.Matmul.simd in
  let out_bytes = Weights.output_bytes simd ~m:spec.m ~n:spec.n in
  let align x = Gcd2_util.Stats.round_up x 128 in
  let a_base = 0 in
  let w_base = align (a_base + Weights.activation_bytes simd ~m:spec.m ~k:spec.k) in
  let c_base = align (w_base + Weights.prepacked_bytes simd ~k:spec.k ~n:spec.n) in
  let packed_q =
    match per_channel with
    | None -> [||]
    | Some (mults, _) -> Weights.prepack_channel_mults simd ~n:spec.n mults
  in
  let q_base = align (c_base + out_bytes) in
  let mem_bytes = max (align (q_base + Array.length packed_q) + 256) 4096 in
  let prog =
    Matmul.generate ~tables ?per_channel ~q_base spec { Matmul.a_base; w_base; c_base }
  in
  { spec; prog; packed_q; a_base; w_base; c_base; q_base; out_bytes; mem_bytes }

let program kn = kn.prog

let exec_into kn ~a ~a_off ~w ~w_off ~transposed ~out ~out_off =
  let { Matmul.simd; m; k; n; _ } = kn.spec in
  let mach = Machine.scratch ~mem_bytes:kn.mem_bytes () in
  (* operands are packed straight into simulator memory and the result
     read straight out of it, with no intermediate arrays *)
  let window addr len = Machine.window mach ~addr ~len in
  Weights.store_activations ~src_off:a_off simd ~m ~k a
    (window kn.a_base (Weights.activation_bytes simd ~m ~k))
    kn.a_base;
  Weights.store_prepacked ~src_off:w_off ~transposed simd ~k ~n w
    (window kn.w_base (Weights.prepacked_bytes simd ~k ~n))
    kn.w_base;
  if Array.length kn.packed_q > 0 then Machine.write_i8_array mach ~addr:kn.q_base kn.packed_q;
  Machine.run mach kn.prog;
  Weights.load_output_into simd ~m ~n (window kn.c_base kn.out_bytes) kn.c_base out out_off;
  Machine.counters mach

let exec kn ~a ~w =
  let { Matmul.m; k; n; _ } = kn.spec in
  if Array.length a <> m * k then invalid_arg "Weights.pack_activations: size mismatch";
  if Array.length w <> k * n then invalid_arg "Weights.prepack: size mismatch";
  let data = Array.make (m * n) 0 in
  let c = exec_into kn ~a ~a_off:0 ~w ~w_off:0 ~transposed:false ~out:data ~out_off:0 in
  { data; cycles = c.Machine.cycles; packets = c.Machine.packets; macs = c.Machine.macs }

let run ?tables ?per_channel spec ~a ~w = exec (kernel ?tables ?per_channel spec) ~a ~w
