(** Execution of a compiled model.  Operators whose kernels the compiler
    fully lowers (matmul, conv-as-GEMM, elementwise, activations) run as
    generated VLIW programs on the simulated DSP under the exact chosen
    plan; the remaining staging operators run host-side with the
    reference semantics.  Every result is bit-identical to
    {!Gcd2_kernels.Interp} (the suite runs whole models both ways),
    except a batched matmul whose 16-bit accumulator lane receives two
    (-128)*(-128) products: it saturates there and is one step off. *)

module T = Gcd2_tensor.Tensor

(** Per-operator-kind slice of the counters (keys are coarse operator
    families: ["conv2d"], ["bmm"], ["softmax"], ...). *)
type kind_stat = {
  mutable k_vm : int;  (** nodes of this kind executed as DSP kernels *)
  mutable k_host : int;  (** nodes of this kind staged host-side *)
  mutable k_cycles : int;  (** simulator cycles across this kind's kernels *)
}

type stats = {
  mutable vm_nodes : int;  (** operators executed as DSP kernels *)
  mutable host_nodes : int;  (** operators staged host-side *)
  mutable vm_cycles : int;  (** simulator cycles across DSP kernels *)
  kinds : (string, kind_stat) Hashtbl.t;  (** host-vs-VM split per kind *)
}

(** Run a compiled model; [inputs] binds input-node ids to tensors. *)
val run_with_stats : Compiler.compiled -> inputs:(int * T.t) list -> T.t array * stats

val run : Compiler.compiled -> inputs:(int * T.t) list -> T.t array
