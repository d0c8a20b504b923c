(** Stage a matmul's operands into a simulator, run the generated kernel,
    return the logical result — used by the runtime, tests, examples and
    benches. *)

type result = {
  data : int array;  (** logical row-major M x N int8 output *)
  cycles : int;
  packets : int;
  macs : int;
}

(** A generated kernel with its memory map. *)
type kernel

(** [kernel spec] lays out the kernel's memory and takes its program
    from {!Matmul.generate}, so equal specs share one physical program
    across calls; [per_channel] = [(mults, shift)] enables per-channel
    requantization.  Raises [Invalid_argument] naming the device when
    [spec]'s device is not {!Gcd2_vm.Machine.executable}. *)
val kernel :
  ?tables:(int * int array) list -> ?per_channel:int array * int -> Matmul.spec -> kernel

(** The program {!exec} runs. *)
val program : kernel -> Gcd2_isa.Program.t

(** [exec kn ~a ~w] — [a] row-major M x K, [w] row-major K x N: stage
    them, run the kernel's one physical program (so repeated calls hit the
    simulator's decode cache), and unstage the result. *)
val exec : kernel -> a:int array -> w:int array -> result

(** [exec_into kn ~a ~a_off ~w ~w_off ~transposed ~out ~out_off] is
    {!exec} on the M x K matrix of [a] at index [a_off] and the K x N
    matrix of [w] at [w_off] (its row-major N x K transpose there when
    [transposed]), with the result written into [out] from [out_off]:
    slices of batched tensors staged and unstaged in place.  Returns the
    simulator's counters for the run. *)
val exec_into :
  kernel ->
  a:int array ->
  a_off:int ->
  w:int array ->
  w_off:int ->
  transposed:bool ->
  out:int array ->
  out_off:int ->
  Gcd2_vm.Machine.counters

(** [run spec ~a ~w] = [exec (kernel spec) ~a ~w]. *)
val run :
  ?tables:(int * int array) list ->
  ?per_channel:int array * int ->
  Matmul.spec ->
  a:int array ->
  w:int array ->
  result
