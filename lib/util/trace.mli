(** Wall-clock span tracing for the compiler pipeline.

    A trace is a tree of named spans.  Each span accumulates monotonic
    wall-clock seconds ({!now} reads [CLOCK_MONOTONIC] — never
    [Sys.time], which reports CPU time and misreports I/O-bound or
    multi-threaded phases), an invocation count, and named integer
    counters.  Spans with the same name under the same parent merge, so
    hot instrumentation points (one per generated kernel, say) stay
    compact in the tree.

    Two ways to record:

    - explicitly, against a trace value: {!with_span}, {!add};
    - ambiently, from code that has no trace in scope (the packer, the
      kernel generators): {!in_span} and {!count} are no-ops unless a
      trace has been installed with {!with_ambient}.

    Closed spans stream to a pluggable {!sink}: silent (default), one
    text line per close, or one JSON object per close (JSON-lines). *)

(** Seconds on the monotonic clock, at nanosecond resolution, from an
    arbitrary epoch: only differences and deadlines relative to now are
    meaningful. *)
val now : unit -> float

type sink =
  | Silent
  | Text of Format.formatter  (** one line per closed span *)
  | Jsonl of Format.formatter  (** one JSON object per closed span *)

type span = {
  span_name : string;
  mutable seconds : float;  (** total wall time over all invocations *)
  mutable calls : int;
  counters : Stats.Counters.t;  (** first-use order *)
  mutable children : span list;  (** first-opened order *)
}

type t

(** [create ?sink name] — a fresh trace whose root span is [name]. *)
val create : ?sink:sink -> string -> t

val root : t -> span

(** [run_root t f] times [f] into the root span itself. *)
val run_root : t -> (unit -> 'a) -> 'a

(** [with_span t name f] runs [f] inside a child span [name] of the
    innermost open span, accumulating its wall time (also on raise). *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [add t key n] adds [n] to counter [key] of the innermost open span. *)
val add : t -> string -> int -> unit

(** {2 Ambient instrumentation} *)

(** [with_ambient t f] installs [t] as the ambient trace for the
    duration of [f] (restored on exit, also on raise). *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** Is an ambient trace installed?  Lets hot paths skip computing
    counter values that would be discarded. *)
val enabled : unit -> bool

(** Ambient {!add}; no-op without an ambient trace. *)
val count : string -> int -> unit

(** Ambient {!with_span}; just runs the thunk without an ambient trace. *)
val in_span : string -> (unit -> 'a) -> 'a

(** [absorb src] merges the counters and children of span [src] into the
    innermost open span of the ambient trace (no-op without one).  This
    is how a parallel phase folds its per-worker span trees back into
    the parent: each worker domain records into its own trace (the
    ambient trace is domain-local — traces themselves are unlocked
    single-domain structures), and the parent absorbs each worker's root
    span after the join, in worker order.  Same-named spans merge, so
    the result reads like the sequential tree; the absorbed seconds sum
    worker wall time and may legitimately exceed the enclosing span's
    wall time when workers overlap. *)
val absorb : span -> unit

(** Ambient {!span_seconds}: seconds recorded so far on the first span
    named [name] of the ambient trace; 0 without one.  Lets a late pass
    read an earlier pass's wall time without a trace in scope. *)
val ambient_span_seconds : string -> float

(** {2 Queries} *)

(** Depth-first search for the first span named [name]. *)
val find : t -> string -> span option

(** Seconds of the first span named [name]; 0 when absent. *)
val span_seconds : t -> string -> float

(** Counter [key] summed over every span of the tree. *)
val counter : t -> string -> int

(** All counter keys, in first-seen depth-first order. *)
val counter_names : t -> string list

(** Direct children of the root: [(name, seconds)] in order. *)
val top_spans : t -> (string * float) list

(** Wall time recorded on the root span. *)
val total_seconds : t -> float

(** Indented tree: per-span seconds, calls and counters. *)
val pp : Format.formatter -> t -> unit
