(** Small numeric helpers for the benchmark harness. *)

val mean : float list -> float

(** Geometric mean (the paper's speedup aggregate). *)
val geomean : float list -> float

val maxf : float list -> float
val minf : float list -> float

(** [percentile p xs] — nearest-rank percentile (inclusive), [p] in
    [0..100]: the smallest element with at least [p]% of the sample at
    or below it.  Sorts a copy; [0.0] on an empty sample. *)
val percentile : float -> float list -> float

val p50 : float list -> float
val p95 : float list -> float
val p99 : float list -> float

(** Integer ceiling division. *)
val ceil_div : int -> int -> int

(** Round [a] up to the next multiple of [b]. *)
val round_up : int -> int -> int

(** Mergeable fixed-layout log-bucket latency histogram.

    A histogram is a fixed array of counts over a geometric bucket
    layout shared by every instance ({!Hist.sub_octave} buckets per
    factor of two from {!Hist.lo_ms} to {!Hist.hi_ms}, plus underflow
    and overflow buckets), so per-worker histograms combine with an
    elementwise sum — associative, commutative, and O(buckets) — without
    retaining a single sample.  Percentile queries return the lower edge
    of the bucket holding the nearest-rank sample, i.e. an estimate
    within one bucket ratio (2{^ 1/8} ≈ 9%) of the exact nearest-rank
    percentile. *)
module Hist : sig
  type t

  (** Buckets per factor of two (8: ≈9% relative resolution). *)
  val sub_octave : int

  (** Lower/upper bounds of the interior buckets, in milliseconds. *)
  val lo_ms : float

  val hi_ms : float

  (** Total bucket count, including underflow and overflow. *)
  val buckets : int

  (** An empty histogram. *)
  val create : unit -> t

  (** Record one latency (milliseconds; non-positive values land in the
      underflow bucket). *)
  val add : t -> float -> unit

  (** The bucket index a latency lands in ([0] = underflow,
      [buckets - 1] = overflow).  Exposed for tests. *)
  val bucket_of : float -> int

  (** Lower edge (ms) of bucket [i] — the value percentile queries
      report.  Exposed for tests. *)
  val bucket_floor : int -> float

  (** Samples recorded. *)
  val count : t -> int

  (** Pure merge: a fresh histogram holding both sample sets. *)
  val merge : t -> t -> t

  (** In-place merge of [src] into [into]. *)
  val merge_into : into:t -> t -> unit

  val copy : t -> t

  (** The raw bucket counts (a copy), for tests and serialization. *)
  val counts : t -> int array

  (** Nearest-rank percentile estimate (lower bucket edge); [0.0] on an
      empty histogram, mirroring {!Stats.percentile}. *)
  val percentile : float -> t -> float

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float
end

(** Mergeable named integer counters — the one registry behind trace
    span counters, the daemon's stats line and the janitor's report.

    A key exists from its first use ([add], including [add t k 0], or
    its declaration in {!Counters.create}) and keeps that place in the
    order {!Counters.to_list} and {!Counters.render} list keys in.
    Not synchronized: a registry belongs to one domain, or is guarded by
    its owner's lock. *)
module Counters : sig
  type t

  (** A registry holding each of [keys] at 0, in that order, so they
      render even when never bumped. *)
  val create : string list -> t

  (** [add t key n] adds [n] to [key]. *)
  val add : t -> string -> int -> unit

  (** The value of [key]; 0 for a key never used. *)
  val get : t -> string -> int

  (** Pure merge: the keys of [a] in their order, then the keys only [b]
      has, in [b]'s order; values summed.  Associative; commutative up
      to key order. *)
  val merge : t -> t -> t

  (** In-place merge of [src] into [into], same order rule. *)
  val merge_into : into:t -> t -> unit

  (** [(key, value)] pairs in first-use order. *)
  val to_list : t -> (string * int) list

  (** [k=v] tokens in first-use order, separated by single spaces. *)
  val render : t -> string
end
