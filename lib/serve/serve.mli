(** The hardened batch-serving loop behind [gcd2 serve].

    A request is one line — [MODEL [FRAMEWORK [SELECTION]]], plus an
    optional positionless [device=NAME] field naming the target machine
    description — and a batch is served request by request with
    per-request isolation: no
    outcome of one request (a fault, a poisoned cache entry, an expired
    deadline) can crash the loop or corrupt another request's answer.
    Each request runs under a {e policy}:

    - a wall-clock deadline ([deadline_ms]), enforced by the pipeline's
      cancellation checks and reported as a [deadline-exceeded]
      diagnostic;
    - bounded retries with exponential backoff for {e retryable}
      diagnostics (transient cache I/O, a crashed worker domain);
    - graceful degradation: when the artifact cache stays unusable
      after the retries ([cache-io]), the request is recompiled
      {e uncached} (logged once per batch) rather than failed — and a
      corrupt cache entry is quarantined by {!Gcd2_store.Cache} and
      recompiled transparently;
    - verification: any request served through a degraded or retried
      path re-reads the stored artifact with fault injection disabled
      and checks it against the served compile, so a damaged cache can
      cost time but never serve wrong bits (an entry already moved
      aside or evicted by a concurrent worker has nothing to check).

    Every request produces a {!served} outcome — [ok] / [retried] /
    [degraded] / [timeout] / [error] — with the typed {!Gcd2.Diag}
    diagnostic on failure; failed requests are excluded from the latency
    populations of the {!report}. *)

module Compiler = Gcd2.Compiler
module Diag = Gcd2.Diag

type request = {
  model : string;
  framework : string;
  selection : string;
  device : string;  (** machine-description name ({!Gcd2_devices.Desc}) *)
  tune : Gcd2_codegen.Autotune.config option;
      (** kernel-shape autotuning ({!Gcd2_codegen.Autotune}); [None]
          compiles with the shape-adaptive heuristic *)
  seq : int option;
      (** dynamic sequence length for sequence-parametric models; served
          from its {!seq_bucket} (the resolver builds the model at the
          bucket), [None] for the model's native shape *)
  line : int;  (** 1-based source line of the request file; 0 when synthetic *)
}

(** [request ?framework ?selection ?device ?tune ?seq ?line model] — a
    request with the default framework/selection/device
    (["gcd2"] / ["13"] / ["hexagon698"]) and tuning off. *)
val request :
  ?framework:string -> ?selection:string -> ?device:string ->
  ?tune:Gcd2_codegen.Autotune.config -> ?seq:int -> ?line:int -> string ->
  request

(** The shape bucket a dynamic sequence length is served from: the
    smallest power of two >= the length, floor 16 (the model builder
    additionally clamps to its native maximum).  The cold/warm and
    single-flight bookkeeping key on the bucket, never the raw length,
    so one compiled artifact serves every length in its bucket. *)
val seq_bucket : int -> int

type parse_error = { line : int; text : string; reason : string }

(** Parse one request line.  [Ok None] for blank lines and whole-line
    [#] comments; [Error _] for a line with more than three positional
    tokens (trailing garbage), an inline [#] token ([model #comment] is
    an error, not a request for framework ["#comment"]), a duplicated
    [device=]/[tune=]/[seq=] field, a [device=NAME] naming an unknown
    device, a malformed [tune=SPEC], or a [seq=N] that is not a positive
    integer — malformed requests are reported with their line number,
    never silently dropped.  A single [device=NAME], [tune=SPEC] or
    [seq=N] token may appear anywhere on the line; [device=]/[tune=]
    override [device] / [tune] ([tune=off] forces tuning off; other
    specs as in {!Gcd2_codegen.Autotune.of_string}). *)
val parse_line :
  framework:string -> selection:string -> device:string ->
  ?tune:Gcd2_codegen.Autotune.config -> line:int -> string ->
  (request option, parse_error) result

(** Parse a request file's lines (numbered from [first_line], default 1),
    returning the well-formed requests and every malformed line.
    [device] (default ["hexagon698"]) and [tune] (default off) apply to
    lines without a [device=] / [tune=] field. *)
val parse_lines :
  framework:string -> selection:string -> ?device:string ->
  ?tune:Gcd2_codegen.Autotune.config -> ?first_line:int ->
  string list -> request list * parse_error list

(** Resolve framework/selection/device names to a compiler
    configuration (the device via {!Gcd2.Compiler.with_device}; [tune]
    lands in {!Gcd2_cost.Opcost.options} and thus in the request
    fingerprint); unknown names are an [Invalid_request] diagnostic. *)
val config_of :
  ?device:string -> ?tune:Gcd2_codegen.Autotune.config ->
  framework:string -> selection:string -> unit ->
  (Compiler.config, Diag.t) result

type policy = {
  cache_dir : string option;  (** artifact cache; [None] serves uncached *)
  deadline_ms : float option;  (** per-request wall-clock budget *)
  retries : int;  (** max retries (beyond the first attempt) of retryable failures *)
  backoff_ms : float;  (** base backoff, doubled per retry, clipped to the deadline *)
  jobs : int option;  (** worker domains per compile (default: compiler default) *)
}

(** No cache, no deadline, 2 retries, 25 ms base backoff. *)
val default_policy : policy

type outcome =
  | Ok_  (** served, first attempt, no degradation *)
  | Retried  (** served after retrying a transient failure *)
  | Degraded  (** served via a degraded path (uncached fallback or quarantined entry) *)
  | Timed_out  (** the request's deadline expired *)
  | Failed  (** a typed, permanent failure *)

(** ["ok"] / ["retried"] / ["degraded"] / ["timeout"] / ["error"]. *)
val outcome_name : outcome -> string

type served = {
  request : request;
  outcome : outcome;
  diag : Diag.t option;  (** the final diagnostic of a failed/timed-out request *)
  compiled : Compiler.compiled option;  (** the served compile on success *)
  hit : bool;  (** answered from the artifact cache *)
  cold : bool;  (** first compile of this request in the process *)
  ms : float;  (** request wall time, including retries and backoff *)
  attempts : int;
  quarantined : int;  (** corrupt cache entries quarantined while serving it *)
  uncached : bool;  (** served by the uncached-fallback degradation *)
}

(** The compile step of the serving loop, pluggable so a front end can
    wrap it (the daemon's single-flight deduplication) while the
    deadline/retry/degradation machinery applies unchanged.  The
    function must honour the policy fields it is handed ([cache_dir] is
    [None] on the uncached-fallback attempt) and return every failure as
    a typed [Error] — {!default_compile} is
    {!Gcd2.Compiler.compile_result}. *)
type compile_fn =
  config:Compiler.config ->
  cache_dir:string option ->
  jobs:int option ->
  deadline_ms:float option ->
  Gcd2_graph.Graph.t ->
  (Compiler.compiled, Diag.t) result

val default_compile : compile_fn

(** Serve one request under [policy].  [resolve] maps the model name
    (and the optional sequence length, already as requested — the
    default resolver {!Gcd2_models.Zoo.build} pads it to its bucket) to
    its graph; [compile] is the compile step (default
    {!default_compile}); [cold] marks the first compile of this request
    in the process (latency bookkeeping only).

    [digest] is the request's {!Gcd2.Compiler.fingerprint}, when the
    caller already knows it (the daemon memoizes it per distinct
    request).  With a cache directory, the entry is then looked up
    first ({!Gcd2.Compiler.lookup}) and a verified hit is the answer:
    [resolve] is not called and no graph is rewritten or fingerprinted.
    Any miss falls through to the full path — resolve, then [compile]
    under the policy — and an entry the early lookup quarantined makes
    the answer [Degraded], as a quarantine inside the compile does.

    Never raises: every failure is a {!served} with a diagnostic. *)
val serve_one :
  ?resolve:(?seq:int -> string -> Gcd2_graph.Graph.t) ->
  ?compile:compile_fn ->
  ?digest:string ->
  policy ->
  cold:bool ->
  request ->
  served

type report = {
  requests : int;
  ok : int;  (** served, including retried/degraded *)
  errors : int;
  timeouts : int;
  retried : int;
  degraded : int;
  hits : int;
  misses : int;  (** cache misses among served requests *)
  cold_ms : float list;  (** latencies of served cold requests only *)
  warm_ms : float list;  (** latencies of served warm requests only *)
}

(** Serve a batch in order, tracking cold/warm per distinct request and
    calling [on_result] after each.  The latency populations of the
    report contain {e only} successfully served requests — failures are
    excluded by construction, not by accident. *)
val run_batch :
  ?resolve:(?seq:int -> string -> Gcd2_graph.Graph.t) ->
  ?compile:compile_fn ->
  ?on_result:(served -> unit) ->
  policy ->
  request list ->
  served list * report

(** Re-arm the once-per-batch "cache unusable" degradation log line
    ({!run_batch} does this itself; a long-lived daemon calls it when it
    wants the next degradation reported again). *)
val reset_degradation_log : unit -> unit

(** One structured outcome line (no trailing newline): model, framework,
    selection, outcome, hit/miss, cold/warm, wall time, then the
    optional fields (model latency, device, attempts, quarantines,
    uncached fallback, [extra], and the diagnostic of a failed request).
    Shared by [gcd2 serve] and the daemon so both logs read the same;
    emit it through {!Gcd2_util.Logsink} under concurrency. *)
val outcome_line : ?extra:string -> served -> string
