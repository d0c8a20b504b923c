(** The concurrent serve daemon: a long-lived multi-domain server behind
    a Unix or TCP socket, speaking {!Gcd2_serve.Serve} request lines and
    {!Protocol} response lines.

    Architecture — three kinds of domain around one bounded queue:

    - an {e accept} domain takes connections off the listening socket
      and offers each to the admission queue ({!Bqueue}); when the queue
      is full the connection is answered with one [outcome=rejected
      code=overloaded] line (a retryable {!Gcd2.Diag} — backpressure,
      not an error) and closed;
    - [workers] {e worker} domains pull connections off the queue and
      serve them to EOF, one request line at a time, through
      {!Gcd2_serve.Serve.serve_one} — so the whole PR-5 policy machinery
      (deadline, bounded retries, degradation, verification) applies
      per-request, per-worker, unchanged;
    - each distinct request's fingerprint digest is computed once (the
      model resolved and fingerprinted at first sight) and memoized;
      later requests hand it to {!Gcd2_serve.Serve.serve_one}, which
      answers a warm hit straight from the cache entry
      ({!Gcd2.Compiler.lookup}) and resolves the model only on a miss —
      [resolves=] in the stats counts every resolution, so warm traffic
      shows none;
    - the compile step is wrapped in single-flight deduplication
      ({!Flight}) keyed by the request fingerprint: K identical cold
      requests arriving concurrently perform {e one} compile, with K-1
      waiters sharing the leader's result.  Warm cache hits bypass the
      flight entirely, so concurrent warm traffic never serializes.

    Robustness (PR 10): worker domains run under a {e watchdog} — an
    exception escaping the serve loop (or the injected [pool-worker]
    fault, consulted once per connection) answers the in-flight
    connection with a retryable [code=worker-failed] line, is counted
    in [respawns], and the loop is re-entered, so a crashed worker
    never hangs a client or thins the pool.  With a cache directory
    configured, a {e janitor} domain sweeps it at startup and every
    [janitor_interval_s] (debris, aged quarantine, stale leases, LRU
    size budget — see {!Gcd2_store.Janitor}), and cold compiles go
    through the cross-process lease tier ({!Flight.Disk}) so N daemons
    sharing one store compile each digest once.  Bare [health] and
    [stats] request lines are answered in-frame for load balancers.

    Stats are accumulated per worker (a {!Gcd2_util.Stats.Counters}
    registry plus mergeable {!Gcd2_util.Stats.Hist} latency histograms,
    split cold/warm) and daemon-wide (a registry for the accept loop,
    compiles, the watchdog and the janitor), and merged on demand; with
    [stats_every > 0] a merged [daemon: ...] line is emitted through
    {!Gcd2_util.Logsink} every that many responses.  {!stop} is
    graceful: the accept loop is retired first, then the queue is
    closed and drained — every admitted connection is served to EOF —
    before the workers are joined. *)

type address =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port; port [0] picks a free port *)

val pp_address : Format.formatter -> address -> unit

type config = {
  address : address;
  workers : int;  (** worker domains serving connections *)
  queue_depth : int;  (** admission-queue capacity (pending connections) *)
  policy : Gcd2_serve.Serve.policy;  (** per-request policy (PR 5) *)
  framework : string;  (** default for request lines that omit it *)
  selection : string;
  device : string;
  tune : Gcd2_codegen.Autotune.config option;
      (** default autotuning config for request lines without a [tune=]
          field; [None] = tuning off *)
  resolve : (?seq:int -> string -> Gcd2_graph.Graph.t) option;
      (** model-name resolution (with the request's optional sequence
          length); [None] uses {!Gcd2_models.Zoo.build}, which pads the
          length to its shape bucket *)
  stats_every : int;  (** emit a stats line every N responses; 0 = never *)
  log_outcomes : bool;  (** log one {!Gcd2_serve.Serve.outcome_line} per request *)
  cache_max_bytes : int option;
      (** janitor entry-bytes budget for the cache directory (LRU
          eviction); [None] = unbounded *)
  janitor_interval_s : float;
      (** seconds between periodic janitor sweeps; [<= 0] disables the
          periodic domain (the startup sweep still runs) *)
  lease_ttl_s : float;  (** cross-process lease staleness bound (PR 10) *)
}

(** One worker, queue depth 16, {!Gcd2_serve.Serve.default_policy},
    gcd2/13/hexagon698 defaults, zoo resolution, no stats, no logs. *)
val default_config : address -> config

type stats = {
  counts : Gcd2_util.Stats.Counters.t;
      (** every counter of the stats line, in its order, zeros included:
          [served] (answered successfully, incl. retried/degraded),
          [failed], [hits] (served from the artifact cache), [compiles]
          (after single-flight coalescing), [resolves] (models resolved:
          once at a request's first sight, again on each cache miss),
          [coalesced] (waited on
          another request's compile), [adopted] (took the artifact a
          lease-holding leader of another process published),
          [accepted] / [rejected] (connections admitted to / shed by
          the queue), [retried], [degraded], [cache_misses] /
          [cache_bytes] (trace counters of non-coalesced compiles),
          [respawns] (worker crashes caught by the watchdog), [sweeps]
          (janitor sweeps, startup + periodic) *)
  cold : Gcd2_util.Stats.Hist.t;  (** latency of served cold requests *)
  warm : Gcd2_util.Stats.Hist.t;
}

type t

(** Bind, listen, and spawn the accept and worker domains.  Unix socket
    paths left over from a dead daemon are removed; [Tcp (host, 0)]
    binds an ephemeral port — read it back with {!address}. *)
val start : config -> t

(** Graceful shutdown: stop accepting, close and drain the admission
    queue (admitted connections are served to EOF), join every domain,
    remove the Unix socket path.  Returns the final merged stats.
    Idempotent — a second call just returns the stats again. *)
val stop : t -> stats

(** Merged stats so far (safe to call while the daemon runs). *)
val stats : t -> stats

(** The bound address — [Tcp] with the actual port after ephemeral bind. *)
val address : t -> address

(** One merged [daemon: ...] stats line (what [stats_every] emits). *)
val stats_line : t -> stats -> string

(** Connect a client socket to [addr] (used by {!Client} and by tests). *)
val connect : address -> Unix.file_descr
