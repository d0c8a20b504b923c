(** The concurrent serve daemon (see the interface). *)

module Serve = Gcd2_serve.Serve
module Compiler = Gcd2.Compiler
module Diag = Gcd2.Diag
module Hist = Gcd2_util.Stats.Hist
module Counters = Gcd2_util.Stats.Counters
module Logsink = Gcd2_util.Logsink
module Fault = Gcd2_util.Fault
module Janitor = Gcd2_store.Janitor
module Lease = Gcd2_store.Lease

type address = Unix_sock of string | Tcp of string * int

let pp_address ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p

type config = {
  address : address;
  workers : int;
  queue_depth : int;
  policy : Serve.policy;
  framework : string;
  selection : string;
  device : string;
  tune : Gcd2_codegen.Autotune.config option;
  resolve : (?seq:int -> string -> Gcd2_graph.Graph.t) option;
  stats_every : int;
  log_outcomes : bool;
  cache_max_bytes : int option;
  janitor_interval_s : float;
  lease_ttl_s : float;
}

let default_config address =
  {
    address;
    workers = 1;
    queue_depth = 16;
    policy = Serve.default_policy;
    framework = "gcd2";
    selection = "13";
    device = "hexagon698";
    tune = None;
    resolve = None;
    stats_every = 0;
    log_outcomes = false;
    cache_max_bytes = None;
    janitor_interval_s = 60.0;
    lease_ttl_s = Lease.default_ttl_s;
  }

type stats = { counts : Counters.t; cold : Hist.t; warm : Hist.t }

(* The stats line's counters, in its order; each renders even at 0.  A
   new counter is its name here plus the line that bumps it. *)
let stats_keys =
  [ "served"; "failed"; "hits"; "compiles"; "resolves"; "coalesced"; "adopted"; "accepted";
    "rejected"; "retried"; "degraded"; "cache_misses"; "cache_bytes"; "respawns"; "sweeps" ]

let empty () =
  { counts = Counters.create stats_keys; cold = Hist.create (); warm = Hist.create () }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  resolved : address;
  queue : Unix.file_descr Bqueue.t;
  (* in-process flights carry the disk-tier role along with the result,
     so followers report [wait] while their leader reports what the
     disk tier actually did (led / adopted / local) *)
  flight : ((Compiler.compiled, Diag.t) result * Flight.Disk.role) Flight.t;
  responses : int Atomic.t;  (* the [stats_every] clock, not a reported stat *)
  started : float;
  stopping : bool Atomic.t;
  seen_mu : Mutex.t;
  seen : (string, unit) Hashtbl.t;
  (* request text -> fingerprint digest: resolving the model and
     fingerprinting the graph cost milliseconds of CPU, and the mapping
     is deterministic — computing it once per distinct request lets a
     warm request go straight to its cache entry ([Serve.serve_one
     ~digest]).  Only digests are kept, never the resolved graphs. *)
  digests : (string, string option) Hashtbl.t;
  (* daemon-wide counters (accept loop, compiles, watchdog, janitor) and
     one tally per worker, touched only under [stats_mu] so a reader
     merging them never sees a half-recorded request *)
  stats_mu : Mutex.t;
  totals : Counters.t;
  tallies : stats array;
  mutable accept_d : unit Domain.t option;
  mutable worker_ds : unit Domain.t list;
  mutable janitor_d : unit Domain.t option;
  mutable stopped : bool;
}

let address t = t.resolved

(* ---------- stats ---------- *)

let bump t key = Mutex.protect t.stats_mu (fun () -> Counters.add t.totals key 1)

let snapshot t =
  Mutex.protect t.stats_mu (fun () ->
      let s = empty () in
      Counters.merge_into ~into:s.counts t.totals;
      Array.iter
        (fun w ->
          Counters.merge_into ~into:s.counts w.counts;
          Hist.merge_into ~into:s.cold w.cold;
          Hist.merge_into ~into:s.warm w.warm)
        t.tallies;
      s)

let stats = snapshot

let stats_line t (s : stats) =
  Printf.sprintf
    "daemon: workers=%d queue=%d %s warm_p50=%.2fms warm_p95=%.2fms warm_p99=%.2fms \
     cold_p50=%.1fms cold_p95=%.1fms"
    t.cfg.workers (Bqueue.length t.queue) (Counters.render s.counts) (Hist.p50 s.warm)
    (Hist.p95 s.warm) (Hist.p99 s.warm) (Hist.p50 s.cold) (Hist.p95 s.cold)

let emit_stats t = Logsink.emit_err (stats_line t (snapshot t))

(* What a load balancer needs from one probe line: liveness, capacity,
   error pressure.  [draining] flips during graceful stop so a balancer
   can pull the backend before the listener goes away. *)
let health_payload t =
  let count = Counters.get (snapshot t).counts in
  Printf.sprintf
    "%s pid=%d workers=%d queue=%d/%d served=%d failed=%d respawns=%d uptime_s=%.1f"
    (if Atomic.get t.stopping then "draining" else "ok")
    (Unix.getpid ()) t.cfg.workers (Bqueue.length t.queue) t.cfg.queue_depth
    (count "served") (count "failed") (count "respawns")
    (Gcd2_util.Trace.now () -. t.started)

(* ---------- request path ---------- *)

let default_resolve ?seq model = Gcd2_models.Zoo.build ?seq model

(* Every model the daemon resolves goes through here and is counted in
   [resolves=]: a request resolves its model at first sight (for its
   digest) and on a cache miss, so warm traffic resolves nothing. *)
let resolve t ?seq model =
  bump t "resolves";
  (Option.value t.cfg.resolve ~default:default_resolve) ?seq model

(* Every field that reaches the compiler configuration must be in the
   key, or two requests differing only in that field would coalesce on
   one compile (tuned and untuned compiles have distinct fingerprints).
   The sequence length enters as its shape bucket, never the raw value:
   every length in a bucket resolves to the same graph, so their digest
   computations (and hence their compiles) must share one memo slot. *)
let request_key (req : Serve.request) =
  String.concat "\x00"
    [ req.model; req.framework; req.selection; req.device;
      (match req.tune with
      | Some t -> Gcd2_codegen.Autotune.to_string t
      | None -> "");
      (match req.seq with
      | Some s -> string_of_int (Serve.seq_bucket s)
      | None -> "") ]

(* The request's fingerprint digest, memoized per distinct request text;
   [None] when the request cannot even be resolved (it will fail in
   [Serve.serve_one] with a proper diagnostic). *)
let digest_of t (req : Serve.request) =
  let key = request_key req in
  match Mutex.protect t.seen_mu (fun () -> Hashtbl.find_opt t.digests key) with
  | Some d -> d
  | None ->
    let d =
      match
        Serve.config_of ~device:req.device ?tune:req.tune ~framework:req.framework
          ~selection:req.selection ()
      with
      | Error _ -> None
      | Ok config -> (
        match resolve t ?seq:req.seq req.model with
        | exception _ -> None
        | graph -> Some (Compiler.fingerprint config graph))
    in
    (* two domains may race to compute the same digest; it is
       deterministic, so last-write-wins is fine *)
    Mutex.protect t.seen_mu (fun () -> Hashtbl.replace t.digests key d);
    d

(* First sight of this request in the daemon, and not already cached on
   disk?  Then its latency belongs in the cold population. *)
let classify_cold t digest =
  match digest with
  | None -> true
  | Some digest ->
    let seen =
      Mutex.protect t.seen_mu (fun () ->
          Hashtbl.mem t.seen digest
          ||
          (Hashtbl.add t.seen digest ();
           false))
    in
    let on_disk =
      match t.cfg.policy.cache_dir with
      | Some dir -> Sys.file_exists (Gcd2_store.Cache.entry_path dir digest)
      | None -> false
    in
    not (seen || on_disk)

(* The single-flight compile hook handed to [Serve.serve_one], which
   calls it only after its early lookup missed.  An entry on disk by now
   (stored since, or unreadable to that lookup under a fault) bypasses
   the flight entirely (lookups are read-only, so concurrent warm hits
   must not serialize); cold compiles coalesce on the request
   fingerprint. *)
let compile_sf t ~digest role ~config ~cache_dir ~jobs ~deadline_ms graph =
  match cache_dir with
  | None ->
    (* the uncached-fallback attempt: its result never reaches the
       cache, so there is nothing to coalesce on *)
    bump t "compiles";
    Serve.default_compile ~config ~cache_dir ~jobs ~deadline_ms graph
  | Some dir ->
    let digest =
      match digest with
      | Some d -> d
      | None -> Compiler.fingerprint config graph
    in
    if Sys.file_exists (Gcd2_store.Cache.entry_path dir digest) then
      Serve.default_compile ~config ~cache_dir ~jobs ~deadline_ms graph
    else
      let r, who =
        Flight.run t.flight digest (fun () ->
            (* in-process leader for this digest: go through the disk
               tier, so of N daemons sharing the store at most one
               process compiles while the others poll-then-adopt *)
            let has_artifact () =
              Sys.file_exists (Gcd2_store.Cache.entry_path dir digest)
            in
            Flight.Disk.run ~dir ~digest ~ttl_s:t.cfg.lease_ttl_s ?deadline_ms
              ~has_artifact (fun drole ->
                (match drole with
                | Flight.Disk.Adopted -> ()
                | Flight.Disk.Led | Flight.Disk.Local -> bump t "compiles");
                Serve.default_compile ~config ~cache_dir ~jobs ~deadline_ms graph))
      in
      (match who with
      | Flight.Leader ->
        role :=
          (match snd r with
          | Flight.Disk.Adopted -> Protocol.Adopt
          | Flight.Disk.Led | Flight.Disk.Local -> Protocol.Lead)
      | Flight.Follower -> role := Protocol.Wait);
      fst r

let record t widx (s : Serve.served) (role : Protocol.flight) =
  Mutex.protect t.stats_mu (fun () ->
      let w = t.tallies.(widx) in
      let add = Counters.add w.counts in
      (match s.outcome with
      | Serve.Ok_ | Serve.Retried | Serve.Degraded ->
        add "served" 1;
        if s.hit then add "hits" 1;
        (match s.outcome with
        | Serve.Retried -> add "retried" 1
        | Serve.Degraded -> add "degraded" 1
        | _ -> ());
        Hist.add (if s.cold then w.cold else w.warm) s.ms
      | Serve.Timed_out | Serve.Failed -> add "failed" 1);
      (match role with
      | Protocol.Wait -> add "coalesced" 1
      | Protocol.Adopt -> add "adopted" 1
      | _ -> ());
      (* fold this compile's trace counters into the worker's tally —
         followers share the leader's compile, so only the leader's copy
         counts, or one coalesced compile would be tallied K times *)
      match (s.compiled, role) with
      | Some c, (Protocol.Lead | Protocol.Adopt | Protocol.No_flight) ->
        let traced = Gcd2_util.Trace.counter c.Compiler.trace in
        add "cache_misses" (traced "cache-misses");
        add "cache_bytes" (traced "cache-bytes")
      | _ -> ())

let respond oc resp =
  output_string oc (Protocol.render resp);
  output_char oc '\n';
  flush oc

let bump_responses t =
  let n = Atomic.fetch_and_add t.responses 1 + 1 in
  if t.cfg.stats_every > 0 && n mod t.cfg.stats_every = 0 then emit_stats t

let serve_request t widx oc (req : Serve.request) =
  let digest = digest_of t req in
  let cold = classify_cold t digest in
  let role = ref Protocol.No_flight in
  let served =
    Serve.serve_one ~resolve:(resolve t) ~compile:(compile_sf t ~digest role) ?digest
      t.cfg.policy ~cold req
  in
  record t widx served !role;
  if t.cfg.log_outcomes then
    Logsink.emit
      (Serve.outcome_line ~extra:("sf=" ^ Protocol.flight_name !role) served);
  respond oc (Protocol.of_served ~flight:!role served);
  bump_responses t

let handle_conn t widx fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let line_no = ref 0 in
  (try
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | raw ->
         incr line_no;
         (match String.lowercase_ascii (String.trim raw) with
         | "health" ->
           respond oc (Protocol.status ~command:"health" ~payload:(health_payload t));
           bump_responses t
         | "stats" ->
           respond oc
             (Protocol.status ~command:"stats" ~payload:(stats_line t (snapshot t)));
           bump_responses t
         | _ -> (
           match
             Serve.parse_line ~framework:t.cfg.framework
               ~selection:t.cfg.selection ~device:t.cfg.device ?tune:t.cfg.tune
               ~line:!line_no raw
           with
           | Ok None -> ()  (* blank/comment: no response *)
           | Error pe ->
             respond oc (Protocol.invalid ~reason:pe.reason);
             bump_responses t
           | Ok (Some req) -> serve_request t widx oc req));
         loop ()
     in
     loop ()
   with _ -> ());
  (* both channels share [fd], so close it exactly once, via the raw
     descriptor — closing each channel would close the same fd number
     twice, and between the two closes a concurrent accept can be handed
     that number, silently wiring two connections together *)
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------- domains ---------- *)

(* A crashed worker still has its connection in hand: answer it with a
   retryable worker-failed line (the client's policy machinery treats
   it like any transient failure) and close, so the crash costs the
   client one retry, never a hung connection. *)
let answer_crash fd exn =
  (try
     let oc = Unix.out_channel_of_descr fd in
     respond oc
       {
         Protocol.outcome = "error";
         hit = false;
         cold = false;
         ms = 0.;
         lat = None;
         flight = Protocol.No_flight;
         attempts = 1;
         model = "-";
         device = "-";
         code = Some (Diag.code_name Diag.Worker_failed);
         msg = Some ("worker crashed: " ^ Printexc.to_string exn);
       }
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The worker body under a watchdog: an exception escaping the serve
   loop (a bug, or the injected [pool-worker] fault consulted once per
   connection) is counted, logged, and the loop re-entered — the domain
   never silently dies with connections still queued.  Each respawn
   consumed one connection (answered retryable above), so even a
   fault probability of 1 drains the queue and terminates. *)
let worker t widx () =
  let loop () =
    let rec go () =
      match Bqueue.pop t.queue with
      | None -> ()
      | Some fd ->
        (match
           Fault.fire "pool-worker";
           handle_conn t widx fd
         with
        | () -> ()
        | exception exn ->
          answer_crash fd exn;
          raise exn);
        go ()
    in
    go ()
  in
  let rec supervise () =
    match loop () with
    | () -> ()
    | exception exn ->
      bump t "respawns";
      Logsink.emit_err
        (Printf.sprintf "daemon: worker %d crashed (%s); respawning" widx
           (Printexc.to_string exn));
      supervise ()
  in
  supervise ()

(* Startup + periodic cache-directory sweeps (see {!Gcd2_store.Janitor}).
   The domain sleeps in short ticks so [stop] is prompt. *)
let janitor_config t =
  {
    Janitor.default with
    Janitor.max_bytes = t.cfg.cache_max_bytes;
    lease_ttl_s = t.cfg.lease_ttl_s;
  }

let sweep_once t dir =
  match Janitor.sweep ~dir (janitor_config t) with
  | r ->
    bump t "sweeps";
    if
      List.exists
        (fun k -> Counters.get r k > 0)
        [ "tmp_removed"; "bad_removed"; "leases_broken"; "evicted"; "errors" ]
    then Logsink.emit_err ("daemon: " ^ Janitor.report_line r)
  | exception _ -> ()

let janitor_loop t dir () =
  let rec loop () =
    let rec sleep elapsed =
      if (not (Atomic.get t.stopping)) && elapsed < t.cfg.janitor_interval_s then begin
        Unix.sleepf 0.1;
        sleep (elapsed +. 0.1)
      end
    in
    sleep 0.0;
    if not (Atomic.get t.stopping) then begin
      sweep_once t dir;
      loop ()
    end
  in
  loop ()

let reject_conn t conn =
  bump t "rejected";
  (try
     let oc = Unix.out_channel_of_descr conn in
     output_string oc (Protocol.render (Protocol.reject ~model:"-" ~device:"-"));
     output_char oc '\n';
     flush oc
   with _ -> ());
  try Unix.close conn with Unix.Unix_error _ -> ()

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error _ -> ()
    | conn, _ ->
      if Atomic.get t.stopping then (
        try Unix.close conn with Unix.Unix_error _ -> ())
      else begin
        (* admit and count under [stats_mu], so the [stats] answer a
           worker gives on this connection already counts it *)
        let admitted =
          Mutex.protect t.stats_mu (fun () ->
              let ok = Bqueue.try_push t.queue conn in
              if ok then Counters.add t.totals "accepted" 1;
              ok)
        in
        if not admitted then reject_conn t conn;
        loop ()
      end
  in
  loop ()

(* ---------- lifecycle ---------- *)

let resolve_ip host =
  match Unix.inet_addr_of_string host with
  | ip -> ip
  | exception Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let connect addr =
  match addr with
  | Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (resolve_ip host, port))
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd

let start cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.start: workers must be >= 1";
  (* a client that disconnects mid-response must cost an EPIPE in that
     worker's write (swallowed by [handle_conn]), not a fatal SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd, resolved =
    match cfg.address with
    | Unix_sock path ->
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_sock path)
    | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_ip host, port));
      Unix.listen fd 64;
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, port))
  in
  Serve.reset_degradation_log ();
  let t =
    {
      cfg;
      listen_fd;
      resolved;
      queue = Bqueue.create ~capacity:cfg.queue_depth;
      flight = Flight.create ();
      responses = Atomic.make 0;
      started = Gcd2_util.Trace.now ();
      stopping = Atomic.make false;
      seen_mu = Mutex.create ();
      seen = Hashtbl.create 64;
      digests = Hashtbl.create 64;
      stats_mu = Mutex.create ();
      totals = Counters.create [];
      tallies = Array.init cfg.workers (fun _ -> empty ());
      accept_d = None;
      worker_ds = [];
      janitor_d = None;
      stopped = false;
    }
  in
  (* recover the store before serving from it: debris and stale leases
     of a previous (possibly SIGKILLed) incarnation are swept now, then
     periodically *)
  (match cfg.policy.Serve.cache_dir with
  | Some dir ->
    sweep_once t dir;
    if cfg.janitor_interval_s > 0.0 then
      t.janitor_d <- Some (Domain.spawn (janitor_loop t dir))
  | None -> ());
  t.accept_d <- Some (Domain.spawn (accept_loop t));
  t.worker_ds <- List.init cfg.workers (fun i -> Domain.spawn (worker t i));
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (* a plain [close] does not reliably wake a blocked [accept]; a
       throwaway connection does, and the loop then sees [stopping] *)
    (try Unix.close (connect t.resolved) with _ -> ());
    Option.iter Domain.join t.accept_d;
    t.accept_d <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* close-then-join drains: connections already admitted are served
       to EOF before the workers exit *)
    Bqueue.close t.queue;
    List.iter Domain.join t.worker_ds;
    t.worker_ds <- [];
    Option.iter Domain.join t.janitor_d;
    t.janitor_d <- None;
    (match t.resolved with
    | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    if t.cfg.stats_every > 0 || t.cfg.log_outcomes then emit_stats t
  end;
  snapshot t
