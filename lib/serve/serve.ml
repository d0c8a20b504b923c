(** The hardened batch-serving loop (see the interface for the policy
    model: deadline, bounded retry, graceful degradation, verification). *)

module Compiler = Gcd2.Compiler
module Diag = Gcd2.Diag
module Zoo = Gcd2_models.Zoo
module F = Gcd2_frameworks.Framework
module Cache = Gcd2_store.Cache
module Artifact = Gcd2_store.Artifact
module Graphcost = Gcd2_cost.Graphcost
module Trace = Gcd2_util.Trace
module Fault = Gcd2_util.Fault
module Desc = Gcd2_devices.Desc
module Autotune = Gcd2_codegen.Autotune

type request = {
  model : string;
  framework : string;
  selection : string;
  device : string;
  tune : Autotune.config option;
  seq : int option;
  line : int;
}

let request ?(framework = "gcd2") ?(selection = "13") ?(device = "hexagon698") ?tune
    ?seq ?(line = 0) model =
  { model; framework; selection; device; tune; seq; line }

(* The shape bucket a dynamic sequence length is served from (unclamped;
   the model builder additionally clamps to its native maximum).  Keying
   the cold/warm and single-flight bookkeeping on the bucket — never the
   raw length — is what lets one compiled artifact serve every length in
   its bucket. *)
let seq_bucket seq =
  let rec next p = if p >= seq then p else next (2 * p) in
  next 16

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

type parse_error = { line : int; text : string; reason : string }

let parse_line ~framework ~selection ~device ?tune ~line text =
  let trimmed = String.trim text in
  let error reason = Error { line; text = trimmed; reason } in
  if trimmed = "" || trimmed.[0] = '#' then Ok None
  else
    let tokens =
      String.split_on_char ' ' trimmed
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")
    in
    (* `model #comment` must be an error, not framework="#comment": an
       inline comment was almost certainly meant, and guessing silently
       mis-parses the request *)
    match List.find_opt (fun t -> t.[0] = '#') tokens with
    | Some tok ->
      error (Fmt.str "inline comment %S not allowed (comments must start the line)" tok)
    | None -> (
      (* the [device=NAME], [tune=SPEC] and [seq=N] fields are
         positionless — pull them out before the positional
         MODEL [FRAMEWORK [SELECTION]] match *)
      let device_tokens, tokens =
        List.partition (String.starts_with ~prefix:"device=") tokens
      in
      let tune_tokens, tokens =
        List.partition (String.starts_with ~prefix:"tune=") tokens
      in
      let seq_tokens, tokens =
        List.partition (String.starts_with ~prefix:"seq=") tokens
      in
      match (device_tokens, tune_tokens, seq_tokens) with
      | (_ :: _ :: _), _, _ ->
        error
          (Fmt.str "duplicate device= field: %S" (String.concat " " device_tokens))
      | _, (_ :: _ :: _), _ ->
        error (Fmt.str "duplicate tune= field: %S" (String.concat " " tune_tokens))
      | _, _, (_ :: _ :: _) ->
        error (Fmt.str "duplicate seq= field: %S" (String.concat " " seq_tokens))
      | (([] | [ _ ]) as dev), (([] | [ _ ]) as tn), (([] | [ _ ]) as sq) -> (
        let named =
          match dev with
          | [ tok ] -> Some (String.sub tok 7 (String.length tok - 7))
          | _ -> None
        in
        (* an unknown device (or malformed tune/seq spec) is a per-line
           error, not a served failure: the request never names a valid
           target, so reject it here with its line number.  A known one is
           stored under its canonical name, so one device is one spelling
           in cold/warm and single-flight keys and in outcome lines. *)
        match Option.map (fun name -> (name, Desc.find name)) named with
        | Some (name, None) ->
          error
            (Fmt.str "unknown device %S (known: %s)" name (String.concat ", " Desc.names))
        | found -> (
          let device = match found with Some (_, Some d) -> d.Desc.name | _ -> device in
          match
            match sq with
            | [ tok ] -> (
              let spec = String.sub tok 4 (String.length tok - 4) in
              match int_of_string_opt spec with
              | Some s when s > 0 -> Ok (Some s)
              | Some _ | None ->
                Error
                  (Fmt.str "invalid seq= field %S (expected a positive integer)" spec))
            | _ -> Ok None
          with
          | Error reason -> error reason
          | Ok seq -> (
            match
              match tn with
              | [ tok ] -> (
                let spec = String.sub tok 5 (String.length tok - 5) in
                (* `tune=off` lets a request line force tuning off even
                   when the batch default enables it *)
                match String.lowercase_ascii spec with
                | "off" | "none" -> Ok None
                | _ -> Result.map Option.some (Autotune.of_string spec))
              | _ -> Ok tune
            with
            | Error reason -> error reason
            | Ok tune -> (
              match tokens with
              | [] -> Ok None
              | [ model ] ->
                Ok (Some { model; framework; selection; device; tune; seq; line })
              | [ model; framework ] ->
                Ok (Some { model; framework; selection; device; tune; seq; line })
              | [ model; framework; selection ] ->
                Ok (Some { model; framework; selection; device; tune; seq; line })
              | _ :: _ :: _ :: garbage ->
                error
                  (Fmt.str "trailing garbage after SELECTION: %S"
                     (String.concat " " garbage)))))))

let parse_lines ~framework ~selection ?(device = "hexagon698") ?tune ?(first_line = 1)
    lines =
  let requests, errors =
    List.fold_left
      (fun ((requests, errors), line) text ->
        ( (match parse_line ~framework ~selection ~device ?tune ~line text with
          | Ok None -> (requests, errors)
          | Ok (Some r) -> (r :: requests, errors)
          | Error e -> (requests, e :: errors)),
          line + 1 ))
      ((([], []) : request list * parse_error list), first_line)
      lines
    |> fst
  in
  (List.rev requests, List.rev errors)

(* ------------------------------------------------------------------ *)
(* Request -> compiler configuration                                   *)

let config_of ?(device = "hexagon698") ?tune ~framework ~selection () =
  let invalid msg = Error (Diag.make Diag.Invalid_request msg) in
  match
    match String.lowercase_ascii framework with
    | "gcd2" -> Some F.gcd2
    | "gcd2_b" | "gcdb" -> Some F.gcd2_b
    | "tflite" -> Some F.tflite
    | "snpe" -> Some F.snpe
    | "no_opt" | "noopt" -> Some F.no_opt
    | _ -> None
  with
  | None -> invalid (Fmt.str "unknown framework %S" framework)
  | Some base -> (
    match Desc.find device with
    | None ->
      invalid (Fmt.str "unknown device %S (known: %s)" device (String.concat ", " Desc.names))
    | Some desc -> (
      let base = Compiler.with_device desc base in
      let base =
        { base with Compiler.opcost = { base.Compiler.opcost with Gcd2_cost.Opcost.tune } }
      in
      match String.lowercase_ascii selection with
      | "local" -> Ok { base with Compiler.selection = Compiler.Local }
      | "optimal" -> Ok { base with Compiler.selection = Compiler.Optimal_dp }
      | k -> (
        match int_of_string_opt k with
        | Some k when k > 0 -> Ok { base with Compiler.selection = Compiler.Partitioned k }
        | _ -> invalid (Fmt.str "bad selection %S" selection))))

(* ------------------------------------------------------------------ *)
(* Policy and outcomes                                                 *)

type policy = {
  cache_dir : string option;
  deadline_ms : float option;
  retries : int;
  backoff_ms : float;
  jobs : int option;
}

let default_policy =
  { cache_dir = None; deadline_ms = None; retries = 2; backoff_ms = 25.0; jobs = None }

type outcome = Ok_ | Retried | Degraded | Timed_out | Failed

let outcome_name = function
  | Ok_ -> "ok"
  | Retried -> "retried"
  | Degraded -> "degraded"
  | Timed_out -> "timeout"
  | Failed -> "error"

type served = {
  request : request;
  outcome : outcome;
  diag : Diag.t option;
  compiled : Compiler.compiled option;
  hit : bool;
  cold : bool;
  ms : float;
  attempts : int;
  quarantined : int;
  uncached : bool;
}

(* ------------------------------------------------------------------ *)
(* Serving one request                                                 *)

let default_resolve ?seq model = Zoo.build ?seq model

(* The uncached-fallback degradation is logged once per batch (reset by
   [run_batch]), not once per poisoned request: a dead cache directory
   would otherwise log on every request of the batch.  The flag is
   atomic and the line goes through the mutex-guarded {!Logsink}: under
   the multi-domain daemon several workers hit a dead cache at once, and
   their log lines must neither tear nor multiply. *)
let degradation_logged = Atomic.make false

let reset_degradation_log () = Atomic.set degradation_logged false

let log_degradation d =
  if not (Atomic.exchange degradation_logged true) then
    Gcd2_util.Logsink.emit_err
      (Fmt.str "serve: cache unusable (%a); continuing uncached" Diag.pp d)

(* After a degraded or retried path, re-read the stored artifact with
   fault injection disabled and check it against the compile actually
   served: a damaged cache may cost retries and recompiles, never wrong
   bits.  An entry that is gone by now (another daemon worker
   quarantined it, or the janitor evicted it) leaves nothing to check
   against, so the compile stands. *)
let verify_against_store ~dir config graph (c : Compiler.compiled) =
  Fault.with_disabled @@ fun () ->
  let digest = Compiler.fingerprint config graph in
  let path = Cache.entry_path dir digest in
  match Artifact.load ~expect_digest:digest ~path () with
  | Ok (art, _) ->
    art.Artifact.assignment = c.Compiler.assignment
    && art.Artifact.report.Graphcost.ms = c.Compiler.report.Graphcost.ms
    && art.Artifact.report.Graphcost.cycles = c.Compiler.report.Graphcost.cycles
  | Error _ -> not (Sys.file_exists path)

(* The compile step is pluggable so a front end can wrap it without
   re-implementing the policy machinery: the daemon passes a
   single-flight wrapper here, and the deadline/retry/degradation loop
   below applies to it unchanged. *)
type compile_fn =
  config:Compiler.config ->
  cache_dir:string option ->
  jobs:int option ->
  deadline_ms:float option ->
  Gcd2_graph.Graph.t ->
  (Compiler.compiled, Diag.t) result

let default_compile ~config ~cache_dir ~jobs ~deadline_ms g =
  Compiler.compile_result ~config ?cache_dir ?jobs ?deadline_ms g

let serve_one ?(resolve = default_resolve) ?(compile = default_compile) ?digest policy
    ~cold (request : request) =
  let t0 = Trace.now () in
  let elapsed_ms () = 1000.0 *. (Trace.now () -. t0) in
  let deadline = Option.map (fun ms -> t0 +. (ms /. 1000.0)) policy.deadline_ms in
  let remaining_ms () = Option.map (fun d -> 1000.0 *. (d -. Trace.now ())) deadline in
  let fail ?(attempts = 1) d =
    let d = Diag.with_model request.model d in
    {
      request;
      outcome = (if d.Diag.code = Diag.Deadline_exceeded then Timed_out else Failed);
      diag = Some d;
      compiled = None;
      hit = false;
      cold;
      ms = elapsed_ms ();
      attempts;
      quarantined = 0;
      uncached = false;
    }
  in
  let served ~attempts ~quarantined ~uncached c =
    let degraded = uncached || quarantined > 0 in
    {
      request;
      outcome = (if degraded then Degraded else if attempts > 1 then Retried else Ok_);
      diag = None;
      compiled = Some c;
      hit = Compiler.from_cache c;
      cold;
      ms = elapsed_ms ();
      attempts;
      quarantined;
      uncached;
    }
  in
  match
    config_of ~device:request.device ?tune:request.tune ~framework:request.framework
      ~selection:request.selection ()
  with
  | Error d -> fail d
  | Ok config -> (
    (* A request whose digest is known is looked up before anything
       else: a verified hit is the whole answer, and the model is
       resolved only on a miss.  A miss for any reason (absent, corrupt
       or stale entry, an injected fault, no time left) falls through to
       the full path below with its retries, quarantine and
       verification; an entry the lookup quarantined degrades the
       answer exactly as a quarantine inside the compile does. *)
    let early =
      match (digest, policy.cache_dir, remaining_ms ()) with
      | _, _, Some r when r <= 0.0 -> Error 0
      | Some digest, Some dir, _ -> Compiler.lookup ~config ~dir digest
      | _ -> Error 0
    in
    match early with
    | Ok c -> served ~attempts:1 ~quarantined:0 ~uncached:false c
    | Error early_quarantined -> (
      match resolve ?seq:request.seq request.model with
      | exception Invalid_argument msg -> fail (Diag.make Diag.Invalid_request msg)
      | exception exn -> fail (Diag.of_exn exn)
      | graph -> (
        let backoff k =
          let ms = policy.backoff_ms *. (2.0 ** float_of_int k) in
          let ms =
            match remaining_ms () with
            | Some r -> Float.min ms (Float.max 0.0 r)
            | None -> ms
          in
          if ms > 0.0 then Unix.sleepf (ms /. 1000.0)
        in
        let attempts = ref 0 in
        let rec attempt ~cache_dir k =
          incr attempts;
          match remaining_ms () with
          | Some r when r <= 0.0 ->
            Error (Diag.make Diag.Deadline_exceeded "deadline expired before the attempt")
          | rem -> (
            match compile ~config ~cache_dir ~jobs:policy.jobs ~deadline_ms:rem graph with
            | Ok c -> Ok (c, cache_dir)
            | Error d when d.Diag.retryable && k < policy.retries ->
              backoff k;
              attempt ~cache_dir (k + 1)
            | Error d when d.Diag.code = Diag.Cache_io && cache_dir <> None ->
              (* retries exhausted on a cache failure: the cache is
                 unusable for this request, so degrade to an uncached
                 compile rather than failing it *)
              log_degradation d;
              attempt ~cache_dir:None 0
            | Error d -> Error d)
        in
        match attempt ~cache_dir:policy.cache_dir 0 with
        | Error d -> fail ~attempts:!attempts d
        | Ok (c, used_cache_dir) -> (
          let quarantined =
            early_quarantined + Trace.counter c.Compiler.trace "cache-quarantined"
          in
          let uncached = used_cache_dir = None && policy.cache_dir <> None in
          let store_suppressed =
            Trace.counter c.Compiler.trace "cache-store-suppressed" > 0
          in
          let verified =
            match used_cache_dir with
            | Some dir when (quarantined > 0 || !attempts > 1) && not store_suppressed ->
              verify_against_store ~dir config graph c
            | _ -> true  (* nothing stored out-of-band to check against *)
          in
          if verified then served ~attempts:!attempts ~quarantined ~uncached c
          else
            fail ~attempts:!attempts
              (Diag.make Diag.Internal "stored artifact does not match the served compile")))))

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

type report = {
  requests : int;
  ok : int;
  errors : int;
  timeouts : int;
  retried : int;
  degraded : int;
  hits : int;
  misses : int;
  cold_ms : float list;
  warm_ms : float list;
}

let report_of results =
  let count f = List.length (List.filter f results) in
  let ok r = r.diag = None in
  {
    requests = List.length results;
    ok = count ok;
    errors = count (fun r -> r.outcome = Failed);
    timeouts = count (fun r -> r.outcome = Timed_out);
    retried = count (fun r -> r.outcome = Retried);
    degraded = count (fun r -> r.outcome = Degraded);
    hits = count (fun r -> ok r && r.hit);
    misses = count (fun r -> ok r && not r.hit);
    (* only served requests enter the latency populations: a failed
       request's wall time measures the failure path, not the service *)
    cold_ms = List.filter_map (fun r -> if ok r && r.cold then Some r.ms else None) results;
    warm_ms =
      List.filter_map (fun r -> if ok r && not r.cold then Some r.ms else None) results;
  }

let run_batch ?resolve ?compile ?(on_result = fun _ -> ()) policy requests =
  reset_degradation_log ();
  let seen = Hashtbl.create 16 in
  let results =
    List.map
      (fun (r : request) ->
        (* the key carries the shape bucket, not the raw sequence
           length: two lengths in one bucket resolve to the same graph,
           so the second is warm *)
        let key =
          (r.model, r.framework, r.selection, r.device, r.tune,
           Option.map seq_bucket r.seq)
        in
        let cold = not (Hashtbl.mem seen key) in
        Hashtbl.replace seen key ();
        let served = serve_one ?resolve ?compile policy ~cold r in
        on_result served;
        served)
      requests
  in
  (results, report_of results)

(* ------------------------------------------------------------------ *)
(* Outcome lines                                                       *)

(* One structured line per served request — the shared rendering behind
   `gcd2 serve` and the daemon's log, emitted through the mutex-guarded
   {!Gcd2_util.Logsink} so concurrent workers never tear it. *)
let outcome_line ?(extra = "") (r : served) =
  let b = Buffer.create 96 in
  let req = r.request in
  Buffer.add_string b
    (Fmt.str "%-16s %-8s %-10s %-8s %5s %-4s %10.1f ms" req.model req.framework
       req.selection (outcome_name r.outcome)
       (match r.diag with Some _ -> "-" | None -> if r.hit then "hit" else "miss")
       (if r.cold then "cold" else "warm")
       r.ms);
  (match r.compiled with
  | Some c -> Buffer.add_string b (Fmt.str "   model %8.2f ms" (Compiler.latency_ms c))
  | None -> ());
  if req.device <> "hexagon698" then Buffer.add_string b ("   device=" ^ req.device);
  (match req.tune with
  | Some t -> Buffer.add_string b ("   tune=" ^ Autotune.to_string t)
  | None -> ());
  (match req.seq with
  | Some s -> Buffer.add_string b (Fmt.str "   seq=%d(bucket %d)" s (seq_bucket s))
  | None -> ());
  if r.attempts > 1 then Buffer.add_string b (Fmt.str "   attempts=%d" r.attempts);
  if r.quarantined > 0 then Buffer.add_string b (Fmt.str "   quarantined=%d" r.quarantined);
  if r.uncached then Buffer.add_string b "   uncached";
  if extra <> "" then Buffer.add_string b ("   " ^ extra);
  (match r.diag with
  | Some d ->
    Buffer.add_string b (Fmt.str "   code=%s" (Diag.code_name d.Diag.code));
    (match req.line with 0 -> () | n -> Buffer.add_string b (Fmt.str " line=%d" n));
    Buffer.add_string b ("   " ^ d.Diag.message)
  | None -> ());
  Buffer.contents b
