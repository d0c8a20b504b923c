(** The daemon's wire format.

    Requests are the existing [gcd2 serve] request lines
    ({!Gcd2_serve.Serve.parse_line}): [MODEL [FRAMEWORK [SELECTION]]
    [device=NAME]], one per line.  Responses are one framed line per
    request, in request order:

    {v
gcd2r1 outcome=ok hit=1 cold=0 ms=1.532 lat=2.1766 sf=none attempts=1 model=efficientnet-b0 device=hexagon698
gcd2r1 outcome=error hit=0 cold=1 ms=12.004 lat=- sf=lead attempts=3 model=x device=hexagon698 code=cache-io msg="..."
    v}

    Every field is [key=value]; [msg] is [%S]-quoted (it may contain
    spaces) and therefore always last.  [lat] is the served compile's
    model latency estimate in ms, [-] when the request failed.  [sf]
    records how the compile was obtained: [lead] (this request ran the
    compile), [wait] (coalesced onto an identical in-flight compile),
    [adopt] (another {e process} held the digest's lease and this
    daemon adopted the artifact it published — the cross-process flight
    tier), [none] (warm cache hit or no single-flight involvement).  Blank
    request lines and [#] comments produce no response; a malformed
    request line produces an [outcome=invalid] response, and a request
    shed by the admission queue an [outcome=rejected] one with
    [code=overloaded] (retryable — see {!diag_of}).

    Two bare command lines are answered in-frame rather than compiled:
    [health] (liveness probe: [outcome=health] with a
    [workers=... queue=... served=...] payload in [msg]) and [stats]
    (the full merged stats line in [msg]). *)

type flight = Lead | Wait | Adopt | No_flight

val flight_name : flight -> string

type response = {
  outcome : string;
      (** {!Gcd2_serve.Serve.outcome_name}, or ["rejected"] / ["invalid"] *)
  hit : bool;
  cold : bool;
  ms : float;  (** server-side request wall time *)
  lat : float option;  (** model latency estimate of the served compile *)
  flight : flight;
  attempts : int;
  model : string;
  device : string;
  code : string option;  (** {!Gcd2.Diag.code_name} on failure *)
  msg : string option;
}

(** One response line (no trailing newline). *)
val render : response -> string

(** Parse a response line; [Error reason] on anything malformed. *)
val parse : string -> (response, string) result

val of_served : flight:flight -> Gcd2_serve.Serve.served -> response

(** The backpressure response: [outcome=rejected code=overloaded]. *)
val reject : model:string -> device:string -> response

(** The response to an unparseable request line. *)
val invalid : reason:string -> response

(** The response to a bare [health]/[stats] command line:
    [outcome=command], payload in [msg]. *)
val status : command:string -> payload:string -> response

(** Reconstruct a typed diagnostic from a failure response ([code=] name
    looked up in {!Gcd2.Diag.all_codes}), so a client regains the
    [retryable] bit — a [rejected] response maps to a retryable
    [Overloaded]. *)
val diag_of : response -> Gcd2.Diag.t option
