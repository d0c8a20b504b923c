(* serve-zipf: a real [gcd2 daemon --workers 2] process over a fresh
   cache directory.

   Set-up (three times, median reported): spawn the daemon and poll
   [health] until it answers; the third daemon takes the load.  It is
   primed with every key at once, over both connections: twenty cold
   compile-and-store writes queued behind one another, which is where
   head-of-line blocking shows.  Then an open loop of Poisson arrivals
   over the warm cache: one thread drives two pipelined connections with
   [Unix.select], sends each request when it is due whatever the daemon
   is doing, and times it from that due time.  Each connection is held
   by one daemon worker for the whole run.

   Checks: every request is answered [ok]; every answer for a key
   carries the same [lat=]; for four seeded keys that [lat=] equals an
   in-process compile of the same request, which is made cold into a
   fresh cache and checked against a warm one (these compiles give the
   compile path's layers in a traced run). *)

open Common
module Protocol = Gcd2_daemon.Protocol
module Client = Gcd2_daemon.Client
module Daemon = Gcd2_daemon.Daemon
module Serve = Gcd2_serve.Serve

let rate = 50.0
let conns = 2
let zipf_s = 1.1
let slo_ms = 100.0
let verified_keys = 4

(* How long to wait for the last answers once every request is sent. *)
let drain_s = 60.0

let cli () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/gcd2_cli.exe"

(* The daemon must not inherit fault injection, a device or a job count
   from the caller's environment. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"GCD2_" kv))
       (Array.to_list (Unix.environment ())))

type daemon = { pid : int; sock : string }

let spawn ~dir ~n =
  let file ext = Filename.concat dir (Printf.sprintf "d%d.%s" n ext) in
  let sock = file "sock" in
  let log = Unix.openfile (file "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| cli (); "daemon"; "--workers"; "2"; "--jobs"; "1"; "--socket"; sock; "--cache-dir";
       file "cache"; "--device"; "hexagon698"; "--stats-every"; "0"; "--quiet" |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process_env args.(0) args (clean_env ()) Unix.stdin log log)
  in
  { pid; sock }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let wait_healthy d =
  let give_up = now () +. 60.0 in
  let rec go () =
    match Client.batch (Daemon.Unix_sock d.sock) [ "health" ] with
    | [ Ok r ] when r.Protocol.outcome = "health" -> ()
    | _ | (exception _) ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) <> 0 then
        failwith "serve-zipf: the daemon exited during start-up";
      if now () > give_up then failwith "serve-zipf: the daemon never answered health";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

type answer = { recv : float; resp : (Protocol.response, string) Stdlib.result }

(* Send every request of [sched] at its due time, counted from [start],
   over [conns] fresh connections; answers come back in order per
   connection.  Returns each request's send time and answer, [None]
   when none came. *)
let drive d keys (sched : Seeded.request array) ~start =
  let fds =
    Array.init conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX d.sock);
        fd)
  in
  let n = Array.length sched in
  let answers = Array.make n None and sent = Array.make n 0.0 in
  let pending = Array.init conns (fun _ -> Queue.create ()) in
  let partial = Array.init conns (fun _ -> Buffer.create 256) in
  let live = Array.make conns true in
  let chunk = Bytes.create 65536 in
  let outstanding = ref 0 and next = ref 0 in
  let send i =
    let q = sched.(i) in
    let line = Bytes.of_string (keys.(q.Seeded.key) ^ "\n") in
    sent.(i) <- now ();
    ignore (Unix.write fds.(q.Seeded.conn) line 0 (Bytes.length line));
    Queue.push i pending.(q.Seeded.conn);
    incr outstanding
  in
  let receive c =
    let got = Unix.read fds.(c) chunk 0 (Bytes.length chunk) in
    let t = now () in
    if got = 0 then live.(c) <- false
    else begin
      Buffer.add_subbytes partial.(c) chunk 0 got;
      let lines = String.split_on_char '\n' (Buffer.contents partial.(c)) in
      Buffer.clear partial.(c);
      let rec take = function
        | [] -> ()
        | [ rest ] -> Buffer.add_string partial.(c) rest
        | line :: rest ->
          Option.iter
            (fun i ->
              answers.(i) <- Some { recv = t; resp = Protocol.parse line };
              decr outstanding)
            (Queue.take_opt pending.(c));
          take rest
      in
      take lines
    end
  in
  let give_up = ref infinity in
  let continue () =
    !next < n || (!outstanding > 0 && now () < !give_up && Array.exists Fun.id live)
  in
  while continue () do
    let t = now () in
    if !next < n && t >= start +. sched.(!next).Seeded.due then begin
      send !next;
      incr next
    end
    else begin
      if !next = n && !give_up = infinity then give_up := t +. drain_s;
      let until = if !next < n then start +. sched.(!next).Seeded.due else !give_up in
      let watched = List.filter (fun c -> live.(c)) (List.init conns Fun.id) in
      let wait = Float.max 0.0 (until -. t) in
      let ready, _, _ =
        try Unix.select (List.map (fun c -> fds.(c)) watched) [] [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun c -> if List.mem fds.(c) ready then receive c) watched
    end
  done;
  Array.iter Unix.close fds;
  (sent, answers)

(* [key=value] fields of the daemon's in-frame stats line. *)
let stats_fields d =
  match Client.batch (Daemon.Unix_sock d.sock) [ "stats" ] with
  | [ Ok { Protocol.msg = Some line; _ } ] ->
    List.filter_map
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ k; v ] -> Some (k, v)
        | _ -> None)
      (String.split_on_char ' ' line)
  | _ -> failwith "serve-zipf: no stats answer"

let served (r : Protocol.response) =
  List.mem r.Protocol.outcome [ "ok"; "retried"; "degraded" ]

(* [lat=] as an in-process compile of the request line renders it. *)
let in_process_lat r ~spans ~layers ~cache_dir key =
  let parsed =
    Serve.parse_line ~framework:"gcd2" ~selection:"13" ~device:"hexagon698" ~line:0 key
  in
  match parsed with
  | Ok (Some req) -> (
    let framework = req.Serve.framework and selection = req.Serve.selection in
    match Serve.config_of ~device:req.Serve.device ~framework ~selection () with
    | Ok config ->
      let g = build ~spans ~layers req.Serve.model in
      let c, _, _ = cold_then_warm r ~spans ~layers ~config ~tag:key ~cache_dir g in
      Printf.sprintf "%.4f" (Compiler.latency_ms c)
    | Error _ -> "no config")
  | _ -> "unparsable"

(* Where an answered request's latency went, in ms: it is their sum. *)
type parts = {
  late : float;  (** the generator sent it late *)
  queue : float;  (** sent until answered, less the server's [ms=]: transport and queueing *)
  service : float;  (** the server's [ms=] *)
}

(* What one phase's answers say, with every request checked.  Latencies
   run from the due time; a failed or missing answer is +infinity. *)
type phase = {
  lat : float list;
  by_key : (string * float list) list;
  answered : parts list;
  within : int;  (** answered [ok] within [slo_ms] *)
  n : int;
}

let total p = p.late +. p.queue +. p.service

(* The share of the answered requests' latency spent in [part]. *)
let share part answered =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 answered in
  100.0 *. sum part /. sum total

let account r ~spans ~keys ~lats ~name ~start sched (sent, answers) =
  let lat = ref [] and answered = ref [] and within = ref 0 in
  let by_key = Hashtbl.create 20 in
  let record key ms =
    lat := ms :: !lat;
    Hashtbl.replace by_key key (ms :: Option.value ~default:[] (Hashtbl.find_opt by_key key))
  in
  let failed key fmt =
    record key infinity;
    check r false ("%s: " ^^ fmt) key
  in
  Array.iteri
    (fun i (q : Seeded.request) ->
      let due = start +. q.Seeded.due in
      let key = keys.(q.Seeded.key) in
      match answers.(i) with
      | Some { recv; resp = Ok resp } when served resp ->
        let ms = 1000.0 *. (recv -. due) in
        record key ms;
        let service = resp.Protocol.ms in
        let late = 1000.0 *. (sent.(i) -. due) in
        answered := { late; queue = ms -. late -. service; service } :: !answered;
        if ms <= slo_ms then incr within;
        let l = match resp.Protocol.lat with Some l -> Printf.sprintf "%.4f" l | None -> "-" in
        let l0 = Option.value ~default:l (Hashtbl.find_opt lats key) in
        Hashtbl.replace lats key l0;
        check r (l = l0) "%s: lat=%s differs from an earlier lat=%s" key l l0;
        Option.iter
          (fun sp ->
            let tag = Printf.sprintf "%s:%d" name i in
            let parent = Spans.add sp ~tag "loadgen.request" ~start:due ~stop:recv in
            let server_start = recv -. (resp.Protocol.ms /. 1000.0) in
            ignore (Spans.add sp ~parent ~tag "loadgen.late" ~start:due ~stop:sent.(i));
            ignore (Spans.add sp ~parent ~tag "daemon.service" ~start:server_start ~stop:recv))
          spans
      | Some { resp = Ok resp; _ } ->
        let code = Option.value ~default:"-" resp.Protocol.code in
        failed key "outcome=%s code=%s" resp.Protocol.outcome code
      | Some { resp = Error e; _ } -> failed key "unparsable answer: %s" e
      | None -> failed key "no answer")
    sched;
  {
    lat = !lat;
    by_key = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_key [];
    answered = !answered;
    within = !within;
    n = Array.length sched;
  }

let run ~seed ~seconds ~spans =
  let r = result () in
  let layers = layers () in
  let dir = scratch_dir "serve" in
  let setups =
    List.init setup_reps (fun n ->
        let d, s =
          timed (fun () ->
              let d = spawn ~dir ~n in
              (try wait_healthy d
               with e ->
                 stop d;
                 raise e);
              d)
        in
        if n < setup_reps - 1 then stop d;
        (d, s))
  in
  let d = fst (List.nth setups (setup_reps - 1)) in
  let keys = Seeded.keys in
  (* the priming burst is the same for every seed, so the same compiles
     always run side by side *)
  let prime =
    Array.init (Array.length keys) (fun key -> { Seeded.due = 0.0; key; conn = key mod conns })
  in
  let sched = Seeded.schedule ~seed ~rate ~seconds ~conns ~nkeys:(Array.length keys) ~zipf_s in
  let lats = Hashtbl.create 20 in
  let phase name sched =
    let start = now () in
    account r ~spans ~keys ~lats ~name ~start sched (drive d keys sched ~start)
  in
  let cold, warm, stats, rss =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let cold = phase "prime" prime in
        let warm = phase "load" sched in
        (cold, warm, stats_fields d, peak_rss_mb ~pid:d.pid ()))
  in
  (* the in-process compile of four seeded keys must agree with the daemon *)
  Array.iteri
    (fun i key ->
      if i < verified_keys then
        let l = Option.value ~default:"-" (Hashtbl.find_opt lats key) in
        let cache_dir = Filename.concat dir (Printf.sprintf "verify%d" i) in
        let mine = in_process_lat r ~spans ~layers ~cache_dir key in
        check r (mine = l) "%s: daemon lat=%s, in-process compile %s" key l mine)
    (Seeded.shuffle (Seeded.rng ~seed "verify") keys);
  rm_rf dir;
  let stat k = float_of_string (List.assoc k stats) in
  let tail xs = match Sample.tail xs with Some (_, v) -> v | None -> Float.nan in
  note r "requests" (Json.Num (float_of_int warm.n));
  note r "latency_ms" (summary warm.lat);
  note r "late_ms" (summary (List.map (fun p -> p.late) warm.answered));
  note r "prime_ms" (summary cold.lat);
  note r "rejected" (Json.Num (stat "rejected"));
  note r "respawns" (Json.Num (stat "respawns"));
  (match spans with
  | None ->
    (* geomean over keys of each key's median, as the other workloads
       take it over models *)
    let medians = List.map (fun (_, xs) -> Sample.median xs) warm.by_key in
    metric r "latency_ms" (Sample.geomean medians);
    metric r "setup_s" (Sample.median (List.map snd setups));
    metric r "peak_rss_mb" rss
  | Some _ ->
    compile_path_metrics r layers;
    let service p = p.service in
    let slow = tail warm.lat in
    metric r "loadgen.late_pct" (share (fun p -> p.late) warm.answered);
    metric r "daemon.queue_wait_pct" (share (fun p -> p.queue) warm.answered);
    metric r "daemon.service_pct" (share service warm.answered);
    metric r "daemon.tail_service_pct"
      (share service (List.filter (fun p -> total p >= slow) warm.answered));
    metric r "daemon.cold_service_pct" (share service cold.answered);
    metric r "serve.tail_to_median" (slow /. Sample.median warm.lat);
    metric r "serve.slo_ratio" (float_of_int warm.within /. float_of_int warm.n);
    metric r "daemon.hit_ratio" (stat "hits" /. stat "served");
    metric r "daemon.compiles" (stat "compiles"));
  r
