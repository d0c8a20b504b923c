(** Cache-directory janitor: sweep debris, age quarantine, bound size.

    The store's crash-safety story leaves three kinds of residue that
    nothing else reclaims: [.tmp] scratch files from writers killed
    between temp-write and rename, [.bad] quarantine files parked by
    {!Cache.lookup} for post-mortem, and [.lease] files from leaders
    that died without releasing (see {!Lease}).  Left alone the
    directory grows without bound; the janitor runs at daemon startup
    and periodically to converge it back to a clean, bounded state:

    - {b tmp debris} older than [tmp_max_age_s] is unlinked — the age
      gate means a live writer's in-flight temp file is never touched;
    - {b quarantine} files older than [bad_max_age_s] are unlinked —
      long enough for post-mortem, short enough that a corrupting
      workload cannot fill the disk;
    - {b stale leases} (dead pid or expired stamp) are broken via
      {!Lease.break}, so even an idle key (no follower polling it) is
      eventually freed;
    - {b entries} are LRU-evicted by mtime until total entry bytes fit
      [max_bytes], {e never} evicting a digest whose lease is live — a
      leader mid-publish (or a follower mid-adopt) must not have the
      artifact swept out from under it.

    Every action is a counter of the registry a sweep returns.  A sweep
    never raises: each unlink consults fault point [janitor-unlink] and
    any failure (injected or real, e.g. a concurrent sweep won the race)
    is counted in [errors] and skipped. *)

module Fault = Gcd2_util.Fault
module Counters = Gcd2_util.Stats.Counters

type config = {
  max_bytes : int option;  (** entry-bytes budget; [None] = unbounded *)
  tmp_max_age_s : float;
  bad_max_age_s : float;
  lease_ttl_s : float;
}

let default =
  {
    max_bytes = None;
    tmp_max_age_s = 600.0;
    bad_max_age_s = 86_400.0;
    lease_ttl_s = Lease.default_ttl_s;
  }

(* A sweep's counters, in report order.  [entries]/[bytes] are the
   surviving entries and their total size; [skipped_leased] counts
   eviction candidates protected by a live lease. *)
let report_keys =
  [ "entries"; "bytes"; "tmp_removed"; "bad_removed"; "leases_broken"; "evicted";
    "evicted_bytes"; "skipped_leased"; "errors" ]

let report_line r = "janitor: " ^ Counters.render r

(* ------------------------------------------------------------------ *)

type kind = Entry | Tmp | Bad | Lease_file | Other

let classify name =
  if Filename.check_suffix name ".gcd2art" then Entry
  else if Filename.check_suffix name ".bad" then Bad
  else if Filename.check_suffix name ".lease" then Lease_file
  else if
    Filename.check_suffix name ".tmp"
    || Filename.check_suffix name ".lease-tmp"
    || Filename.check_suffix name ".lease-hb"
    || Filename.check_suffix name ".lease-broken"
  then Tmp
  else Other

let digest_of_entry name = Filename.chop_suffix name ".gcd2art"
let digest_of_lease name = Filename.chop_suffix name ".lease"

(* One unlink, one [janitor-unlink] consult; false (and no raise) on
   any failure, injected or real. *)
let unlink path =
  match
    Fault.fire "janitor-unlink";
    Sys.remove path
  with
  | () -> true
  | exception _ -> false

let sweep ~dir config =
  let now = Unix.gettimeofday () in
  let r = Counters.create report_keys in
  let bump key = Counters.add r key 1 in
  let names = match Sys.readdir dir with x -> x | exception Sys_error _ -> [||] in
  let age st = now -. st.Unix.st_mtime in
  let stat path = match Unix.stat path with st -> Some st | exception Unix.Unix_error _ -> None in
  let remove key path = bump (if unlink path then key else "errors") in
  (* Pass 1: debris, quarantine age-out, stale-lease breaking; collect
     surviving entries and live-leased digests along the way. *)
  let entries = ref [] in
  let leased = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      match classify name with
      | Other -> ()
      | Tmp -> (
        match stat path with
        | Some st when age st > config.tmp_max_age_s -> remove "tmp_removed" path
        | _ -> ())
      | Bad -> (
        match stat path with
        | Some st when age st > config.bad_max_age_s -> remove "bad_removed" path
        | _ -> ())
      | Lease_file -> (
        let digest = digest_of_lease name in
        match Lease.state ~ttl_s:config.lease_ttl_s ~dir digest with
        | Lease.Stale _ -> (
          match Lease.break ~dir digest with
          | true -> bump "leases_broken"
          | false -> ()
          | exception _ -> bump "errors")
        | Lease.Held _ -> Hashtbl.replace leased digest ()
        | Lease.Free -> ())
      | Entry -> (
        match stat path with
        | Some st -> entries := (path, digest_of_entry name, st) :: !entries
        | None -> ()))
    names;
  (* Pass 2: LRU eviction down to the byte budget, oldest mtime first,
     live-leased digests immune. *)
  let total = List.fold_left (fun acc (_, _, st) -> acc + st.Unix.st_size) 0 !entries in
  let entries = ref !entries and bytes = ref total in
  (match config.max_bytes with
  | None -> ()
  | Some budget ->
    let by_age =
      List.sort (fun (_, _, a) (_, _, b) -> Float.compare a.Unix.st_mtime b.Unix.st_mtime) !entries
    in
    let keep = ref [] in
    List.iter
      (fun ((path, digest, st) as e) ->
        if !bytes > budget then
          if Hashtbl.mem leased digest then begin
            bump "skipped_leased";
            keep := e :: !keep
          end
          else if unlink path then begin
            bump "evicted";
            Counters.add r "evicted_bytes" st.Unix.st_size;
            bytes := !bytes - st.Unix.st_size
          end
          else begin
            bump "errors";
            keep := e :: !keep
          end
        else keep := e :: !keep)
      by_age;
    entries := !keep);
  Counters.add r "entries" (List.length !entries);
  Counters.add r "bytes" !bytes;
  r
