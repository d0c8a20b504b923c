(** Content-keyed memo tables for deterministic computations (see the
    interface for the model and the key discipline). *)

type ('a, 'b) t = {
  memo_name : string;
  lock : Mutex.t;
  tbl : ('a, 'b) Hashtbl.t;
}

(* Every table registers its clear function so benchmarks can restore a
   true cold state ({!clear_all}) without knowing which modules memoize. *)
let registry : (unit -> unit) list ref = ref []
let registry_lock = Mutex.create ()

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let create name =
  let t = { memo_name = name; lock = Mutex.create (); tbl = Hashtbl.create 64 } in
  locked registry_lock (fun () ->
      registry := (fun () -> locked t.lock (fun () -> Hashtbl.reset t.tbl)) :: !registry);
  t

let name t = t.memo_name
let size t = locked t.lock (fun () -> Hashtbl.length t.tbl)
let clear t = locked t.lock (fun () -> Hashtbl.reset t.tbl)
let clear_all () = List.iter (fun f -> f ()) (locked registry_lock (fun () -> !registry))

let find_or_add t key f =
  (* [memo-lookup] fault: pretend the entry is absent (a lost/evicted
     memo) and recompute.  Values are deterministic in their keys, so a
     forced miss may only cost time, never change a result — which is
     exactly what the chaos suite asserts. *)
  let forced_miss = Fault.active () && Fault.hit "memo-lookup" in
  if forced_miss then Trace.count "memo-faults" 1;
  match
    if forced_miss then None else locked t.lock (fun () -> Hashtbl.find_opt t.tbl key)
  with
  | Some v ->
    Trace.count "memo-hits" 1;
    v
  | None ->
    (* Computed outside the lock: a racing domain may duplicate the work,
       but the value is deterministic in the key, so whichever insert wins
       stores the same answer — and costing runs are far too long to
       serialize behind one global mutex.  The stored value is returned,
       not this domain's copy, so equal keys always share one physical
       value: [Marshal], which keeps sharing, then writes the same bytes
       whichever domain won. *)
    let v = f () in
    let stored =
      locked t.lock (fun () ->
          match Hashtbl.find_opt t.tbl key with
          | Some w -> w
          | None ->
            Hashtbl.add t.tbl key v;
            v)
    in
    Trace.count "memo-misses" 1;
    stored
