(** Wall-clock span tracing (see the interface for the model). *)

module Counters = Stats.Counters

(* CLOCK_MONOTONIC in nanoseconds: it never steps, and every caller takes
   differences or deadlines relative to now, so its epoch does not
   matter. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type sink =
  | Silent
  | Text of Format.formatter
  | Jsonl of Format.formatter

type span = {
  span_name : string;
  mutable seconds : float;
  mutable calls : int;
  counters : Counters.t;
  mutable children : span list;
}

type t = {
  root_span : span;
  mutable stack : span list;  (** open spans, innermost first; root at the bottom *)
  sink : sink;
}

let make_span name =
  { span_name = name; seconds = 0.0; calls = 0; counters = Counters.create []; children = [] }

let create ?(sink = Silent) name =
  let root_span = make_span name in
  { root_span; stack = [ root_span ]; sink }

let root t = t.root_span

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let child_span parent name =
  match List.find_opt (fun s -> s.span_name = name) parent.children with
  | Some s -> s
  | None ->
    let s = make_span name in
    parent.children <- parent.children @ [ s ];
    s

let path t =
  String.concat "/" (List.rev_map (fun s -> s.span_name) t.stack)

let emit t span dt =
  match t.sink with
  | Silent -> ()
  | Text ppf ->
    Format.fprintf ppf "[trace] %s %.6fs" (path t) dt;
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (Counters.to_list span.counters);
    Format.fprintf ppf "@."
  | Jsonl ppf ->
    Format.fprintf ppf {|{"span":"%s","path":"%s","seconds":%.6f,"calls":%d|}
      span.span_name (path t) dt span.calls;
    let counters = Counters.to_list span.counters in
    if counters <> [] then begin
      Format.fprintf ppf {|,"counters":{|};
      List.iteri
        (fun i (k, v) -> Format.fprintf ppf {|%s"%s":%d|} (if i > 0 then "," else "") k v)
        counters;
      Format.fprintf ppf "}"
    end;
    Format.fprintf ppf "}@."

let time_into t span f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = now () -. t0 in
      span.seconds <- span.seconds +. dt;
      span.calls <- span.calls + 1;
      emit t span dt;
      t.stack <- List.tl t.stack)
    f

let with_span t name f =
  let parent = match t.stack with s :: _ -> s | [] -> t.root_span in
  let span = child_span parent name in
  t.stack <- span :: t.stack;
  time_into t span f

let run_root t f =
  t.stack <- [ t.root_span ];
  time_into t t.root_span f

let add t key n =
  let span = match t.stack with s :: _ -> s | [] -> t.root_span in
  Counters.add span.counters key n

(* ------------------------------------------------------------------ *)
(* Ambient instrumentation                                             *)

(* Domain-local, not a global ref: traces are single-domain structures
   (mutable spans, no locks), so each worker domain of a parallel phase
   must record into its own trace.  A freshly spawned domain starts with
   no ambient trace; {!Pool} installs a per-worker one and the parent
   absorbs the worker span trees after the join. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_ambient () = Domain.DLS.get ambient

let with_ambient t f =
  let saved = get_ambient () in
  Domain.DLS.set ambient (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f

let enabled () = get_ambient () <> None

let count key n = match get_ambient () with Some t -> add t key n | None -> ()

let in_span name f =
  match get_ambient () with Some t -> with_span t name f | None -> f ()

(* ------------------------------------------------------------------ *)
(* Merging (parallel phases)                                           *)

let rec merge_span dst src =
  dst.seconds <- dst.seconds +. src.seconds;
  dst.calls <- dst.calls + src.calls;
  Counters.merge_into ~into:dst.counters src.counters;
  List.iter (fun c -> merge_span (child_span dst c.span_name) c) src.children

(** Merge the counters and children of [src] (a worker trace's root
    span) into the innermost open span of the ambient trace. *)
let absorb src =
  match get_ambient () with
  | None -> ()
  | Some t ->
    let dst = match t.stack with s :: _ -> s | [] -> t.root_span in
    Counters.merge_into ~into:dst.counters src.counters;
    List.iter (fun c -> merge_span (child_span dst c.span_name) c) src.children

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let find t name =
  let rec go s =
    if s.span_name = name then Some s
    else
      List.fold_left (fun acc c -> match acc with Some _ -> acc | None -> go c) None s.children
  in
  go t.root_span

let span_seconds t name = match find t name with Some s -> s.seconds | None -> 0.0

let ambient_span_seconds name =
  match get_ambient () with Some t -> span_seconds t name | None -> 0.0

let fold t ~init ~f =
  let rec go acc s = List.fold_left go (f acc s) s.children in
  go init t.root_span

let counter t key = fold t ~init:0 ~f:(fun acc s -> acc + Counters.get s.counters key)

let counter_names t =
  let all = Counters.create [] in
  fold t ~init:() ~f:(fun () s -> Counters.merge_into ~into:all s.counters);
  List.map fst (Counters.to_list all)

let top_spans t = List.map (fun s -> (s.span_name, s.seconds)) t.root_span.children

let total_seconds t = t.root_span.seconds

let pp ppf t =
  let rec go indent s =
    Format.fprintf ppf "%s%-*s %10.4f s" indent
      (max 1 (34 - String.length indent))
      s.span_name s.seconds;
    if s.calls > 1 then Format.fprintf ppf "  (%d calls)" s.calls;
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%d" k v) (Counters.to_list s.counters);
    Format.fprintf ppf "@\n";
    List.iter (go (indent ^ "  ")) s.children
  in
  go "" t.root_span
