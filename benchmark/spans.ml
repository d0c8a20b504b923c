(* Spans the benchmark records around its own calls into each layer.

   A span has a name [layer.what], a start and an end on the wall clock,
   the span that was open when it started (its parent) and a tag naming
   the request or graph node it served.  Spans stay in memory and are
   written out as JSON lines when the run ends, followed by one line per
   layer with that layer's self time: a span's duration minus the part
   of it its child spans cover. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  tag : string;
}

type t = {
  mutable spans : span list;  (** closed spans, newest first *)
  mutable open_ : int list;  (** ids of open spans, innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let parent_of t = match t.open_ with p :: _ -> Some p | [] -> None

(* [with_span t ~tag name f] times [f] as a child of the innermost open
   span.  Without a recorder ([None]) it just runs [f]. *)
let with_span ?(tag = "") t name f =
  match t with
  | None -> f ()
  | Some t ->
    let id = fresh t in
    let parent = parent_of t in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        t.open_ <- List.tl t.open_;
        t.spans <- { id; name; start; stop; parent; tag } :: t.spans)
      f

(* A span measured elsewhere, such as a request whose start and end the
   load generator observed; returns its id so children can refer to it. *)
let add t ?parent ?(tag = "") name ~start ~stop =
  let id = fresh t in
  t.spans <- { id; name; start; stop; parent; tag } :: t.spans;
  id

let spans t = List.rev t.spans

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: [(span, seconds)]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let siblings = Option.value ~default:[] (Hashtbl.find_opt children p) in
        Hashtbl.replace children p ((s.start, s.stop) :: siblings)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Self time summed per layer, in first-seen order. *)
let layer_self spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      match Hashtbl.find_opt tbl l with
      | Some v -> Hashtbl.replace tbl l (v +. self)
      | None ->
        order := l :: !order;
        Hashtbl.replace tbl l self)
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Total duration of the spans named [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 t.spans

let number i = Json.Num (float_of_int i)

let write_jsonl path t =
  let all = spans t in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", number s.id);
                    ("name", Json.Str s.name);
                    ("start", Json.Num s.start);
                    ("end", Json.Num s.stop);
                    ("parent", Option.fold ~none:Json.Null ~some:number s.parent);
                    ("tag", Json.Str s.tag);
                  ]));
          Out_channel.output_char oc '\n')
        all;
      List.iter
        (fun (l, self) ->
          Out_channel.output_string oc
            (Json.to_string (Json.Obj [ ("layer", Json.Str l); ("self_s", Json.Num self) ]));
          Out_channel.output_char oc '\n')
        (layer_self all))
