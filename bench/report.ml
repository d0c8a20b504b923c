(* Shared by all experiments: a small fixed-width table printer, the one
   wall-clock sampler, input helpers, and the one writer of the
   BENCH_*.json records. *)

let line width = print_endline (String.make width '-')

let header title =
  print_newline ();
  line 78;
  Printf.printf "%s\n" title;
  line 78

let row fmt = Printf.printf fmt

let section s = Printf.printf "\n-- %s --\n" s

let note fmt = Printf.ksprintf (fun s -> Printf.printf "   note: %s\n" s) fmt

let ratio a b = if b = 0.0 then 0.0 else a /. b

let pp_opt_ms = function Some v -> Printf.sprintf "%8.1f" v | None -> "       -"

(* ---------------- wall-time samples ---------------- *)

module Trace = Gcd2_util.Trace

(* How many samples a recorded wall time holds.  The smoke passes 2, so
   CI runs the same code on fewer repetitions. *)
let record_n = 5

type spread = { median : float; q1 : float; q3 : float; n : int }

(* Median and quartiles (nearest rank) of a sample. *)
let spread xs =
  let p q = Gcd2_util.Stats.percentile q xs in
  { median = p 50.0; q1 = p 25.0; q3 = p 75.0; n = List.length xs }

(* The one wall-clock sampler: [n] times, run [before] untimed, then
   [f] under the clock.  [before] recreates the state the first run
   starts from, such as cleared memo tables for a cold measurement.
   Returns [f]'s results in run order and the spread of its wall times
   in seconds. *)
let sample ~n ?(before = ignore) f =
  let runs =
    List.init n (fun _ ->
        before ();
        let t0 = Trace.now () in
        let v = f () in
        (v, Trace.now () -. t0))
  in
  (List.map fst runs, spread (List.map snd runs))

(* A spread in other units: nearest-rank quartiles commute with a
   positive factor. *)
let scale k s = { s with median = k *. s.median; q1 = k *. s.q1; q3 = k *. s.q3 }

(* median [q1, q3] *)
let show digits s = Printf.sprintf "%.*f [%.*f, %.*f]" digits s.median digits s.q1 digits s.q3

(* ---------------- inputs and scratch files ---------------- *)

(* Fixed-seed random tensors for every Input node of [g]. *)
let inputs_of g =
  let module Graph = Gcd2_graph.Graph in
  let rng = Gcd2_util.Rng.create 42 in
  let acc = ref [] in
  Graph.iter
    (fun node ->
      match node.Graph.op with
      | Gcd2_graph.Op.Input { shape } ->
        acc := (node.Graph.id, Gcd2_tensor.Tensor.random rng shape) :: !acc
      | _ -> ())
    g;
  List.rev !acc

(* One flat directory of scratch files, removed best-effort. *)
let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* ---------------- BENCH records ---------------- *)

(* Every BENCH_*.json goes through [write]: the experiment's name, the
   provenance of the run, then its sections.  A section holding a list
   of rows prints one row object per line. *)
type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

(* The shortest of %.15g, %.16g and %.17g that reads back as the same
   float (%.15g keeps 20 from printing as 2e+01); JSON has no
   non-finite numbers. *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

(* OCaml's %S escaping is JSON's for the printable-ASCII names written
   here. *)
let str_repr = Printf.sprintf "%S"

let rec inline = function
  | Int n -> string_of_int n
  | Float x -> float_repr x
  | Str s -> str_repr s
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map inline l) ^ "]"
  | Obj kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> str_repr k ^ ": " ^ inline v) kvs) ^ "}"

let member (k, v) =
  Printf.sprintf "  %s: %s" (str_repr k)
    (match v with
    | List (Obj _ :: _ as rows) ->
      "[\n    " ^ String.concat ",\n    " (List.map inline rows) ^ "\n  ]"
    | v -> inline v)

(* The trimmed stdout of a shell command that exits 0. *)
let command_output cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None)

(* The BENCH files are outputs, not sources: rewriting one does not make
   the next experiment's tree dirty. *)
let provenance () =
  let t = Unix.gmtime (Unix.time ()) in
  Obj
    [
      ( "git_rev",
        Str (Option.value (command_output "git rev-parse HEAD 2>/dev/null") ~default:"unknown")
      );
      ( "git_dirty",
        Bool
          (command_output
             "git status --porcelain --untracked-files=no -- . ':!BENCH_*.json' 2>/dev/null"
          <> Some "") );
      ("ocaml", Str Sys.ocaml_version);
      ("domains", Int (Domain.recommended_domain_count ()));
      ("lanes_clone", Str (Gcd2_vm.Machine.lanes_clone ()));
      ( "utc",
        Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
             (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec) );
    ]

(* A section of rows: one object of [fields r] per element [r]. *)
let rows fields l = List (List.map (fun r -> Obj (fields r)) l)

(* The one JSON form of a wall time. *)
let spread_json s =
  Obj [ ("median", Float s.median); ("q1", Float s.q1); ("q3", Float s.q3); ("n", Int s.n) ]

let write ~experiment path sections =
  let doc = ("experiment", Str experiment) :: ("provenance", provenance ()) :: sections in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        ("{\n" ^ String.concat ",\n" (List.map member doc) ^ "\n}\n"));
  Printf.printf "   wrote %s\n" path

(* Per-op-kind host-vs-VM split of one inference, sorted by kind. *)
let kinds (s : Gcd2.Runtime.stats) =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Gcd2.Runtime.kinds [])

let kinds_json kinds =
  Obj
    (List.map
       (fun (k, (ks : Gcd2.Runtime.kind_stat)) ->
         ( k,
           Obj
             [
               ("vm", Int ks.Gcd2.Runtime.k_vm);
               ("host", Int ks.Gcd2.Runtime.k_host);
               ("vm_cycles", Int ks.Gcd2.Runtime.k_cycles);
             ] ))
       kinds)
