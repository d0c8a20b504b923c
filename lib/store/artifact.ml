(** Versioned, checksummed binary serialization of compile artifacts.

    An artifact is everything the compiler produces for one request: the
    optimized graph, the enumerated plan tables, the globally selected
    assignment with its objective value, the latency report, and the
    packed VLIW program of every node the plan runs on the SIMD unit
    (each distinct kernel stored once).
    Loading an artifact and handing it back to {!Gcd2.Compiler} must be
    indistinguishable from recompiling — the cost tables are rebuilt from
    the stored plans, so no closure ever crosses the serialization
    boundary.

    On-disk layout (all integers big-endian):

    {v
      offset  size  field
      0       8     magic   "GCD2ART\n"
      8       4     version word (format version mixed with the digest
                    of the payload [layout] description)
      12      32    request digest, lowercase hex (Fingerprint.request)
      44      16    raw MD5 of the payload
      60      8     payload length in bytes
      68      n     payload: Marshal of the artifact record
    v}

    Readers reject (and the cache treats as a miss) anything whose magic,
    version word, digest, length or checksum does not match — a truncated
    or bit-flipped file can never surface as a wrong answer, only as a
    recompile. *)

module Graph = Gcd2_graph.Graph
module Plan = Gcd2_cost.Plan
module Graphcost = Gcd2_cost.Graphcost
module Opcost = Gcd2_cost.Opcost
module Matmul = Gcd2_codegen.Matmul
module Program = Gcd2_isa.Program

type t = {
  digest : string;  (** content-address of the request (hex) *)
  graph : Graph.t;  (** graph after the optimization passes *)
  plans : Plan.t array array;  (** enumerated execution plans per node *)
  assignment : int array;  (** chosen plan index per node *)
  objective : float;  (** solver objective of the assignment *)
  report : Graphcost.report;
  programs : Program.t option array;
      (** packed VLIW program of each node's chosen plan, for the nodes
          lowered to the SIMD unit *)
  selection_seconds : float;  (** wall time the original global selection took *)
}

let version = 2
let magic = "GCD2ART\n"

(* The payload is decoded with [Marshal.from_bytes], which is not
   type-safe: an entry whose marshaled type layout changed since it was
   written would pass every structural check and decode into garbage (or
   segfault).  [layout] names every type the payload transitively
   marshals; each of those definitions carries a comment pointing back
   here, and ANY change to one of them must be accompanied by an edit to
   this string (or a [version] bump).  The 4-byte version word written to
   disk is derived from the digest of both, so stale-layout entries are
   rejected as a version mismatch instead of being decoded. *)
let layout =
  "graph=Gcd2_graph.Graph.t(Op.t,Tensor.t,Quant.t);\
   plans=Gcd2_cost.Plan.t(Layout.t,Simd.t,Unroll.t{un,ug,abuf,wbuf}) array array;\
   assignment=int array;objective=float;\
   report=Gcd2_cost.Graphcost.report;\
   programs=Gcd2_isa.Program.t(Packet.t,Instr.t) option array;\
   selection_seconds=float"

let version_word =
  Bytes.get_int32_be
    (Bytes.unsafe_of_string (Stdlib.Digest.string (Printf.sprintf "%d:%s" version layout)))
    0
let digest_hex_len = 32
let header_len = 8 + 4 + digest_hex_len + 16 + 8

(** Packed programs of the chosen assignment: the generated kernel of
    each node whose selected plan runs on the SIMD unit.  Nodes with
    equal specs share one physical program, which [Marshal] (it keeps
    sharing) stores once.  The table is the artifact's own, not just
    {!Matmul.generate}'s memo, so the sharing and hence the encoded bytes
    never depend on the memo's state. *)
let programs_of ~options (g : Graph.t) plans assignment =
  let kernels = Hashtbl.create 16 in
  Array.init (Graph.size g) (fun v ->
      let node = Graph.node g v in
      Opcost.plan_spec options g node plans.(v).(assignment.(v))
      |> Option.map (fun spec ->
             match Hashtbl.find_opt kernels spec with
             | Some prog -> prog
             | None ->
               let prog = Matmul.generate spec { Matmul.a_base = 0; w_base = 0; c_base = 0 } in
               Hashtbl.add kernels spec prog;
               prog))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let to_bytes t =
  let payload =
    Marshal.to_bytes
      ( t.graph,
        t.plans,
        t.assignment,
        t.objective,
        t.report,
        t.programs,
        t.selection_seconds )
      []
  in
  if String.length t.digest <> digest_hex_len then
    invalid_arg "Artifact.to_bytes: digest must be 32 hex chars";
  let b = Bytes.create (header_len + Bytes.length payload) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_be b 8 version_word;
  Bytes.blit_string t.digest 0 b 12 digest_hex_len;
  Bytes.blit_string (Stdlib.Digest.bytes payload) 0 b 44 16;
  Bytes.set_int64_be b 60 (Int64.of_int (Bytes.length payload));
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  b

(* ------------------------------------------------------------------ *)
(* Decoding — every failure is an [Error reason], never an exception.   *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check cond reason = if cond then Ok () else Error reason

let of_bytes ?expect_digest b =
  let* () = check (Bytes.length b >= header_len) "too short for header" in
  let* () = check (Bytes.sub_string b 0 8 = magic) "bad magic" in
  let* () = check (Bytes.get_int32_be b 8 = version_word) "format version mismatch" in
  let digest = Bytes.sub_string b 12 digest_hex_len in
  let* () =
    match expect_digest with
    | Some d -> check (d = digest) "request digest mismatch"
    | None -> Ok ()
  in
  let len = Int64.to_int (Bytes.get_int64_be b 60) in
  let* () = check (len >= 0 && Bytes.length b = header_len + len) "length mismatch" in
  let payload = Bytes.sub b header_len len in
  let* () =
    check (Stdlib.Digest.bytes payload = Bytes.sub_string b 44 16) "payload checksum mismatch"
  in
  match Marshal.from_bytes payload 0 with
  | graph, plans, assignment, objective, report, programs, selection_seconds ->
    let t =
      { digest; graph; plans; assignment; objective; report; programs; selection_seconds }
    in
    let* () =
      check
        (Graph.size graph = Array.length plans
        && Graph.size graph = Array.length assignment
        && Graph.size graph = Array.length programs)
        "inconsistent artifact shape"
    in
    Ok t
  | exception _ -> Error "undecodable payload"

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

(** Write atomically (temp file + rename) so that a concurrent reader
    never observes a torn entry.  Returns the bytes written.  On any
    failure — including an injected [cache-write] fault between the
    write and the rename — the temp file is removed before the
    exception propagates, so a failing store never litters the cache
    directory with [.tmp] debris. *)
let save ~path t =
  let b = to_bytes t in
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) "gcd2art" ".tmp" in
  match
    let oc = Out_channel.open_bin tmp in
    Fun.protect
      ~finally:(fun () -> Out_channel.close oc)
      (fun () -> Out_channel.output_bytes oc b);
    Gcd2_util.Fault.fire "cache-write";
    Sys.rename tmp path
  with
  | () -> Bytes.length b
  | exception exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

(** Read and verify an artifact file.  [Ok (artifact, bytes_read)] on
    success; {e any} failure to open, read or decode — the path is a
    directory, the device errors mid-read, the payload is damaged — is
    an [Error], never an exception, so {!Cache.lookup} can keep its
    "every problem is a miss" contract. *)
let load ?expect_digest ~path () =
  match
    let ic = In_channel.open_bin path in
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () -> In_channel.input_all ic)
  with
  | exception Sys_error e -> Error e
  | exception exn -> Error (Printexc.to_string exn)
  | b ->
    (* [artifact-decode] fault: one flipped bit in the bytes just read,
       as silent media corruption would leave them.  The structural
       checks of [of_bytes] must turn it into an [Error] — never a
       wrong artifact — and the cache then quarantines the entry. *)
    let bytes = Gcd2_util.Fault.corrupt "artifact-decode" (Bytes.unsafe_of_string b) in
    let* t = of_bytes ?expect_digest bytes in
    Ok (t, String.length b)
