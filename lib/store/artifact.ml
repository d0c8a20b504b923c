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
      68      n     payload: two Marshal sections back to back — the
                    artifact record without its programs, then the
                    programs array
    v}

    Readers reject (and the cache treats as a miss) anything whose magic,
    version word, digest, length or checksum does not match — a truncated
    or bit-flipped file can never surface as a wrong answer, only as a
    recompile.  The checksum covers both sections, but a reader decodes
    only the first: nothing on a cache hit reads the programs, so they
    stay a lazy value decoded the first time something forces it. *)

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
  programs : Program.t option array Lazy.t;
      (** packed VLIW program of each node's chosen plan, for the nodes
          lowered to the SIMD unit; a loaded artifact decodes its
          programs section only when this is forced *)
}

(* Version 4 stores no wall time, so two compiles of one request write
   the same bytes. *)
let version = 4
let magic = "GCD2ART\n"

(* The payload is decoded with [Marshal.from_string], which is not
   type-safe: an entry whose marshaled type layout changed since it was
   written would pass every structural check and decode into garbage (or
   segfault).  [layout] names every type the payload transitively
   marshals, section by section ([|] ends the first); each of those
   definitions carries a comment pointing back here, and ANY change to
   one of them must be accompanied by an edit to this string (or a
   [version] bump).  The 4-byte version word written to
   disk is derived from the digest of both, so stale-layout entries are
   rejected as a version mismatch instead of being decoded. *)
let layout =
  "graph=Gcd2_graph.Graph.t(Op.t,Tensor.t,Quant.t);\
   plans=Gcd2_cost.Plan.t(Layout.t,Simd.t,Unroll.t{un,ug,abuf,wbuf}) array array;\
   assignment=int array;objective=float;\
   report=Gcd2_cost.Graphcost.report|\
   programs=Gcd2_isa.Program.t(Packet.t,Instr.t) option array"

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
  if String.length t.digest <> digest_hex_len then
    invalid_arg "Artifact.to_bytes: digest must be 32 hex chars";
  let record =
    Marshal.to_string (t.graph, t.plans, t.assignment, t.objective, t.report) []
  in
  let programs = Marshal.to_string (Lazy.force t.programs) [] in
  let len = String.length record + String.length programs in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_be b 8 version_word;
  Bytes.blit_string t.digest 0 b 12 digest_hex_len;
  Bytes.set_int64_be b 60 (Int64.of_int len);
  Bytes.blit_string record 0 b header_len (String.length record);
  Bytes.blit_string programs 0 b (header_len + String.length record) (String.length programs);
  Bytes.blit_string (Stdlib.Digest.subbytes b header_len len) 0 b 44 16;
  b

(* ------------------------------------------------------------------ *)
(* Decoding — every failure is an [Error reason], never an exception.   *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check cond reason = if cond then Ok () else Error reason

(* Decode from an immutable string: the lazy programs section reads [s]
   long after the checks, so nothing may write to it in between. *)
let of_string ?expect_digest s =
  let* () = check (String.length s >= header_len) "too short for header" in
  let* () = check (String.sub s 0 8 = magic) "bad magic" in
  let* () = check (String.get_int32_be s 8 = version_word) "format version mismatch" in
  let digest = String.sub s 12 digest_hex_len in
  let* () =
    match expect_digest with
    | Some d -> check (d = digest) "request digest mismatch"
    | None -> Ok ()
  in
  let len = Int64.to_int (String.get_int64_be s 60) in
  let* () = check (len >= 0 && String.length s = header_len + len) "length mismatch" in
  let* () =
    check
      (Stdlib.Digest.substring s header_len len = String.sub s 44 16)
      "payload checksum mismatch"
  in
  let size at = Marshal.total_size (Bytes.unsafe_of_string s) at in
  match
    let record = Marshal.from_string s header_len in
    let programs_at = header_len + size header_len in
    (record, programs_at, programs_at + size programs_at)
  with
  | (graph, plans, assignment, objective, report), programs_at, stop ->
    let n = Graph.size graph in
    let* () =
      check
        (n = Array.length plans && n = Array.length assignment && stop = String.length s)
        "inconsistent artifact shape"
    in
    let programs =
      lazy
        (let programs : Program.t option array = Marshal.from_string s programs_at in
         if Array.length programs <> n then failwith "Artifact: programs do not match the graph";
         programs)
    in
    Ok { digest; graph; plans; assignment; objective; report; programs }
  | exception _ -> Error "undecodable payload"

let of_bytes ?expect_digest b = of_string ?expect_digest (Bytes.to_string b)

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
       checks of [of_string] must turn it into an [Error] — never a
       wrong artifact — and the cache then quarantines the entry. *)
    let read = Gcd2_util.Fault.corrupt "artifact-decode" (Bytes.unsafe_of_string b) in
    let* t = of_string ?expect_digest (Bytes.unsafe_to_string read) in
    Ok (t, String.length b)
