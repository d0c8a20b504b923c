(** Instruction Dependency Graph (the paper's IDG, Figure 5).

    Vertices are instructions of one basic block, edges are the hard/soft
    dependencies of {!Gcd2_isa.Dep}.  Instructions only depend on earlier
    instructions, so program order is already a topological order.

    Besides the adjacency lists the build precomputes what the packer's
    inner loop would otherwise rederive per candidate: a dense n×n
    dependence-kind matrix (O(1) pair queries), and per-instruction
    latency and slot-mask arrays. *)

open Gcd2_isa

type t = {
  instrs : Instr.t array;
  succ : (int * Dep.kind) list array;  (** outgoing edges, by instruction index *)
  pred : (int * Dep.kind) list array;  (** incoming edges *)
  order : int array;  (** longest hop-distance from an entry (paper's [i.order]) *)
  ancestors : int array;  (** number of transitive predecessors (paper's [i.pred]) *)
  lat : int array;  (** [Instr.latency_on], by instruction index *)
  slot_mask : int array;  (** [Iclass.slot_mask_on] of the class, by index *)
  kinds : Bytes.t;  (** n×n dependence-kind matrix; query via {!edge} *)
}

(* Kind encoding in the matrix: 0 = no edge, 1 = hard, [2 + p] = soft with
   penalty [p].  Soft penalties are tiny (0..2 cycles today), so a byte is
   roomy; [encode] is total anyway. *)
let encode = function
  | None -> 0
  | Some Dep.Hard -> 1
  | Some (Dep.Soft p) -> 2 + p

let decode = function
  | 0 -> None
  | 1 -> Some Dep.Hard
  | c -> Some (Dep.Soft (c - 2))

(* The storage units a register operand names: [R k] is one unit, [V k]
   another, and [P k] the two units of [V 2k] and [V 2k+1], so two operands
   overlap ({!Reg.overlap}) iff their unit lists intersect. *)
let units = function
  | Reg.R k -> [ 2 * k ]
  | r -> List.map (fun v -> (2 * v) + 1) (Reg.vector_parts r)

let units_of regs = List.sort_uniq Int.compare (List.concat_map units regs)

(* Def-use construction.  {!Dep.classify_info} is [None] unless the pair
   shares a register unit that one of them defines, or accesses memory
   through one base register with a store among the two.  So instruction
   [j] is classified only against those candidates: the earlier definers
   of every unit it reads, the earlier definers and readers of every unit
   it writes, and the earlier same-base stores (or, for a store, every
   earlier same-base access).  Every other pair would classify to [None],
   so the edges are exactly the all-pairs ones.  [pred] and [succ] list
   them latest first, as the all-pairs build did: {!critical_path} breaks
   ties in that order. *)
let build ~desc instrs =
  let n = Array.length instrs in
  let infos = Array.map Dep.info instrs in
  let pred = Array.make n [] in
  let kinds = Bytes.make (n * n) '\000' in
  (* earlier instructions, latest first, by register unit or memory base *)
  let definers = Hashtbl.create 64 and readers = Hashtbl.create 64 in
  let stores = Hashtbl.create 8 and accesses = Hashtbl.create 8 in
  let earlier tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let record tbl j k = Hashtbl.replace tbl k (j :: earlier tbl k) in
  let seen = Array.make n (-1) in
  for j = 0 to n - 1 do
    let defs = units_of (Instr.defs instrs.(j)) and uses = units_of (Instr.uses instrs.(j)) in
    let mem = Instr.mem_access instrs.(j) in
    let cands = ref [] in
    let add =
      List.iter (fun i ->
          if seen.(i) <> j then begin
            seen.(i) <- j;
            cands := i :: !cands
          end)
    in
    List.iter (fun u -> add (earlier definers u)) uses;
    List.iter (fun u -> add (earlier definers u); add (earlier readers u)) defs;
    (match mem with
    | Some (Instr.Mem_load (a, _)) -> add (earlier stores a.Instr.base)
    | Some (Instr.Mem_store (a, _)) -> add (earlier accesses a.Instr.base)
    | None -> ());
    List.iter
      (fun i ->
        match Dep.classify_info infos.(i) infos.(j) with
        | Some kind ->
          pred.(j) <- (i, kind) :: pred.(j);
          Bytes.unsafe_set kinds ((i * n) + j) (Char.chr (encode (Some kind)))
        | None -> ())
      (List.sort Int.compare !cands);
    List.iter (record definers j) defs;
    List.iter (record readers j) uses;
    match mem with
    | Some (Instr.Mem_load (a, _)) -> record accesses j a.Instr.base
    | Some (Instr.Mem_store (a, _)) ->
      record accesses j a.Instr.base;
      record stores j a.Instr.base
    | None -> ()
  done;
  (* [succ] from the matrix rows, one row at a time, so each list's cells
     sit together in memory: the packer walks [succ] every round, and
     lists grown across the whole build make it several times slower on
     large blocks. *)
  let succ = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match decode (Char.code (Bytes.unsafe_get kinds ((i * n) + j))) with
      | Some kind -> succ.(i) <- (j, kind) :: succ.(i)
      | None -> ()
    done
  done;
  let order = Array.make n 0 in
  for j = 0 to n - 1 do
    List.iter (fun (i, _) -> order.(j) <- max order.(j) (order.(i) + 1)) pred.(j)
  done;
  (* Ancestor sets as bitmasks over instruction indices; blocks are small
     (hundreds of instructions), so an int-array bitset is plenty. *)
  let words = (n + 62) / 63 in
  let anc = Array.make_matrix n words 0 in
  let ancestors = Array.make n 0 in
  for j = 0 to n - 1 do
    List.iter
      (fun (i, _) ->
        for w = 0 to words - 1 do
          anc.(j).(w) <- anc.(j).(w) lor anc.(i).(w)
        done;
        anc.(j).(i / 63) <- anc.(j).(i / 63) lor (1 lsl (i mod 63)))
      pred.(j);
    let count = ref 0 in
    for w = 0 to words - 1 do
      let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1) in
      count := !count + popcount anc.(j).(w) 0
    done;
    ancestors.(j) <- !count
  done;
  let lat = Array.map (Instr.latency_on desc) instrs in
  let slot_mask = Array.map (fun i -> Iclass.slot_mask_on desc (Instr.iclass i)) instrs in
  { instrs; succ; pred; order; ancestors; lat; slot_mask; kinds }

let size t = Array.length t.instrs

(** [edge t i j] — the dependency from [i] to [j] ([i < j] in program
    order), if any; O(1) via the kind matrix. *)
let edge t i j =
  decode (Char.code (Bytes.unsafe_get t.kinds ((i * Array.length t.instrs) + j)))

(** [hard t i j] / [soft t i j] — O(1) kind tests ([i < j]). *)
let hard t i j = Bytes.unsafe_get t.kinds ((i * Array.length t.instrs) + j) = '\001'

let soft t i j =
  Char.code (Bytes.unsafe_get t.kinds ((i * Array.length t.instrs) + j)) >= 2

(** [critical_path t alive] — the maximum-total-latency path through the
    vertices for which [alive] holds, as a list of indices from entry side
    to exit side.  Raises [Invalid_argument] if nothing is alive. *)
let critical_path t alive =
  let n = size t in
  (* down.(i) = latency of the heaviest alive path starting at i. *)
  let down = Array.make n 0 and next = Array.make n (-1) in
  for i = n - 1 downto 0 do
    if alive.(i) then begin
      down.(i) <- t.lat.(i);
      List.iter
        (fun (j, _) ->
          if alive.(j) && down.(i) < t.lat.(i) + down.(j) then begin
            down.(i) <- t.lat.(i) + down.(j);
            next.(i) <- j
          end)
        t.succ.(i)
    end
  done;
  let start = ref (-1) in
  for i = 0 to n - 1 do
    if alive.(i) && (!start = -1 || down.(i) > down.(!start)) then start := i
  done;
  if !start = -1 then invalid_arg "Idg.critical_path: empty graph";
  let rec walk i acc = if i = -1 then List.rev acc else walk next.(i) (i :: acc) in
  walk !start []
