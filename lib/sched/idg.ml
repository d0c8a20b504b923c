(** Instruction Dependency Graph (the paper's IDG, Figure 5).

    Vertices are instructions of one basic block, edges are the hard/soft
    dependencies of {!Gcd2_isa.Dep}.  Instructions only depend on earlier
    instructions, so program order is already a topological order.  The
    graph is built from each instruction's {!Gcd2_isa.Dep.info} alone, so
    two blocks with the same projection have the same IDG.

    Besides the adjacency arrays the build precomputes what the packer's
    inner loop would otherwise rederive per candidate: a dense n×n
    dependence-kind matrix (O(1) pair queries), and per-instruction
    latency and slot-mask arrays. *)

open Gcd2_isa

type t = {
  succ : int array array;  (** successors by instruction index, latest first *)
  pred : int array array;  (** predecessors, latest first *)
  cover : int array array;
      (** [succ] without the edges a longer path implies, latest first *)
  order : int array;  (** longest hop-distance from an entry (paper's [i.order]) *)
  ancestors : int array;  (** number of transitive predecessors (paper's [i.pred]) *)
  lat : int array;  (** [Iclass.latency_on] of the class, by instruction index *)
  slot_mask : int array;  (** [Iclass.slot_mask_on] of the class, by index *)
  kinds : Bytes.t;  (** n×n dependence-kind matrix; query via {!edge} *)
}

(* Kind encoding in the matrix: 0 = no edge, 1 = hard, [2 + p] = soft with
   penalty [p].  Soft penalties are tiny (0..2 cycles today), so a byte is
   roomy. *)
let encode = function Dep.Hard -> 1 | Dep.Soft p -> 2 + p

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
   of every unit it reads (RAW), the earlier definers (WAW) and readers
   (WAR) of every unit it writes, and the earlier same-base stores (or,
   for a store, every earlier same-base access).  A candidate's register
   relations are exactly the lists that found it, so {!Dep.of_relations}
   classifies it without rescanning register lists; only memory still
   checks the byte ranges.  Every other pair would classify to [None], so
   the edges are exactly the all-pairs ones.  [pred] and [succ] list them
   latest first, as the all-pairs build did: {!critical_path} breaks ties
   in that order.  Adjacency is index arrays, kinds live in the matrix
   alone: a kernel block has edges in the thousands, and per-edge list
   cells and pairs were most of what a build allocated. *)
let raw_bit = 1
let war_bit = 2
let waw_bit = 4
let mem_bit = 8

let build ~desc (infos : Dep.info array) =
  let n = Array.length infos in
  let kinds = Bytes.make (n * n) '\000' in
  let defs = Array.map (fun info -> units_of info.Dep.defs) infos in
  let uses = Array.map (fun info -> units_of info.Dep.uses) infos in
  (* earlier instructions, latest first, by register unit or memory base *)
  let nunits = 1 + Array.fold_left (List.fold_left max) 0 defs in
  let nunits = max nunits (1 + Array.fold_left (List.fold_left max) 0 uses) in
  let definers = Array.make nunits [] and readers = Array.make nunits [] in
  let stores = Hashtbl.create 8 and accesses = Hashtbl.create 8 in
  let earlier tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let record tbl j k = Hashtbl.replace tbl k (j :: earlier tbl k) in
  (* the candidates of [j]: [stamp.(i) = j], relations in [rel.(i)] *)
  let stamp = Array.make n (-1) and rel = Array.make n 0 in
  let pred = Array.make n [||] and outdeg = Array.make n 0 and found = Array.make n 0 in
  for j = 0 to n - 1 do
    let info = infos.(j) in
    let lo = ref j in
    let rec mark bit = function
      | [] -> ()
      | i :: rest ->
        if stamp.(i) <> j then begin
          stamp.(i) <- j;
          rel.(i) <- bit;
          if i < !lo then lo := i
        end
        else rel.(i) <- rel.(i) lor bit;
        mark bit rest
    in
    List.iter (fun u -> mark raw_bit definers.(u)) uses.(j);
    List.iter (fun u -> mark waw_bit definers.(u); mark war_bit readers.(u)) defs.(j);
    (match info.Dep.mem with
    | Some (Instr.Mem_load (a, _)) -> mark mem_bit (earlier stores a.Instr.base)
    | Some (Instr.Mem_store (a, _)) -> mark mem_bit (earlier accesses a.Instr.base)
    | None -> ());
    let np = ref 0 in
    for i = j - 1 downto !lo do
      if stamp.(i) = j then begin
        let r = rel.(i) in
        match
          Dep.of_relations infos.(i) info ~raw:(r land raw_bit <> 0) ~war:(r land war_bit <> 0)
            ~waw:(r land waw_bit <> 0)
            ~mem:(r land mem_bit <> 0 && Dep.mem_conflict infos.(i) info)
        with
        | Some kind ->
          found.(!np) <- i;
          incr np;
          outdeg.(i) <- outdeg.(i) + 1;
          Bytes.unsafe_set kinds ((i * n) + j) (Char.unsafe_chr (encode kind))
        | None -> ()
      end
    done;
    pred.(j) <- Array.sub found 0 !np;
    List.iter (fun u -> definers.(u) <- j :: definers.(u)) defs.(j);
    List.iter (fun u -> readers.(u) <- j :: readers.(u)) uses.(j);
    match info.Dep.mem with
    | Some (Instr.Mem_load (a, _)) -> record accesses j a.Instr.base
    | Some (Instr.Mem_store (a, _)) ->
      record accesses j a.Instr.base;
      record stores j a.Instr.base
    | None -> ()
  done;
  (* [succ] from [pred] in O(E), latest first: walking [j] ascending fills
     each row from its end. *)
  let succ = Array.map (fun d -> Array.make d 0) outdeg in
  for j = 0 to n - 1 do
    Array.iter
      (fun i ->
        outdeg.(i) <- outdeg.(i) - 1;
        succ.(i).(outdeg.(i)) <- j)
      pred.(j)
  done;
  (* Ancestor sets as bitmasks over instruction indices; blocks are small
     (hundreds of instructions), so an int-array bitset is plenty.  [pred]
     is latest first, so an edge [i -> j] whose [i] is already an ancestor
     of a later predecessor of [j] is implied by a longer path: it adds no
     ancestor, and it stays out of [cover]. *)
  let words = (n + 62) / 63 in
  let anc = Array.make_matrix n words 0 in
  let order = Array.make n 0 and ancestors = Array.make n 0 in
  let cover = Array.make n [] in
  for j = 0 to n - 1 do
    let a = anc.(j) in
    Array.iter
      (fun i ->
        order.(j) <- max order.(j) (order.(i) + 1);
        if a.(i / 63) land (1 lsl (i mod 63)) = 0 then begin
          let ai = anc.(i) in
          for w = 0 to words - 1 do
            a.(w) <- a.(w) lor ai.(w)
          done;
          a.(i / 63) <- a.(i / 63) lor (1 lsl (i mod 63));
          cover.(i) <- j :: cover.(i)
        end)
      pred.(j);
    let count = ref 0 in
    for w = 0 to words - 1 do
      let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1) in
      count := !count + popcount a.(w) 0
    done;
    ancestors.(j) <- !count
  done;
  let cover = Array.map Array.of_list cover in
  let lat = Array.map (fun info -> Iclass.latency_on desc info.Dep.iclass) infos in
  let slot_mask = Array.map (fun info -> Iclass.slot_mask_on desc info.Dep.iclass) infos in
  { succ; pred; cover; order; ancestors; lat; slot_mask; kinds }

let size t = Array.length t.lat

(** [edge t i j] — the dependency from [i] to [j] ([i < j] in program
    order), if any; O(1) via the kind matrix. *)
let edge t i j =
  decode (Char.code (Bytes.unsafe_get t.kinds ((i * size t) + j)))

(** [hard t i j] / [soft t i j] — O(1) kind tests ([i < j]). *)
let hard t i j = Bytes.unsafe_get t.kinds ((i * size t) + j) = '\001'

let soft t i j =
  Char.code (Bytes.unsafe_get t.kinds ((i * size t) + j)) >= 2

(* Heaviest-path state reused across the rounds of one pack.  [down.(i)]
   is the latency of the heaviest alive path starting at [i] and
   [next.(i)] its second vertex (-1 if none).  [succs.(i)] holds [i]'s
   [cover] successors, of which the first [live.(i)] may still be alive,
   and [verts] the first [nverts] vertices that may be, descending.  Each
   walk compacts away the dead ones in place, keeping list order: over a
   pack the alive set only shrinks, so they never return.

   Walking [cover] instead of [succ] changes no [down], no [next] and no
   tie.  An edge [i -> k] that a longer path [i -> j -> ... -> k] implies
   can never be the heaviest: while [k] is alive so is every vertex on
   that path (alive sets are closed under predecessors), and latencies
   are positive, so [down.(j) > down.(k)].  On kernel blocks most edges
   are implied (an accumulator's every earlier writer precedes its every
   later reader), so the walk skips most of them. *)
type paths = {
  down : int array;
  next : int array;
  succs : int array array;
  live : int array;
  verts : int array;
  mutable nverts : int;
}

let paths t =
  let n = size t in
  let succs = Array.map Array.copy t.cover in
  {
    down = Array.make n 0;
    next = Array.make n (-1);
    succs;
    live = Array.map Array.length succs;
    verts = Array.init n (fun k -> n - 1 - k);
    nverts = n;
  }

(* One critical-path computation: refresh [down]/[next] of every alive
   vertex, exit side first, and return the path's entry vertex (-1 when
   nothing is alive).  Ties go to the earliest successor in [succ] order
   and to the lowest start index, as in the from-scratch definition the
   reference packer keeps. *)
let heaviest t p alive =
  let start = ref (-1) and kept = ref 0 in
  for k = 0 to p.nverts - 1 do
    let i = p.verts.(k) in
    if alive.(i) then begin
      p.verts.(!kept) <- i;
      incr kept;
      let s = p.succs.(i) and li = t.lat.(i) in
      let d = ref li and nx = ref (-1) and nlive = ref 0 in
      for m = 0 to p.live.(i) - 1 do
        let j = s.(m) in
        if alive.(j) then begin
          s.(!nlive) <- j;
          incr nlive;
          if !d < li + p.down.(j) then begin
            d := li + p.down.(j);
            nx := j
          end
        end
      done;
      p.live.(i) <- !nlive;
      p.down.(i) <- !d;
      p.next.(i) <- !nx;
      if !start = -1 || !d >= p.down.(!start) then start := i
    end
  done;
  p.nverts <- !kept;
  !start

let critical_seed t p alive =
  let rec last i = if p.next.(i) = -1 then i else last p.next.(i) in
  match heaviest t p alive with
  | -1 -> invalid_arg "Idg.critical_seed: empty graph"
  | start -> last start

(** [critical_path t alive] — the maximum-total-latency path through the
    vertices for which [alive] holds, as a list of indices from entry side
    to exit side.  Raises [Invalid_argument] if nothing is alive. *)
let critical_path t alive =
  let p = paths t in
  let rec walk i acc = if i = -1 then List.rev acc else walk p.next.(i) (i :: acc) in
  match heaviest t p alive with
  | -1 -> invalid_arg "Idg.critical_path: empty graph"
  | start -> walk start []
