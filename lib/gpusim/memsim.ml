open Polybase
open Polyhedra
open Ir
open Codegen

type result = {
  requests : float;
  sectors : float;
  bytes : float;
  useful_bytes : float;
  flops : float;
  blocks : int;
  threads_per_block : int;
  warps : float;
  requests_per_warp : float;
  footprint_bytes : float;
  capacity_bytes : float;
  shared_hit_bytes : float;
  l2_hit_bytes : float;
  dram_bytes : float;
}

(* ------------------------------------------------------------------ *)
(* compiled affine expressions: exact integer evaluation               *)
(* ------------------------------------------------------------------ *)

(* [slots]/[coefs]: every term, sorted by slot.  [u_*] and [l_*] split the
   same terms into the slots that no thread-mapped loop binds (the same in
   every lane of a warp) and the ones some thread-mapped loop binds: the
   walker keeps the former once per warp (see [walk]). *)
type cexpr = {
  slots : int array;
  coefs : int array;
  const : int;
  div : int;
  u_slots : int array;
  u_coefs : int array;
  l_slots : int array;
  l_coefs : int array;
}

let fdiv_int a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv_int a b = -fdiv_int (-a) b

(* [lane v]: does a thread-mapped loop bind [v]? *)
let compile_expr ~lane slot_of e =
  let denoms =
    Linexpr.fold_terms (fun _ q acc -> Q.den q :: acc) e [ Q.den (Linexpr.constant e) ]
  in
  let l = List.fold_left Bigint.lcm Bigint.one denoms in
  let scale q = Bigint.to_int (Bigint.div (Bigint.mul (Q.num q) l) (Q.den q)) in
  (* by slot, not by name: a renamed iterator gives the same [cexpr] *)
  let terms =
    List.sort compare (Linexpr.fold_terms (fun v q acc -> (slot_of v, scale q, lane v) :: acc) e [])
  in
  let slots ts = Array.of_list (List.map (fun (s, _, _) -> s) ts)
  and coefs ts = Array.of_list (List.map (fun (_, c, _) -> c) ts) in
  let uniform, varying = List.partition (fun (_, _, ln) -> not ln) terms in
  { slots = slots terms;
    coefs = coefs terms;
    const = scale (Linexpr.constant e);
    div = Bigint.to_int l;
    u_slots = slots uniform;
    u_coefs = coefs uniform;
    l_slots = slots varying;
    l_coefs = coefs varying
  }

let lane_uniform ce = Array.length ce.l_slots = 0

(* Every slot read from one environment: lane 0's. *)
let eval_raw env ce =
  let acc = ref ce.const in
  for i = 0 to Array.length ce.slots - 1 do
    acc := !acc + (ce.coefs.(i) * env.(ce.slots.(i)))
  done;
  !acc

(* A lane's value: the lane-uniform slots from lane 0's [env0], the others
   from the lane's own [envl].  Integer sums do not depend on the order of
   their terms, so this is [eval_raw] on a full environment of the lane. *)
let eval_lane env0 envl ce =
  let acc = ref ce.const in
  for i = 0 to Array.length ce.u_slots - 1 do
    acc := !acc + (ce.u_coefs.(i) * env0.(ce.u_slots.(i)))
  done;
  for i = 0 to Array.length ce.l_slots - 1 do
    acc := !acc + (ce.l_coefs.(i) * envl.(ce.l_slots.(i)))
  done;
  !acc

let floor_of ce r = if ce.div = 1 then r else fdiv_int r ce.div
let ceil_of ce r = if ce.div = 1 then r else cdiv_int r ce.div

(* Off-lattice points never get here: the walker masks them out first. *)
let exact_of ce r =
  if ce.div = 1 then r
  else begin
    assert (r mod ce.div = 0);
    r / ce.div
  end

(* ------------------------------------------------------------------ *)
(* simulation program                                                   *)
(* ------------------------------------------------------------------ *)

type sguard = { gkind : Constr.kind; gexpr : cexpr }

type role = Serial | BlockAxis of int | ThreadAxis of int | SplitAxis of int * int * int

type saccess = {
  is_write : bool;
  tid : int;  (** tensor index in the kernel's tensor list *)
  base : int;  (** tensor base byte address *)
  elem : int;  (** element size in bytes *)
  offset : cexpr;  (** element offset *)
  aid : int;  (** the access's index in program order *)
  lane_shaped : bool;
      (** [offset] has no denominator and reads only slots its enclosing
          loops bind, in a program where no loop rebinds an enclosing
          loop's variable: its lane byte deltas then depend on the warp's
          lane shape alone *)
}

(* Lane masks are bitmasks, carried down the walk with their lane counts.
   A serial loop whose bounds read a thread-mapped slot owns its per-lane
   bound arrays, the program's [los.(bounds)] and [his.(bounds)]: a node
   is never its own ancestor, so the walker reuses them for every warp and
   every loop entry without allocating.  They stay out of the tree, so a
   walk leaves the tree, and so its [key], as it was. *)
type sprog =
  | SSeq of sprog array
  | SIf of {
      uniform : sguard array;  (** the guards that read no thread-mapped slot *)
      lane : sguard array;  (** the others, evaluated lane by lane *)
      body : sprog;
    }
  | SFor of {
      slot : int;
      lower : cexpr array;
      upper : cexpr array;
      step : int;
      role : role;
      strip : bool;  (** a vector strip: its slot is the lanes' variable *)
      has_guards : bool;
      uniform : bool;  (** no bound reads a thread-mapped slot *)
      body : sprog;
      bounds : int;  (** its per-lane bounds' index when not [uniform], else -1 *)
    }
  | SExec of {
      accesses : saccess array;
      ops : int;
      vec : int;
      lattice : cexpr array;  (** the [iter_map] entries with a denominator *)
    }

let rec contains_if = function
  | Ast.Stmts l -> List.exists contains_if l
  | Ast.If _ -> true
  | Ast.For l -> contains_if l.Ast.body
  | Ast.Exec _ | Ast.VecExec _ -> false

(* Does a loop rebind the variable of a loop around it? *)
let rec rebinds bound = function
  | Ast.Stmts l -> List.exists (rebinds bound) l
  | Ast.If (_, b) -> rebinds bound b
  | Ast.For l -> List.mem l.Ast.var bound || rebinds (l.Ast.var :: bound) l.Ast.body
  | Ast.Exec _ | Ast.VecExec _ -> false

(* The variables of the thread-mapped loops, anywhere in the tree. *)
let rec thread_vars acc = function
  | Ast.Stmts l -> List.fold_left thread_vars acc l
  | Ast.If (_, b) -> thread_vars acc b
  | Ast.For l ->
    let acc =
      match l.Ast.mark with
      | Ast.Thread _ | Ast.BlockThread _ -> l.Ast.var :: acc
      | Ast.Block _ | Ast.Seq_mark | Ast.Parallel -> acc
    in
    thread_vars acc l.Ast.body
  | Ast.Exec _ | Ast.VecExec _ -> acc

let build_program (c : Compile.compiled) =
  let kernel = c.Compile.kernel in
  let shadowing = rebinds [] c.Compile.ast in
  let tvars = thread_vars [] c.Compile.ast in
  let lane v = List.mem v tvars in
  let naccesses = ref 0 and nbounds = ref 0 in
  let mapping = c.Compile.mapping in
  (* tensor layout: sequential, 256-byte aligned *)
  let bases = Hashtbl.create 8 and tensor_base = ref [] in
  let cursor = ref 0 in
  List.iteri
    (fun i (t : Tensor.t) ->
      Hashtbl.replace bases t.Tensor.name (!cursor, i);
      tensor_base := !cursor :: !tensor_base;
      cursor := (!cursor + Tensor.bytes t + 255) / 256 * 256)
    kernel.Kernel.tensors;
  (* loop-variable slots *)
  let slots = Hashtbl.create 8 in
  let slot_of v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.replace slots v s;
      s
  in
  let cexpr = compile_expr ~lane slot_of in
  (* [bound]: the slots of the enclosing loops *)
  let compile_access bound iter_map (a : Access.t) is_write =
    let t = Kernel.tensor kernel a.Access.tensor in
    let offset = Access.linear_offset t a in
    let offset =
      List.fold_left (fun e (it, by) -> Linexpr.subst it by e) offset iter_map
    in
    let base, tid = Hashtbl.find bases a.Access.tensor in
    let offset = cexpr offset in
    let aid = !naccesses in
    incr naccesses;
    { is_write;
      tid;
      base;
      elem = Tensor.dtype_bytes t.Tensor.dtype;
      offset;
      aid;
      lane_shaped =
        offset.div = 1 && (not shadowing)
        && Array.for_all (fun s -> List.mem s bound) offset.slots
    }
  in
  let compile_exec bound (e : Ast.exec) vec =
    let stmt = Kernel.stmt kernel e.Ast.stmt in
    let accesses =
      compile_access bound e.Ast.iter_map stmt.Stmt.write true
      :: List.map (fun a -> compile_access bound e.Ast.iter_map a false) (Stmt.reads stmt)
    in
    let lattice =
      List.filter_map
        (fun (_, by) ->
          let ce = cexpr by in
          if ce.div > 1 then Some ce else None)
        e.Ast.iter_map
    in
    SExec
      { accesses = Array.of_list accesses;
        ops = Expr.op_count stmt.Stmt.rhs;
        vec;
        lattice = Array.of_list lattice
      }
  in
  let rec go bound = function
    | Ast.Stmts l -> SSeq (Array.of_list (List.map (go bound) l))
    | Ast.If (cs, b) ->
      let guards =
        List.map (fun (cn : Constr.t) -> { gkind = cn.kind; gexpr = cexpr cn.expr }) cs
      in
      let uniform, lane = List.partition (fun g -> lane_uniform g.gexpr) guards in
      SIf { uniform = Array.of_list uniform; lane = Array.of_list lane; body = go bound b }
    | Ast.Exec e -> compile_exec bound e 1
    | Ast.VecExec (e, w) -> compile_exec bound e w
    | Ast.For l ->
      (* the loop's slot first, so slots number loops in program order
         whatever their variables are called *)
      let slot = slot_of l.Ast.var in
      let lower = Array.of_list (List.map cexpr l.Ast.lower) in
      let upper = Array.of_list (List.map cexpr l.Ast.upper) in
      let role =
        match l.Ast.mark with
        | Ast.Block a -> BlockAxis a
        | Ast.Thread a -> ThreadAxis a
        | Ast.BlockThread (b, t) ->
          let textent =
            Option.value ~default:1 (Mapping.thread_extent_of mapping l.Ast.dim)
          in
          SplitAxis (b, t, textent)
        | Ast.Seq_mark | Ast.Parallel -> Serial
      in
      let uniform = Array.for_all lane_uniform lower && Array.for_all lane_uniform upper in
      let bounds = if uniform then -1 else !nbounds in
      if not uniform then incr nbounds;
      SFor
        { slot;
          lower;
          upper;
          step = Ast.step l;
          role;
          strip = (match l.Ast.kind with Ast.Vector _ -> true | Ast.Plain | Ast.Tile _ -> false);
          has_guards = contains_if l.Ast.body;
          uniform;
          body = go (slot :: bound) l.Ast.body;
          bounds
        }
  in
  let prog = go [] c.Compile.ast in
  let nslots = Hashtbl.length slots in
  let lane_slots = Array.make nslots false in
  Hashtbl.iter (fun v s -> if lane v then lane_slots.(s) <- true) slots;
  let tensor_bytes = Array.of_list (List.map Tensor.bytes kernel.Kernel.tensors) in
  ( prog, nslots, lane_slots, tensor_bytes, Array.of_list (List.rev !tensor_base), !naccesses,
    !nbounds )

(* ------------------------------------------------------------------ *)
(* warp walker                                                          *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable t_requests : float;
  mutable t_sectors : float;
  mutable t_useful : float;
  mutable t_flops : float;
}

(* A set of sector ids: linear probing over a power-of-two table, half
   full at most.  [min_int] marks an empty slot: a sector id is an address
   divided by the sector size, so it is never [min_int]. *)
module Sector_set = struct
  type t = { mutable slots : int array; mutable count : int }

  let empty = min_int
  let create n = { slots = Array.make n empty; count = 0 }

  (* [add t k] adds [k] and reports whether it was new. *)
  let rec add t k =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let h = k * 0x9E3779B97F4A7C1 in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while slots.(!i) <> empty && slots.(!i) <> k do
      i := (!i + 1) land mask
    done;
    if slots.(!i) = k then false
    else begin
      slots.(!i) <- k;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length slots then grow t;
      true
    end

  and grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) empty;
    t.count <- 0;
    Array.iter (fun k -> if k <> empty then ignore (add t k)) old
end

(* The sectors of one tensor that the footprint probe has seen: a bitmap
   over the tensor's own sector range [lo, lo + len), allocated on first
   use, and a [Sector_set] for a sector outside it (an address that the
   kernel's bounds do not keep inside the tensor).  A tensor of more than
   [max_bitmap_sectors] sectors (512 MiB at 32-byte sectors, 64 times the
   largest zoo tensor) has only the set, which holds one block's sectors. *)
module Footprint = struct
  type t = { lo : int; len : int; mutable bits : Bytes.t; stray : Sector_set.t }

  let max_bitmap_sectors = 1 lsl 24

  (* the tensor at bytes [base, base + bytes) *)
  let create ~sector_bytes ~base ~bytes =
    let lo = base / sector_bytes in
    let len = ((base + bytes - 1) / sector_bytes) - lo + 1 in
    let len = if len > max_bitmap_sectors then 0 else len in
    { lo; len; bits = Bytes.empty; stray = Sector_set.create 8 }

  (* [add t s] adds sector [s] and reports whether it was new. *)
  let add t s =
    let i = s - t.lo in
    if i >= 0 && i < t.len then begin
      if Bytes.length t.bits = 0 then t.bits <- Bytes.make ((t.len + 7) / 8) '\000';
      let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) and bit = 1 lsl (i land 7) in
      byte land bit = 0
      && begin
        Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte lor bit));
        true
      end
    end
    else Sector_set.add t.stray s
end

(* Log2 of a power of two, else -1. *)
let log2_exact n =
  if n > 0 && n land (n - 1) = 0 then begin
    let k = ref 0 in
    while 1 lsl !k < n do incr k done;
    !k
  end
  else -1

(* Sorts [buf.(0) .. buf.(n - 1)] ascending, drops the repeats and
   returns how many are left.  Insertion sort: a request's sectors are a
   few dozen, nearly sorted. *)
let sort_distinct buf n =
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || buf.(i) <> buf.(i - 1) then begin
      buf.(!distinct) <- buf.(i);
      incr distinct
    end
  done;
  !distinct

(* A multiplicative hash: the polymorphic one is a C call per request. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 32
end)

module Lane_table = struct
  (* [offsets]: the distinct sectors of a request, ascending, relative to
     the sector of lane 0's address; [min_delta]: the least byte delta of
     an active lane (0 with none). *)
  type entry = { offsets : int array; useful : int; min_delta : int }

  type t = { shift : int; deltas : int array; len : int; entries : entry Int_tbl.t }

  let create ~sector_bytes ~deltas ~len =
    let shift = log2_exact sector_bytes in
    if shift < 0 || Array.length deltas + shift > Sys.int_size - 1 then
      invalid_arg "Memsim.Lane_table.create";
    { shift; deltas; len; entries = Int_tbl.create 8 }

  (* Lane 0 at [q * S + residue], lane [l] at [q * S + residue + d_l]:
     floor division by [S = 2^shift] (what [asr] does) gives sector
     [q + (residue + d_l) asr shift], whatever the signs. *)
  let fill t ~mask ~residue =
    let per_lane = ((t.len + (1 lsl t.shift) - 1) asr t.shift) + 1 in
    let secs = Array.make (Array.length t.deltas * per_lane) 0 in
    let n = ref 0 and active = ref 0 and min_delta = ref max_int in
    Array.iteri
      (fun l d ->
        if mask land (1 lsl l) <> 0 then begin
          incr active;
          if d < !min_delta then min_delta := d;
          let start = residue + d in
          for s = start asr t.shift to (start + t.len - 1) asr t.shift do
            secs.(!n) <- s;
            incr n
          done
        end)
      t.deltas;
    { offsets = Array.sub secs 0 (sort_distinct secs !n);
      useful = !active * t.len;
      min_delta = (if !active = 0 then 0 else !min_delta)
    }

  let find t ~mask ~residue =
    let key = (mask lsl t.shift) lor residue in
    match Int_tbl.find t.entries key with
    | e -> e
    | exception Not_found ->
      let e = fill t ~mask ~residue in
      Int_tbl.add t.entries key e;
      e

  let lookup t ~mask ~residue =
    if mask < 0 || mask lsr Array.length t.deltas <> 0 || residue < 0
       || residue >= 1 lsl t.shift
    then invalid_arg "Memsim.Lane_table.lookup";
    let e = find t ~mask ~residue in
    (e.offsets, e.useful)
end

(* An access's tables, one per (lane shape, request length). *)
let rec find_table (shape : int) (len : int) = function
  | (sh, n, t) :: rest -> if sh = shape && n = len then t else find_table shape len rest
  | [] -> raise Not_found

let c_lane_gathers =
  Obs.Counters.create "gpusim.lane_gathers"
    ~doc:"warp requests the walker gathered lane by lane, not from a lane-shape table"

let spread_samples total wanted =
  if total <= wanted then List.init total Fun.id
  else if wanted = 1 then [ 0 ]
  else
    List.sort_uniq compare
      (List.init wanted (fun k -> k * (total - 1) / (wanted - 1)))

(* Do [guards] hold in the lane whose own environment is [envl]? *)
let holds env0 envl guards =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length guards do
    let g = guards.(!i) in
    let r = eval_lane env0 envl g.gexpr in
    ok := (match g.gkind with Constr.Ge -> r >= 0 | Constr.Eq -> r = 0);
    incr i
  done;
  !ok

type program = {
  machine : Machine.t;
  prog : sprog;
  nslots : int;
  lane_slots : bool array;
  tensor_bytes : int array;
  tensor_base : int array;
  naccesses : int;
  mapping : Mapping.t;
  los : int array array;  (** by [SFor]'s [bounds], one entry per lane *)
  his : int array array;
}

let build machine (c : Compile.compiled) =
  let lanes = machine.Machine.warp_size in
  if lanes > Sys.int_size then invalid_arg "Memsim.build: a warp wider than an int";
  let prog, nslots, lane_slots, tensor_bytes, tensor_base, naccesses, nbounds =
    build_program c
  in
  let scratch () = Array.init nbounds (fun _ -> Array.make lanes 0) in
  { machine; prog; nslots; lane_slots; tensor_bytes; tensor_base; naccesses;
    mapping = c.Compile.mapping; los = scratch (); his = scratch () }

(* What [walk] reads, marshalled.  The tree, whatever fields it gains,
   decides [lane_slots], [tensor_base] and [naccesses]; the scratch
   [los]/[his] are written before they are read. *)
let key p =
  Marshal.to_string (p.machine, p.prog, p.nslots, p.tensor_bytes, p.mapping)
    [ Marshal.No_sharing ]

(* What every visit of one warp id shares: its lanes' thread coordinates
   ([coords.(axis).(lane)]), its base lane mask and lane count, and its
   lane shape's id. *)
type warp_setup = { coords : int array array; base_bits : int; base_count : int; shape : int }

let walk ?(block_samples = 8) ?(warp_samples = 4) ?(loop_sample_cap = 32) p =
  let { machine; prog; nslots; lane_slots; tensor_bytes; tensor_base; naccesses; mapping; los; his }
      =
    p
  in
  let warp = machine.Machine.warp_size in
  let blocks = max 1 (Mapping.grid_blocks mapping) in
  let tpb = max 1 (Mapping.block_threads mapping) in
  let warps_pb = (tpb + warp - 1) / warp in
  let tot = { t_requests = 0.; t_sectors = 0.; t_useful = 0.; t_flops = 0. } in
  (* coordinate decomposition: axis 0 fastest *)
  let coords_into extents id arr =
    Array.fill arr 0 3 0;
    let rem = ref id in
    for i = 0 to Array.length extents - 1 do
      arr.(i) <- !rem mod extents.(i);
      rem := !rem / extents.(i)
    done
  in
  let extents dims = Array.of_list (List.map snd dims) in
  let block_extents = extents mapping.Mapping.block_dims in
  let thread_extents = extents mapping.Mapping.thread_dims in
  let coords_of id =
    let arr = Array.make 3 0 in
    coords_into block_extents id arr;
    arr
  in
  (* A request reaches [record weight tid q secs n useful]: its [n]
     distinct sectors are [q + secs.(i)], ascending, and its lanes use
     [useful] bytes.

     The lane-by-lane gather: lane [l] touches bytes [lane_start.(l)] to
     [lane_start.(l) + lane_len.(l) - 1]; [lane_len.(l) = 0] is an inactive
     lane.  [gather] collects the distinct sectors the active lanes touch
     into [!sectors] (sorted) and the bytes they use. *)
  let sector_bytes = machine.Machine.sector_bytes in
  (* log2 of a power-of-two sector size, else -1: a nonnegative address
     then takes a shift instead of a division *)
  let sector_shift = log2_exact sector_bytes in
  let lane_start = Array.make warp 0 and lane_len = Array.make warp 0 in
  let sectors = ref (Array.make (2 * warp) 0) in
  let nsec = ref 0 and useful = ref 0 in
  let push s =
    if !nsec = Array.length !sectors then begin
      let bigger = Array.make (2 * !nsec) 0 in
      Array.blit !sectors 0 bigger 0 !nsec;
      sectors := bigger
    end;
    !sectors.(!nsec) <- s;
    incr nsec
  in
  let gather () =
    nsec := 0;
    useful := 0;
    for l = 0 to warp - 1 do
      let len = lane_len.(l) in
      if len > 0 then begin
        let start = lane_start.(l) and stop = lane_start.(l) + len - 1 in
        useful := !useful + len;
        let shift = sector_shift >= 0 && start >= 0 in
        let first = if shift then start asr sector_shift else start / sector_bytes in
        let last = if shift then stop asr sector_shift else stop / sector_bytes in
        for s = first to last do
          if !nsec = 0 || !sectors.(!nsec - 1) <> s then push s
        done
      end
    done;
    nsec := sort_distinct !sectors !nsec
  in
  let ntensors = Array.length tensor_bytes in
  (* Footprint probe accumulators: one representative block walked with
     every warp, so cross-warp sector re-references inside a block are
     visible (they are invisible to the spread warp sample above).  Each
     distinct sector of a request adds the same [weight], so the order in
     which they arrive cannot change a sum. *)
  let probe_traffic = Array.make (max ntensors 1) 0. in
  let probe_footprint = Array.make (max ntensors 1) 0. in
  let probe_seen =
    Array.init ntensors (fun t ->
        Footprint.create ~sector_bytes ~base:tensor_base.(t) ~bytes:tensor_bytes.(t))
  in
  (* [probe]: the walk is the footprint probe's, not the main sample's *)
  let probe = ref false in
  let record weight tid q secs n useful =
    if useful > 0 then
      if !probe then begin
        let seen = probe_seen.(tid) in
        for i = 0 to n - 1 do
          probe_traffic.(tid) <- probe_traffic.(tid) +. weight;
          if Footprint.add seen (q + secs.(i)) then
            probe_footprint.(tid) <- probe_footprint.(tid) +. weight
        done
      end
      else begin
        tot.t_requests <- tot.t_requests +. weight;
        tot.t_sectors <- tot.t_sectors +. (weight *. float_of_int n);
        tot.t_useful <- tot.t_useful +. (weight *. float_of_int useful)
      end
  in
  let block_ids = spread_samples blocks block_samples in
  let warp_ids = spread_samples warps_pb warp_samples in
  let block_weight = float_of_int blocks /. float_of_int (List.length block_ids) in
  let warp_weight = float_of_int warps_pb /. float_of_int (List.length warp_ids) in
  (* Lane environments.  Lanes differ only on the slots that thread-mapped
     loops bind ([lane_slots]); every other slot is written with one value
     for all lanes.  So [env0] (lane 0's) holds every slot, and lane [l]'s
     [envs.(l)] is kept up to date on the [lane_slots] only: a lane reads
     the others from [env0] (see [eval_lane]). *)
  let envs = Array.init warp (fun _ -> Array.make (max nslots 1) 0) in
  let env0 = envs.(0) in
  let set_slot slot v =
    if lane_slots.(slot) then
      for l = 0 to warp - 1 do
        envs.(l).(slot) <- v
      done
    else env0.(slot) <- v
  in
  (* Lane-shape tables (see memsim.mli): a [lane_shaped] access's byte
     delta from lane 0 to lane [l] is the same in every warp and block of
     one lane shape, so it is computed once per (access, shape, request
     length), and each request is answered from that pattern's table. *)
  let tables = sector_shift >= 0 && warp + sector_shift <= Sys.int_size - 1 in
  let shapes = Hashtbl.create 4 and shape_key = Array.make ((3 * warp) + 1) 0 in
  let shape_of coords bits =
    for a = 0 to 2 do
      for l = 0 to warp - 1 do
        shape_key.((a * warp) + l) <- coords.(a).(l) - coords.(a).(0)
      done
    done;
    shape_key.(3 * warp) <- bits;
    match Hashtbl.find_opt shapes shape_key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length shapes in
      Hashtbl.add shapes (Array.copy shape_key) id;
      id
  in
  (* Each warp id's set-up, computed on its first visit. *)
  let lane_coords = Array.make 3 0 in
  let setup wid =
    let coords = Array.make_matrix 3 warp 0 in
    let bits = ref 0 and count = ref 0 in
    for l = 0 to warp - 1 do
      if (wid * warp) + l < tpb then begin
        bits := !bits lor (1 lsl l);
        incr count
      end;
      coords_into thread_extents ((wid * warp) + l) lane_coords;
      for a = 0 to 2 do
        coords.(a).(l) <- lane_coords.(a)
      done
    done;
    { coords;
      base_bits = !bits;
      base_count = !count;
      shape = (if tables then shape_of coords !bits else 0)
    }
  in
  let setups = Array.init warps_pb (fun wid -> lazy (setup wid)) in
  let shape = ref 0 in
  (* per access: (shape, request length, table) *)
  let lane_tables = Array.make naccesses [] in
  let lane_table acc len =
    match find_table !shape len lane_tables.(acc.aid) with
    | t -> t
    | exception Not_found ->
      let o0 = eval_raw env0 acc.offset in
      let deltas =
        Array.init warp (fun l -> (eval_lane env0 envs.(l) acc.offset - o0) * acc.elem)
      in
      let t = Lane_table.create ~sector_bytes ~deltas ~len in
      lane_tables.(acc.aid) <- (!shape, len, t) :: lane_tables.(acc.aid);
      t
  in
  (* Records the request of the lanes in [bits], lane 0 at byte [a0], and
     says so, unless an active lane's address is negative. *)
  let from_table weight bits acc len a0 =
    let e =
      Lane_table.find (lane_table acc len) ~mask:bits ~residue:(a0 land (sector_bytes - 1))
    in
    a0 + e.Lane_table.min_delta >= 0
    && begin
      record weight acc.tid (a0 asr sector_shift) e.Lane_table.offsets
        (Array.length e.Lane_table.offsets) e.Lane_table.useful;
      true
    end
  in
  let gathers = ref 0 in
  let lane_address envl acc =
    acc.base + (exact_of acc.offset (eval_lane env0 envl acc.offset) * acc.elem)
  in
  (* One request of [len] bytes per lane in [bits], lane [l] at element
     [offset_l + lane_step * stride] along the vector strip's slot [slot];
     [a0] is lane 0's byte address at [lane_step] when [acc] is
     lane-shaped. *)
  let request weight bits acc ~len ~slot ~lane_step ~a0 =
    if not (tables && acc.lane_shaped && from_table weight bits acc len a0) then begin
      incr gathers;
      for l = 0 to warp - 1 do
        if bits land (1 lsl l) <> 0 then begin
          let envl = envs.(l) in
          if lane_step = 0 then lane_start.(l) <- lane_address envl acc
          else begin
            let env = if lane_slots.(slot) then envl else env0 in
            let v = env.(slot) in
            env.(slot) <- v + lane_step;
            lane_start.(l) <- lane_address envl acc;
            env.(slot) <- v
          end;
          lane_len.(l) <- len
        end
        else lane_len.(l) <- 0
      done;
      gather ();
      record weight acc.tid 0 !sectors !nsec !useful
    end
  in
  (* Lane addresses of one access by the lanes in [bits]; [vec_slot] is
     the slot of the enclosing vector strip's variable, or -1. *)
  let access weight bits vec_slot vec acc =
    let a0 =
      if tables && acc.lane_shaped then acc.base + (eval_raw env0 acc.offset * acc.elem) else 0
    in
    if vec = 1 then request weight bits acc ~len:acc.elem ~slot:vec_slot ~lane_step:0 ~a0
    else begin
      (* stride of the access along the vectorized variable, at the first
         active lane *)
      assert (vec_slot >= 0);
      let slot = vec_slot in
      let l0 = ref 0 in
      while !l0 < warp - 1 && bits land (1 lsl !l0) = 0 do incr l0 done;
      let envl = envs.(!l0) in
      let env = if lane_slots.(slot) then envl else env0 in
      let v0 = env.(slot) in
      let o0 = exact_of acc.offset (eval_lane env0 envl acc.offset) in
      env.(slot) <- v0 + 1;
      let o1 = exact_of acc.offset (eval_lane env0 envl acc.offset) in
      env.(slot) <- v0;
      let stride = o1 - o0 in
      if abs stride <= 1 then begin
        (* one vector request covering [vec] lanes' elements *)
        let len = if stride = 0 then acc.elem else acc.elem * vec in
        request weight bits acc ~len ~slot ~lane_step:0 ~a0
      end
      else
        (* strided access inside a vector loop stays scalar: one request
           per lane-step *)
        for lane_step = 0 to vec - 1 do
          request weight bits acc ~len:acc.elem ~slot ~lane_step
            ~a0:(a0 + (lane_step * stride * acc.elem))
        done
    end
  in
  (* [bits] is the lane mask and [count] its number of lanes; no walk
     reaches a node with an empty mask. *)
  let run_warp ~weight0 bcoords wid =
    let s = Lazy.force setups.(wid) in
    shape := s.shape;
    let coords = s.coords in
    let rec walk weight bits count vec_slot = function
      | SSeq l ->
        for i = 0 to Array.length l - 1 do
          walk weight bits count vec_slot l.(i)
        done
      | SIf g ->
        (* a lane-uniform guard has lane 0's value in every lane *)
        if holds env0 env0 g.uniform then
          if Array.length g.lane = 0 then walk weight bits count vec_slot g.body
          else begin
            let bits' = ref 0 and count' = ref 0 in
            for l = 0 to warp - 1 do
              if bits land (1 lsl l) <> 0 && holds env0 envs.(l) g.lane then begin
                bits' := !bits' lor (1 lsl l);
                incr count'
              end
            done;
            if !count' > 0 then walk weight !bits' !count' vec_slot g.body
          end
      | SExec e ->
        if Array.length e.lattice = 0 then exec weight bits count vec_slot e.ops e.vec e.accesses
        else begin
          (* a statement on a sublattice of its loops has no instance at
             the lanes where an [iter_map] entry is fractional *)
          let bits' = ref 0 and count' = ref 0 in
          for l = 0 to warp - 1 do
            if bits land (1 lsl l) <> 0 then begin
              let envl = envs.(l) in
              let on = ref true and i = ref 0 in
              while !on && !i < Array.length e.lattice do
                let ce = e.lattice.(!i) in
                on := eval_lane env0 envl ce mod ce.div = 0;
                incr i
              done;
              if !on then begin
                bits' := !bits' lor (1 lsl l);
                incr count'
              end
            end
          done;
          if !count' > 0 then exec weight !bits' !count' vec_slot e.ops e.vec e.accesses
        end
      | SFor f -> (
        match f.role with
        | BlockAxis a ->
          let lo = ceil_of f.lower.(0) (eval_raw env0 f.lower.(0)) in
          let hi = floor_of f.upper.(0) (eval_raw env0 f.upper.(0)) in
          let v = lo + bcoords.(a) in
          if v <= hi then begin
            set_slot f.slot v;
            walk weight bits count vec_slot f.body
          end
        | ThreadAxis _ | SplitAxis _ ->
          let lo = ceil_of f.lower.(0) (eval_raw env0 f.lower.(0)) in
          let hi = floor_of f.upper.(0) (eval_raw env0 f.upper.(0)) in
          let axis =
            match f.role with
            | ThreadAxis a | SplitAxis (_, a, _) -> coords.(a)
            | Serial | BlockAxis _ -> assert false
          in
          let first =
            match f.role with SplitAxis (b, _, textent) -> bcoords.(b) * textent | _ -> 0
          in
          let bits' = ref 0 and count' = ref 0 in
          for l = 0 to warp - 1 do
            let v = lo + ((first + axis.(l)) * f.step) in
            envs.(l).(f.slot) <- v;
            if bits land (1 lsl l) <> 0 && v <= hi then begin
              bits' := !bits' lor (1 lsl l);
              incr count'
            end
          done;
          (* a thread-mapped vector strip keeps its lanes *)
          let vec_slot' = if f.strip then f.slot else vec_slot in
          if !count' > 0 then walk weight !bits' !count' vec_slot' f.body
        | Serial ->
          (* The loop runs over the union of its active lanes' ranges.  With
             lane-uniform bounds every lane's range is lane 0's, so each
             sample point keeps the incoming mask. *)
          let glo = ref max_int and ghi = ref min_int in
          let los = if f.uniform then [||] else los.(f.bounds)
          and his = if f.uniform then [||] else his.(f.bounds) in
          for l = 0 to (if f.uniform then 0 else warp - 1) do
            if bits land (1 lsl l) <> 0 || f.uniform then begin
              let envl = envs.(l) in
              let lo = ref min_int and hi = ref max_int in
              for i = 0 to Array.length f.lower - 1 do
                let ce = f.lower.(i) in
                let b = ceil_of ce (eval_lane env0 envl ce) in
                if b > !lo then lo := b
              done;
              for i = 0 to Array.length f.upper - 1 do
                let ce = f.upper.(i) in
                let b = floor_of ce (eval_lane env0 envl ce) in
                if b < !hi then hi := b
              done;
              if not f.uniform then begin
                los.(l) <- !lo;
                his.(l) <- !hi
              end;
              if !lo < !glo then glo := !lo;
              if !hi > !ghi then ghi := !hi
            end
          done;
          if !glo <= !ghi then begin
            let trip = ((!ghi - !glo) / f.step) + 1 in
            let cap = if f.has_guards then max loop_sample_cap 256 else loop_sample_cap in
            (* [cap] evenly spread sample points when the loop is longer:
               k*(trip-1)/(cap-1) is then strictly increasing in k *)
            let samples = if trip <= cap then trip else if cap = 1 then 1 else cap in
            let weight' = weight *. (float_of_int trip /. float_of_int samples) in
            let vec_slot' = if f.strip then f.slot else vec_slot in
            for k = 0 to samples - 1 do
              let idx = if trip <= cap then k else if cap = 1 then 0 else k * (trip - 1) / (cap - 1) in
              let v = !glo + (idx * f.step) in
              set_slot f.slot v;
              if f.uniform then walk weight' bits count vec_slot' f.body
              else begin
                let bits' = ref 0 and count' = ref 0 in
                for l = 0 to warp - 1 do
                  if bits land (1 lsl l) <> 0 && v >= los.(l) && v <= his.(l) then begin
                    bits' := !bits' lor (1 lsl l);
                    incr count'
                  end
                done;
                if !count' > 0 then walk weight' !bits' !count' vec_slot' f.body
              end
            done
          end)
    and exec weight bits count vec_slot ops vec accesses =
      if not !probe then
        tot.t_flops <- tot.t_flops +. (weight *. float_of_int (ops * count * vec));
      for i = 0 to Array.length accesses - 1 do
        access weight bits vec_slot vec accesses.(i)
      done
    in
    walk weight0 s.base_bits s.base_count (-1) prog
  in
  List.iter
    (fun bid ->
      let bcoords = coords_of bid in
      List.iter
        (fun wid -> run_warp ~weight0:(block_weight *. warp_weight) bcoords wid)
        warp_ids)
    block_ids;
  (* Footprint probe: one mid-grid block, all of its warps, per-tensor
     traffic vs. distinct sectors.  Serial loops stay sampled, but the
     sample points are identical across warps, so shared serial-indexed
     streams (reduction operands, stencil halos staged per tile) alias in
     [probe_seen] exactly when real warps re-touch the same sectors. *)
  let probe_bid = min (blocks - 1) (blocks / 2) in
  let probe_bcoords = coords_of probe_bid in
  probe := true;
  for wid = 0 to warps_pb - 1 do
    run_warp ~weight0:1.0 probe_bcoords wid
  done;
  Obs.Counters.add c_lane_gathers !gathers;
  let sector_b = float_of_int machine.Machine.sector_bytes in
  let block_footprint =
    sector_b *. Array.fold_left ( +. ) 0.0 probe_footprint
  in
  (* Occupancy-limited on-chip capacity: resident blocks split the SM's
     shared-memory/L1 budget.  A block's re-references hit on chip only
     when its whole footprint (the worst-case reuse distance) fits. *)
  let warps_per_sm =
    max 1 (machine.Machine.max_resident_warps / max 1 machine.Machine.sm_count)
  in
  let resident_blocks = max 1 (min 32 (warps_per_sm / max 1 warps_pb)) in
  let capacity_bytes =
    float_of_int (machine.Machine.shared_mem_per_sm / resident_blocks)
  in
  let hit_cap = Float.min 1.0 (capacity_bytes /. Float.max block_footprint 1.0) in
  let total_tensor_bytes =
    float_of_int (Array.fold_left ( + ) 0 tensor_bytes)
  in
  let l2_frac =
    Float.min 1.0 (float_of_int machine.Machine.l2_bytes /. Float.max total_tensor_bytes 1.0)
  in
  let shared_hits = ref 0.0 and l2_hits = ref 0.0 in
  (* Per-tensor split of the sampled global traffic, in the probe's
     proportions (blocks are homogeneous across the grids we generate). *)
  let probe_total = Array.fold_left ( +. ) 0.0 probe_traffic in
  let global_bytes = tot.t_sectors *. sector_b in
  Array.iteri
    (fun t p_tr ->
      if p_tr > 0.0 then begin
        let traffic_t =
          if probe_total > 0.0 then global_bytes *. (p_tr /. probe_total) else 0.0
        in
        (* intra-block redundancy, served from shared/L1 when the block
           footprint fits the occupancy-limited capacity *)
        let redundancy = Float.max 0.0 (1.0 -. (probe_footprint.(t) /. p_tr)) in
        let sh = traffic_t *. redundancy *. hit_cap in
        shared_hits := !shared_hits +. sh;
        (* cross-block re-reads beyond the tensor's own footprint hit in L2
           when the working set fits there *)
        let after = traffic_t -. sh in
        let excess = Float.max 0.0 (after -. float_of_int tensor_bytes.(t)) in
        l2_hits := !l2_hits +. (excess *. l2_frac)
      end)
    probe_traffic;
  let shared_hit_bytes = Float.min !shared_hits global_bytes in
  let l2_hit_bytes =
    Float.min !l2_hits (Float.max 0.0 (global_bytes -. shared_hit_bytes))
  in
  let warps = float_of_int (blocks * warps_pb) in
  { requests = tot.t_requests;
    sectors = tot.t_sectors;
    bytes = tot.t_sectors *. float_of_int machine.Machine.sector_bytes;
    useful_bytes = tot.t_useful;
    flops = tot.t_flops;
    blocks;
    threads_per_block = tpb;
    warps;
    requests_per_warp = (if warps > 0. then tot.t_requests /. warps else 0.);
    footprint_bytes = block_footprint;
    capacity_bytes;
    shared_hit_bytes;
    l2_hit_bytes;
    dram_bytes = Float.max 0.0 (global_bytes -. shared_hit_bytes -. l2_hit_bytes)
  }

let collect ?block_samples ?warp_samples ?loop_sample_cap machine c =
  walk ?block_samples ?warp_samples ?loop_sample_cap (build machine c)
