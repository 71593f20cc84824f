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

type cexpr = { slots : int array; coefs : int array; const : int; div : int }

let fdiv_int a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv_int a b = -fdiv_int (-a) b

let compile_expr slot_of e =
  let denoms =
    Linexpr.fold_terms (fun _ q acc -> Q.den q :: acc) e [ Q.den (Linexpr.constant e) ]
  in
  let l = List.fold_left Bigint.lcm Bigint.one denoms in
  let scale q = Bigint.to_int (Bigint.div (Bigint.mul (Q.num q) l) (Q.den q)) in
  let terms =
    Array.of_list (Linexpr.fold_terms (fun v q acc -> (slot_of v, scale q) :: acc) e [])
  in
  { slots = Array.map fst terms;
    coefs = Array.map snd terms;
    const = scale (Linexpr.constant e);
    div = Bigint.to_int l
  }

let eval_raw env ce =
  let acc = ref ce.const in
  for i = 0 to Array.length ce.slots - 1 do
    acc := !acc + (ce.coefs.(i) * env.(ce.slots.(i)))
  done;
  !acc

let eval_floor env ce =
  if ce.div = 1 then eval_raw env ce else fdiv_int (eval_raw env ce) ce.div

let eval_ceil env ce =
  if ce.div = 1 then eval_raw env ce else cdiv_int (eval_raw env ce) ce.div

(* Off-lattice points never get here: the walker masks them out first. *)
let eval_exact env ce =
  let r = eval_raw env ce in
  if ce.div = 1 then r
  else begin
    assert (r mod ce.div = 0);
    r / ce.div
  end

let on_lattice env ce = eval_raw env ce mod ce.div = 0

(* ------------------------------------------------------------------ *)
(* simulation program                                                   *)
(* ------------------------------------------------------------------ *)

type sguard = { gkind : Constr.kind; gexpr : cexpr }

type role = Serial | BlockAxis of int | ThreadAxis of int | SplitAxis of int * int * int | Vector of int

type saccess = {
  is_write : bool;
  tid : int;  (** tensor index in the kernel's tensor list *)
  base : int;  (** tensor base byte address *)
  elem : int;  (** element size in bytes *)
  offset : cexpr;  (** element offset *)
}

(* Every node that narrows the lane mask owns its per-lane scratch arrays.
   A node is never its own ancestor, so the walker reuses them for every
   warp and every loop iteration without allocating. *)
type sprog =
  | SSeq of sprog array
  | SIf of { guards : sguard array; mask : bool array; body : sprog }
  | SFor of {
      slot : int;
      lower : cexpr array;
      upper : cexpr array;
      step : int;
      role : role;
      has_guards : bool;
      body : sprog;
      mask : bool array;
      los : int array;  (** per-lane bounds of a serial loop *)
      his : int array;
    }
  | SExec of {
      accesses : saccess array;
      ops : int;
      vec : int;
      lattice : cexpr array;  (** the [iter_map] entries with a denominator *)
      mask : bool array;  (** the lanes on the statement's lattice *)
    }

let rec contains_if = function
  | Ast.Stmts l -> List.exists contains_if l
  | Ast.If _ -> true
  | Ast.For l -> contains_if l.Ast.body
  | Ast.Exec _ | Ast.VecExec _ -> false

let build_program ~lanes (c : Compile.compiled) =
  let kernel = c.Compile.kernel in
  let mapping = c.Compile.mapping in
  (* tensor layout: sequential, 256-byte aligned *)
  let bases = Hashtbl.create 8 in
  let cursor = ref 0 in
  List.iteri
    (fun i (t : Tensor.t) ->
      Hashtbl.replace bases t.Tensor.name (!cursor, i);
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
  let compile_access iter_map (a : Access.t) is_write =
    let t = Kernel.tensor kernel a.Access.tensor in
    let offset = Access.linear_offset t a in
    let offset =
      List.fold_left (fun e (it, by) -> Linexpr.subst it by e) offset iter_map
    in
    let base, tid = Hashtbl.find bases a.Access.tensor in
    { is_write;
      tid;
      base;
      elem = Tensor.dtype_bytes t.Tensor.dtype;
      offset = compile_expr slot_of offset
    }
  in
  let compile_exec (e : Ast.exec) vec =
    let stmt = Kernel.stmt kernel e.Ast.stmt in
    let accesses =
      compile_access e.Ast.iter_map stmt.Stmt.write true
      :: List.map (fun a -> compile_access e.Ast.iter_map a false) (Stmt.reads stmt)
    in
    let lattice =
      List.filter_map
        (fun (_, by) ->
          let ce = compile_expr slot_of by in
          if ce.div > 1 then Some ce else None)
        e.Ast.iter_map
    in
    SExec
      { accesses = Array.of_list accesses;
        ops = Expr.op_count stmt.Stmt.rhs;
        vec;
        lattice = Array.of_list lattice;
        mask = Array.make lanes false
      }
  in
  let rec go = function
    | Ast.Stmts l -> SSeq (Array.of_list (List.map go l))
    | Ast.If (cs, b) ->
      let guards =
        List.map
          (fun (cn : Constr.t) -> { gkind = cn.kind; gexpr = compile_expr slot_of cn.expr })
          cs
      in
      SIf { guards = Array.of_list guards; mask = Array.make lanes false; body = go b }
    | Ast.Exec e -> compile_exec e 1
    | Ast.VecExec (e, w) -> compile_exec e w
    | Ast.For l ->
      let role =
        match l.Ast.mark with
        | Ast.Block a -> BlockAxis a
        | Ast.Thread a -> ThreadAxis a
        | Ast.BlockThread (b, t) ->
          let textent =
            Option.value ~default:1 (Mapping.thread_extent_of mapping l.Ast.dim)
          in
          SplitAxis (b, t, textent)
        | Ast.Vectorized (w, _) -> Vector w
        | Ast.Seq_mark | Ast.Parallel -> Serial
      in
      SFor
        { slot = slot_of l.Ast.var;
          lower = Array.of_list (List.map (compile_expr slot_of) l.Ast.lower);
          upper = Array.of_list (List.map (compile_expr slot_of) l.Ast.upper);
          step = l.Ast.step;
          role;
          has_guards = contains_if l.Ast.body;
          body = go l.Ast.body;
          mask = Array.make lanes false;
          los = Array.make lanes 0;
          his = Array.make lanes 0
        }
  in
  let prog = go c.Compile.ast in
  let tensor_bytes =
    Array.of_list (List.map Tensor.bytes kernel.Kernel.tensors)
  in
  (prog, Hashtbl.length slots, tensor_bytes)

(* ------------------------------------------------------------------ *)
(* warp walker                                                          *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable t_requests : float;
  mutable t_sectors : float;
  mutable t_useful : float;
  mutable t_flops : float;
}

module Int_tbl = Hashtbl.Make (Int)

let spread_samples total wanted =
  if total <= wanted then List.init total Fun.id
  else if wanted = 1 then [ 0 ]
  else
    List.sort_uniq compare
      (List.init wanted (fun k -> k * (total - 1) / (wanted - 1)))

let holds env guards =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length guards do
    let g = guards.(!i) in
    let r = eval_raw env g.gexpr in
    ok := (match g.gkind with Constr.Ge -> r >= 0 | Constr.Eq -> r = 0);
    incr i
  done;
  !ok

let collect ?(block_samples = 8) ?(warp_samples = 4) ?(loop_sample_cap = 32) machine
    (c : Compile.compiled) =
  let warp = machine.Machine.warp_size in
  let prog, nslots, tensor_bytes = build_program ~lanes:warp c in
  let mapping = c.Compile.mapping in
  let blocks = max 1 (Mapping.grid_blocks mapping) in
  let tpb = max 1 (Mapping.block_threads mapping) in
  let warps_pb = (tpb + warp - 1) / warp in
  let tot = { t_requests = 0.; t_sectors = 0.; t_useful = 0.; t_flops = 0. } in
  (* coordinate decomposition: axis 0 fastest *)
  let coords_into dims id arr =
    Array.fill arr 0 3 0;
    let rem = ref id in
    List.iteri
      (fun i (_, e) ->
        arr.(i) <- !rem mod e;
        rem := !rem / e)
      dims
  in
  let coords_of dims id =
    let arr = Array.make 3 0 in
    coords_into dims id arr;
    arr
  in
  (* One warp request: lane [l] touches bytes [lane_start.(l)] to
     [lane_start.(l) + lane_len.(l) - 1]; [lane_len.(l) = 0] is an inactive
     lane.  [gather] collects the sectors the active lanes touch into
     [!sectors] (sorted, with repeats) and the bytes they use. *)
  let sector_bytes = machine.Machine.sector_bytes in
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
        let start = lane_start.(l) in
        useful := !useful + len;
        for s = start / sector_bytes to (start + len - 1) / sector_bytes do
          if !nsec = 0 || !sectors.(!nsec - 1) <> s then push s
        done
      end
    done;
    (* insertion sort: a few dozen entries, nearly sorted *)
    let buf = !sectors in
    for i = 1 to !nsec - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done
  in
  let main_record ~weight _tid =
    gather ();
    if !useful > 0 then begin
      let buf = !sectors and distinct = ref 0 in
      for i = 0 to !nsec - 1 do
        if i = 0 || buf.(i) <> buf.(i - 1) then incr distinct
      done;
      tot.t_requests <- tot.t_requests +. weight;
      tot.t_sectors <- tot.t_sectors +. (weight *. float_of_int !distinct);
      tot.t_useful <- tot.t_useful +. (weight *. float_of_int !useful)
    end
  in
  let ntensors = Array.length tensor_bytes in
  (* Footprint probe accumulators: one representative block walked with
     every warp, so cross-warp sector re-references inside a block are
     visible (they are invisible to the spread warp sample above).  Each
     distinct sector of a request adds the same [weight], so the order in
     which they arrive cannot change a sum. *)
  let probe_traffic = Array.make (max ntensors 1) 0. in
  let probe_footprint = Array.make (max ntensors 1) 0. in
  let probe_seen = Array.init (max ntensors 1) (fun _ -> Int_tbl.create 256) in
  let probe_record ~weight tid =
    gather ();
    if !useful > 0 then begin
      let buf = !sectors and seen = probe_seen.(tid) in
      for i = 0 to !nsec - 1 do
        let s = buf.(i) in
        if i = 0 || s <> buf.(i - 1) then begin
          probe_traffic.(tid) <- probe_traffic.(tid) +. weight;
          if not (Int_tbl.mem seen s) then begin
            Int_tbl.replace seen s ();
            probe_footprint.(tid) <- probe_footprint.(tid) +. weight
          end
        end
      done
    end
  in
  let block_ids = spread_samples blocks block_samples in
  let warp_ids = spread_samples warps_pb warp_samples in
  let block_weight = float_of_int blocks /. float_of_int (List.length block_ids) in
  let warp_weight = float_of_int warps_pb /. float_of_int (List.length warp_ids) in
  let envs = Array.init warp (fun _ -> Array.make (max nslots 1) 0) in
  let base_mask = Array.make warp false in
  let tcoords = Array.init warp (fun _ -> Array.make 3 0) in
  (* Lane addresses of one access by the lanes in [mask]; [vec_slot] is
     the slot of the enclosing vector strip's variable, or -1. *)
  let access ~record weight mask vec_slot vec acc =
    if vec = 1 then begin
      for l = 0 to warp - 1 do
        if mask.(l) then begin
          lane_start.(l) <- acc.base + (eval_exact envs.(l) acc.offset * acc.elem);
          lane_len.(l) <- acc.elem
        end
        else lane_len.(l) <- 0
      done;
      record ~weight acc.tid
    end
    else begin
      (* stride of the access along the vectorized variable *)
      assert (vec_slot >= 0);
      let slot = vec_slot in
      let l0 = ref 0 in
      while !l0 < warp - 1 && not mask.(!l0) do incr l0 done;
      let env0 = envs.(!l0) in
      let v0 = env0.(slot) in
      let o0 = eval_exact env0 acc.offset in
      env0.(slot) <- v0 + 1;
      let o1 = eval_exact env0 acc.offset in
      env0.(slot) <- v0;
      let stride = o1 - o0 in
      if abs stride <= 1 then begin
        (* one vector request covering [vec] lanes' elements *)
        let len = if stride = 0 then acc.elem else acc.elem * vec in
        for l = 0 to warp - 1 do
          if mask.(l) then begin
            lane_start.(l) <- acc.base + (eval_exact envs.(l) acc.offset * acc.elem);
            lane_len.(l) <- len
          end
          else lane_len.(l) <- 0
        done;
        record ~weight acc.tid
      end
      else
        (* strided access inside a vector loop stays scalar: one request
           per lane-step *)
        for lane_step = 0 to vec - 1 do
          for l = 0 to warp - 1 do
            if mask.(l) then begin
              let env = envs.(l) in
              let v = env.(slot) in
              env.(slot) <- v + lane_step;
              lane_start.(l) <- acc.base + (eval_exact env acc.offset * acc.elem);
              env.(slot) <- v;
              lane_len.(l) <- acc.elem
            end
            else lane_len.(l) <- 0
          done;
          record ~weight acc.tid
        done
    end
  in
  let run_warp ~record ~flops ~weight0 bcoords wid =
    for l = 0 to warp - 1 do
      base_mask.(l) <- (wid * warp) + l < tpb;
      coords_into mapping.Mapping.thread_dims ((wid * warp) + l) tcoords.(l)
    done;
    let rec walk weight mask vec_slot = function
      | SSeq l ->
        for i = 0 to Array.length l - 1 do
          walk weight mask vec_slot l.(i)
        done
      | SIf g ->
        let any = ref false in
        for l = 0 to warp - 1 do
          let alive = mask.(l) && holds envs.(l) g.guards in
          g.mask.(l) <- alive;
          if alive then any := true
        done;
        if !any then walk weight g.mask vec_slot g.body
      | SExec e ->
        (* a statement on a sublattice of its loops has no instance at
           the lanes where an [iter_map] entry is fractional *)
        let mask =
          if Array.length e.lattice = 0 then mask
          else begin
            for l = 0 to warp - 1 do
              e.mask.(l) <- mask.(l) && Array.for_all (on_lattice envs.(l)) e.lattice
            done;
            e.mask
          end
        in
        let active = ref 0 in
        for l = 0 to warp - 1 do
          if mask.(l) then incr active
        done;
        if !active > 0 then begin
          flops (weight *. float_of_int (e.ops * !active * e.vec));
          for i = 0 to Array.length e.accesses - 1 do
            access ~record weight mask vec_slot e.vec e.accesses.(i)
          done
        end
      | SFor f -> (
        match f.role with
        | BlockAxis a ->
          let lo = eval_ceil envs.(0) f.lower.(0) in
          let hi = eval_floor envs.(0) f.upper.(0) in
          let v = lo + bcoords.(a) in
          if v <= hi then begin
            for l = 0 to warp - 1 do
              envs.(l).(f.slot) <- v
            done;
            walk weight mask vec_slot f.body
          end
        | ThreadAxis _ | SplitAxis _ ->
          let lo = eval_ceil envs.(0) f.lower.(0) in
          let hi = eval_floor envs.(0) f.upper.(0) in
          let any = ref false in
          for l = 0 to warp - 1 do
            let pos =
              match f.role with
              | ThreadAxis a -> tcoords.(l).(a)
              | SplitAxis (b, t, textent) -> (bcoords.(b) * textent) + tcoords.(l).(t)
              | _ -> assert false
            in
            let v = lo + (pos * f.step) in
            envs.(l).(f.slot) <- v;
            let alive = mask.(l) && v <= hi in
            f.mask.(l) <- alive;
            if alive then any := true
          done;
          (* a thread-mapped vector strip keeps its lanes *)
          let vec_slot' = if f.step > 1 then f.slot else vec_slot in
          if !any then walk weight f.mask vec_slot' f.body
        | Serial | Vector _ ->
          let glo = ref max_int and ghi = ref min_int in
          for l = 0 to warp - 1 do
            if mask.(l) then begin
              let env = envs.(l) in
              let lo = ref min_int and hi = ref max_int in
              for i = 0 to Array.length f.lower - 1 do
                let b = eval_ceil env f.lower.(i) in
                if b > !lo then lo := b
              done;
              for i = 0 to Array.length f.upper - 1 do
                let b = eval_floor env f.upper.(i) in
                if b < !hi then hi := b
              done;
              f.los.(l) <- !lo;
              f.his.(l) <- !hi;
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
            let vec_slot' = match f.role with Vector _ -> f.slot | _ -> vec_slot in
            for k = 0 to samples - 1 do
              let idx = if trip <= cap then k else if cap = 1 then 0 else k * (trip - 1) / (cap - 1) in
              let v = !glo + (idx * f.step) in
              let any = ref false in
              for l = 0 to warp - 1 do
                envs.(l).(f.slot) <- v;
                let alive = mask.(l) && v >= f.los.(l) && v <= f.his.(l) in
                f.mask.(l) <- alive;
                if alive then any := true
              done;
              if !any then walk weight' f.mask vec_slot' f.body
            done
          end)
    in
    walk weight0 base_mask (-1) prog
  in
  let main_flops f = tot.t_flops <- tot.t_flops +. f in
  List.iter
    (fun bid ->
      let bcoords = coords_of mapping.Mapping.block_dims bid in
      List.iter
        (fun wid ->
          run_warp ~record:main_record ~flops:main_flops
            ~weight0:(block_weight *. warp_weight) bcoords wid)
        warp_ids)
    block_ids;
  (* Footprint probe: one mid-grid block, all of its warps, per-tensor
     traffic vs. distinct sectors.  Serial loops stay sampled, but the
     sample points are identical across warps, so shared serial-indexed
     streams (reduction operands, stencil halos staged per tile) alias in
     [probe_tbl] exactly when real warps re-touch the same sectors. *)
  let probe_bid = min (blocks - 1) (blocks / 2) in
  let probe_bcoords = coords_of mapping.Mapping.block_dims probe_bid in
  List.iter
    (fun wid ->
      run_warp ~record:probe_record ~flops:ignore ~weight0:1.0 probe_bcoords wid)
    (List.init warps_pb Fun.id);
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
