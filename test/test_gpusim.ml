(* Tests for the GPU performance model: coalescing detection, vector
   request counting, traffic accounting and time-model orderings. *)

open Codegen

(* each kernel compiled in one solver-memo scope *)
let compile ?(vectorize = false) ?influence k =
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let sched, _ = Scheduling.Scheduler.schedule ?influence k in
  Compile.lower ~vectorize sched k

let compile_infl ?(vectorize = true) k =
  compile ~vectorize ~influence:(Vectorizer.Treegen.influence_for k) k

let collect c = Gpusim.Memsim.collect Gpusim.Machine.v100 c

let test_coalesced_elementwise () =
  (* 256x512 identity elementwise: every warp touches contiguous 128B. *)
  let k = Ops.Classics.broadcast_bias_relu ~n:256 ~c:512 () in
  let r = collect (compile k) in
  (* transferred bytes should be close to useful bytes (bias is broadcast,
     so efficiency can even exceed 1 on that access) *)
  Alcotest.(check bool) "high efficiency" true (r.Gpusim.Memsim.useful_bytes /. r.Gpusim.Memsim.bytes > 0.9);
  (* the model has no cache: x and out stream once, the bias broadcast is
     re-read per row, so traffic is between 2 and 3 tensors' worth *)
  let per_tensor = float_of_int (256 * 512 * 4) in
  Alcotest.(check bool) "traffic in range" true
    (r.Gpusim.Memsim.bytes > 1.6 *. per_tensor && r.Gpusim.Memsim.bytes < 3.6 *. per_tensor)

let test_uncoalesced_permute () =
  let k = Ops.Classics.permute_outer_bad ~a:32 ~b:32 ~c:64 () in
  let risl = collect (compile k) in
  let rinfl = collect (compile_infl k) in
  let eff r = r.Gpusim.Memsim.useful_bytes /. r.Gpusim.Memsim.bytes in
  Alcotest.(check bool) "isl badly coalesced" true (eff risl < 0.3);
  Alcotest.(check bool) "influence coalesces" true (eff rinfl > 0.9);
  Alcotest.(check bool) "traffic reduced" true
    (rinfl.Gpusim.Memsim.bytes < 0.5 *. risl.Gpusim.Memsim.bytes)

let test_vector_requests () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:64 ~m:256 () in
  let scalar = collect (compile_infl ~vectorize:false k) in
  let vector = collect (compile_infl ~vectorize:true k) in
  let ratio = scalar.Gpusim.Memsim.requests /. vector.Gpusim.Memsim.requests in
  Alcotest.(check bool) "about 4x fewer requests" true (ratio > 3.0 && ratio < 5.0);
  (* same data moved *)
  Alcotest.(check bool) "same traffic" true
    (Float.abs (scalar.Gpusim.Memsim.useful_bytes -. vector.Gpusim.Memsim.useful_bytes)
     /. scalar.Gpusim.Memsim.useful_bytes < 0.15)

let test_flops_counted () =
  (* 64x64 relu(a)+b: 2 flops per point (unop in X... here 2 ops) *)
  let k = Ops.Classics.transpose_add ~n:64 ~m:64 () in
  let r = collect (compile k) in
  Alcotest.(check bool) "flops ~ n*m" true
    (r.Gpusim.Memsim.flops > 0.9 *. float_of_int (64 * 64)
     && r.Gpusim.Memsim.flops < 1.5 *. float_of_int (64 * 64))

let test_warp_accounting () =
  let k = Ops.Classics.broadcast_bias_relu ~n:128 ~c:256 () in
  let c = compile k in
  let r = collect c in
  let total_threads = r.Gpusim.Memsim.blocks * r.Gpusim.Memsim.threads_per_block in
  (* grid must cover all 128*256 points (possibly with masking slack) *)
  Alcotest.(check bool) "grid covers domain" true (total_threads >= 128 * 256);
  Alcotest.(check bool) "warps consistent" true
    (r.Gpusim.Memsim.warps >= float_of_int total_threads /. 32.0)

let test_time_orderings () =
  (* The three versions must be ordered: infl <= novec <= isl on the
     layout-hostile permute; all equal-ish on a clean elementwise op. *)
  let p = Ops.Classics.permute_outer_bad ~a:64 ~b:32 ~c:128 () in
  let t_isl = Gpusim.Sim.run (compile p) in
  let t_novec = Gpusim.Sim.run (compile_infl ~vectorize:false p) in
  let t_infl = Gpusim.Sim.run (compile_infl ~vectorize:true p) in
  Alcotest.(check bool) "novec beats isl" true
    (t_novec.Gpusim.Sim.time_s < t_isl.Gpusim.Sim.time_s);
  Alcotest.(check bool) "infl at least as good as novec" true
    (t_infl.Gpusim.Sim.time_s <= t_novec.Gpusim.Sim.time_s *. 1.02);
  let e = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:128 ~m:768 () in
  let e_isl = Gpusim.Sim.run (compile e) in
  let e_infl = Gpusim.Sim.run (compile_infl e) in
  let ratio = e_isl.Gpusim.Sim.time_s /. e_infl.Gpusim.Sim.time_s in
  Alcotest.(check bool) "elementwise ratio near 1" true (ratio > 0.9 && ratio < 1.4)

let test_sampling_consistency () =
  (* Sampling more blocks/warps should not change totals much on a uniform
     kernel. *)
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:64 ~m:256 () in
  let c = compile k in
  let coarse = Gpusim.Memsim.collect ~block_samples:2 ~warp_samples:2 Gpusim.Machine.v100 c in
  let fine = Gpusim.Memsim.collect ~block_samples:32 ~warp_samples:16 Gpusim.Machine.v100 c in
  let close a b = Float.abs (a -. b) /. Float.max a 1.0 < 0.1 in
  Alcotest.(check bool) "requests stable" true
    (close coarse.Gpusim.Memsim.requests fine.Gpusim.Memsim.requests);
  Alcotest.(check bool) "sectors stable" true
    (close coarse.Gpusim.Memsim.sectors fine.Gpusim.Memsim.sectors)

let test_machine_defaults () =
  let m = Gpusim.Machine.v100 in
  Alcotest.(check int) "warp size" 32 m.Gpusim.Machine.warp_size;
  Alcotest.(check int) "sector" 32 m.Gpusim.Machine.sector_bytes;
  Alcotest.(check bool) "bandwidth plausible" true (m.Gpusim.Machine.dram_bandwidth > 1e11)

(* ------------------------------------------------------------------ *)
(* Bit-exact golden of the simulator                                    *)
(* ------------------------------------------------------------------ *)

(* Every Memsim.result field and Sim.time_s, printed as hexadecimal
   floats, for the classic operators and the StencilZoo suite under the
   isl/novec/infl/tiled lowerings and the TVM comparator's per-statement
   kernels: guards, split block/thread axes, vector strips with strided
   accesses and tiling all appear.  Any change to the simulator's output,
   however small, is a diff of test/golden/memsim.txt.  Regenerate with
     AKG_UPDATE_GOLDEN=test/golden dune exec test/test_gpusim.exe *)

module P = Harness.Pipeline

let sched version k =
  let s, _ = P.schedule ?influence:(P.tree version k) k in
  s

let dump_line label (r : Gpusim.Sim.report) =
  let m = r.Gpusim.Sim.mem in
  let open Gpusim.Memsim in
  Printf.sprintf "%s requests=%h sectors=%h bytes=%h useful=%h flops=%h blocks=%d tpb=%d \
                  warps=%h rpw=%h footprint=%h capacity=%h shared=%h l2=%h dram=%h time_s=%h"
    label m.requests m.sectors m.bytes m.useful_bytes m.flops m.blocks m.threads_per_block
    m.warps m.requests_per_warp m.footprint_bytes m.capacity_bytes m.shared_hit_bytes
    m.l2_hit_bytes m.dram_bytes r.Gpusim.Sim.time_s

let golden_kernels () =
  List.map (fun (name, mk) -> (name, mk ())) Ops.Classics.all
  @ List.map
      (fun (name, k) -> ("StencilZoo/" ^ name, k))
      (Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops)

let fuzz_kernel index =
  match Fuzz.Case.to_kernel (Fuzz.Generate.generate ~seed:42 ~index ()) with
  | Ok k -> k
  | Error m -> Alcotest.failf "fuzz case 42/%d does not convert: %s" index m

(* Fuzz cases (seed 42) whose schedules map a statement onto a sublattice
   of its fused loop: a rational iter_map, so some loop points carry no
   instance of that statement.  283, 306, 423 and 660 do so under isl and
   tiled, 454 under novec and infl. *)
let sublattice_cases = [ 283; 306; 423; 454; 660 ]

(* Fuzz cases (seed 42) with a guard that reads a thread-mapped loop
   variable: 0 and 6 under novec and infl, 8, 33 and 56 under every
   version. *)
let lane_guard_cases = [ 0; 6; 8; 33; 56 ]

(* Row sums of the lower triangle: under isl the serial [j] loop's upper
   bound reads the thread-mapped row [i], so its lanes run different trip
   counts. *)
let triangular_rowsum ?(n = 96) () =
  let open Ir in
  let open Polyhedra in
  let domain =
    Polyhedron.of_constraints
      [ Constr.lower_bound "i" 0;
        Constr.upper_bound "i" (n - 1);
        Constr.lower_bound "j" 0;
        Constr.leq (Linexpr.var "j") (Linexpr.var "i")
      ]
  in
  let s =
    let open Expr.Infix in
    Stmt.make ~name:"S" ~iters:[ "i"; "j" ] ~domain
      ~write:(Build.access "out" [ "i" ])
      ~rhs:(Expr.load (Build.access "out" [ "i" ]) + Expr.load (Build.access "A" [ "i"; "j" ]))
  in
  Build.kernel "triangular_rowsum"
    ~tensors:[ Build.tensor "A" [ n; n ]; Build.tensor "out" [ n ] ]
    ~stmts:[ s ]

(* Kernels that take the walker's per-lane paths, which no classic or
   StencilZoo lowering takes: lane-varying guards, sublattice statements
   and serial loops with lane-varying bounds. *)
let lane_path_kernels () =
  List.map
    (fun i -> (Printf.sprintf "fuzz42/%d" i, fuzz_kernel i))
    (lane_guard_cases @ sublattice_cases)
  @ [ ("triangular_rowsum", triangular_rowsum ()) ]

(* Every lowering of [kernels] with its label, one scope per kernel. *)
let lowerings kernels =
  List.concat_map
    (fun (name, k) ->
      Polyhedra.Solver_memo.scoped @@ fun () ->
      let isl = sched P.Isl k and infl = sched P.Infl k and tiled = sched P.Tiled k in
      let lowering version s =
        (Printf.sprintf "%s %s" name (P.name version), P.lower version s k)
      in
      [ lowering P.Isl isl; lowering P.Novec infl; lowering P.Infl infl;
        lowering P.Tiled tiled ]
      @ List.mapi
          (fun i c -> (Printf.sprintf "%s tvm#%d" name i, c))
          (Baselines.Tvm.compile k))
    kernels

(* The golden lowerings, lowered once for all the tests below: the
   classic and StencilZoo ones first, then the lane-path ones. *)
let golden_lowerings = lazy (lowerings (golden_kernels ()))
let lane_path_lowerings = lazy (lowerings (lane_path_kernels ()))

let memsim_dump lowerings =
  List.map (fun (label, c) -> dump_line label (P.simulate c)) lowerings

let read_lines file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let check_golden lines =
  (* dune runtest runs in _build/default/test where the goldens sit in
     ./golden; `dune exec test/test_gpusim.exe` from the repo root sees
     them in test/golden *)
  let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
  let file = Filename.concat dir "memsim.txt" in
  let expected =
    try read_lines file
    with Sys_error e -> Alcotest.failf "cannot read golden %s: %s" file e
  in
  Alcotest.(check int) "kernel count" (List.length expected) (List.length lines);
  List.iter2 (fun e l -> Alcotest.(check string) "simulated kernel" e l) expected lines

let lane_gathers () = Obs.Counters.find "gpusim.lane_gathers"

(* The classic and StencilZoo lowerings have no sublattice statement and
   no negative address: the walker answers every one of their requests
   from a lane-shape table, so a change that quietly turns the tables off
   shows up here. *)
let test_golden_memsim () =
  let gathers0 = lane_gathers () in
  let lines = memsim_dump (Lazy.force golden_lowerings) in
  Alcotest.(check int) "requests gathered lane by lane" 0 (lane_gathers () - gathers0);
  let lines = lines @ memsim_dump (Lazy.force lane_path_lowerings) in
  match Sys.getenv_opt "AKG_UPDATE_GOLDEN" with
  | Some dir ->
    let file = Filename.concat dir "memsim.txt" in
    let oc = open_out_bin file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %s\n%!" file
  | None -> check_golden lines

(* One solver-memo scope around the simulation of every golden lowering,
   of every operator: the hits must reproduce the golden line for line. *)
let test_memo_golden () =
  if Sys.getenv_opt "AKG_UPDATE_GOLDEN" = None then begin
    let golden = Lazy.force golden_lowerings and lane_path = Lazy.force lane_path_lowerings in
    let hits0 = Obs.Counters.find "gpusim.memo_hits" in
    check_golden
      (Polyhedra.Solver_memo.scoped (fun () -> memsim_dump golden @ memsim_dump lane_path));
    let hits = Obs.Counters.find "gpusim.memo_hits" - hits0 in
    Alcotest.(check bool) (Printf.sprintf "memo hits (%d)" hits) true (hits > 0)
  end

(* ------------------------------------------------------------------ *)
(* The simulator memo's key                                             *)
(* ------------------------------------------------------------------ *)

(* [names] mapped to [prefix ^ index], in reverse order: every term of
   every expression then meets its variables in the opposite order. *)
let reversed_names prefix names =
  let sorted = List.sort_uniq compare names in
  let n = List.length sorted in
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v (Printf.sprintf "%s%03d" prefix (n - 1 - i))) sorted;
  fun v -> Option.value ~default:v (Hashtbl.find_opt tbl v)

(* The same lowering under other kernel, tensor, statement, iterator and
   loop-variable names. *)
let renamed (c : Compile.compiled) =
  let open Polyhedra in
  let k = c.Compile.kernel in
  let tensor = reversed_names "T" (List.map (fun (t : Ir.Tensor.t) -> t.name) k.Ir.Kernel.tensors) in
  let stmt = reversed_names "S" (List.map (fun (s : Ir.Stmt.t) -> s.name) k.Ir.Kernel.stmts) in
  let iter = reversed_names "it" (List.concat_map (fun (s : Ir.Stmt.t) -> s.iters) k.Ir.Kernel.stmts) in
  let rec loop_vars = function
    | Ast.Stmts l -> List.concat_map loop_vars l
    | Ast.If (_, b) -> loop_vars b
    | Ast.For l -> l.Ast.var :: loop_vars l.Ast.body
    | Ast.Exec _ | Ast.VecExec _ -> []
  in
  let var = reversed_names "lv" (loop_vars c.Compile.ast) in
  let access (a : Ir.Access.t) = { (Ir.Access.rename iter a) with tensor = tensor a.tensor } in
  let stmt' (s : Ir.Stmt.t) =
    { Ir.Stmt.name = stmt s.name;
      iters = List.map iter s.iters;
      domain = Polyhedron.rename iter s.domain;
      write = access s.write;
      rhs = Ir.Expr.map_accesses access s.rhs
    }
  in
  let kernel =
    Ir.Kernel.make ~name:(k.Ir.Kernel.name ^ "_renamed")
      ~tensors:(List.map (fun (t : Ir.Tensor.t) -> { t with name = tensor t.name }) k.tensors)
      ~stmts:(List.map stmt' k.stmts) ()
  in
  let exec (e : Ast.exec) =
    { Ast.stmt = stmt e.Ast.stmt;
      iter_map = List.map (fun (it, by) -> (iter it, Linexpr.rename var by)) e.Ast.iter_map
    }
  in
  let rec ast = function
    | Ast.Stmts l -> Ast.Stmts (List.map ast l)
    | Ast.If (cs, b) -> Ast.If (List.map (Constr.rename var) cs, ast b)
    | Ast.For l ->
      Ast.For
        { l with
          var = var l.Ast.var;
          lower = List.map (Linexpr.rename var) l.Ast.lower;
          upper = List.map (Linexpr.rename var) l.Ast.upper;
          body = ast l.Ast.body
        }
    | Ast.Exec e -> Ast.Exec (exec e)
    | Ast.VecExec (e, w) -> Ast.VecExec (exec e, w)
  in
  { c with kernel; ast = ast c.Compile.ast }

let key machine c = Gpusim.Memsim.key (Gpusim.Memsim.build machine c)

let test_key_renaming () =
  let v100 = Gpusim.Machine.v100 in
  List.iter
    (fun (label, c) ->
      let c' = renamed c in
      if Ast.to_string c.Compile.ast = Ast.to_string c'.Compile.ast then
        Alcotest.failf "%s: renaming left the AST unchanged" label;
      if key v100 c <> key v100 c' then Alcotest.failf "%s: renamed kernel, other key" label;
      Alcotest.(check string) label
        (dump_line "" (Gpusim.Sim.run c))
        (dump_line "" (Gpusim.Sim.run c')))
    (Lazy.force golden_lowerings @ Lazy.force lane_path_lowerings)

let test_key_distinguishes () =
  let v100 = Gpusim.Machine.v100 in
  let lower k = P.lower P.Isl (sched P.Isl k) k in
  let c = lower (Ops.Classics.transpose_add ~n:64 ~m:64 ()) in
  let k = c.Compile.kernel in
  let differs what c' m =
    if key v100 c = key m c' then Alcotest.failf "%s: same key" what
  in
  differs "extent" (lower (Ops.Classics.transpose_add ~n:64 ~m:128 ())) v100;
  let with_tensors f = Ir.Kernel.make ~name:k.Ir.Kernel.name ~tensors:(f k.tensors) ~stmts:k.stmts () in
  differs "dtype"
    { c with
      kernel =
        with_tensors (List.map (fun (t : Ir.Tensor.t) -> { t with dtype = Ir.Tensor.F16 }))
    }
    v100;
  differs "tensor order" { c with kernel = with_tensors List.rev } v100;
  differs "machine" c Gpusim.Machine.a100

(* The walker writes per-lane bounds for a serial loop whose bounds read a
   thread-mapped variable; they live outside what the key marshals, so
   walking a program leaves its key as it was. *)
let test_walk_keeps_key () =
  let k = triangular_rowsum () in
  let c = P.lower P.Isl (sched P.Isl k) k in
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
  in
  let tvars = thread_vars [] c.Compile.ast in
  let rec lane_bounded = function
    | Ast.Stmts l -> List.exists lane_bounded l
    | Ast.If (_, b) -> lane_bounded b
    | Ast.For l ->
      let serial = match l.Ast.mark with Ast.Seq_mark | Ast.Parallel -> true | _ -> false in
      let reads e = List.exists (fun v -> List.mem v tvars) (Polyhedra.Linexpr.vars e) in
      (serial && List.exists reads (l.Ast.lower @ l.Ast.upper)) || lane_bounded l.Ast.body
    | Ast.Exec _ | Ast.VecExec _ -> false
  in
  Alcotest.(check bool) "a serial loop with per-lane bounds" true (lane_bounded c.Compile.ast);
  let p = Gpusim.Memsim.build Gpusim.Machine.v100 c in
  let before = Gpusim.Memsim.key p in
  let first = Gpusim.Memsim.walk p in
  Alcotest.(check string) "key after a walk" before (Gpusim.Memsim.key p);
  Alcotest.(check bool) "a second walk agrees" true (first = Gpusim.Memsim.walk p)

(* Half-precision tensors, in the simulator only: each classic's isl
   lowering simulated on V100 with every tensor turned F16.  Each lane
   moves half the bytes from the same instructions, so useful bytes halve
   exactly and requests stay.  Sectors never grow (a lane's smaller range
   can still need a sector of its own), and they halve exactly on the
   four classics in [halved].  The CUDA and C emitters do not read
   [dtype], so they print the same code for either precision; only
   [Memsim]'s element size sees it. *)
let test_f16_traffic () =
  let halved = [ "fused_mul_sub_mul_tensoradd"; "broadcast_bias_relu"; "permute_scale_fused";
                 "downsample_2x" ] in
  let isl = List.map (fun (name, _) -> name ^ " isl") Ops.Classics.all in
  let classics = List.filter (fun (label, _) -> List.mem label isl) (Lazy.force golden_lowerings) in
  Alcotest.(check int) "every classic" (List.length Ops.Classics.all) (List.length classics);
  List.iter
    (fun (label, (c : Compile.compiled)) ->
      let k = c.Compile.kernel in
      let f16 =
        Ir.Kernel.make ~name:k.Ir.Kernel.name ~stmts:k.stmts
          ~tensors:(List.map (fun (t : Ir.Tensor.t) -> { t with dtype = Ir.Tensor.F16 }) k.tensors)
          ()
      in
      let m32 = (P.simulate c).Gpusim.Sim.mem
      and m16 = (P.simulate { c with kernel = f16 }).Gpusim.Sim.mem in
      let open Gpusim.Memsim in
      Alcotest.(check (float 0.0)) (label ^ ": useful bytes halve") (m32.useful_bytes /. 2.0)
        m16.useful_bytes;
      Alcotest.(check (float 0.0)) (label ^ ": same requests") m32.requests m16.requests;
      if m16.sectors > m32.sectors then Alcotest.failf "%s: F16 touches more sectors" label;
      if List.mem (List.hd (String.split_on_char ' ' label)) halved then
        Alcotest.(check (float 0.0)) (label ^ ": sectors halve") (m32.sectors /. 2.0) m16.sectors)
    classics

(* ------------------------------------------------------------------ *)
(* Sublattice schedules and an independent flops count                  *)
(* ------------------------------------------------------------------ *)

let test_sublattice_schedules () =
  let gathers0 = lane_gathers () in
  List.iter
    (fun index ->
      let k = fuzz_kernel index in
      List.iter
        (fun version ->
          match (P.run version (P.operator k)).P.backend with
          | P.Simulated r ->
            let t = r.Gpusim.Sim.time_s in
            if not (Float.is_finite t && t > 0.0) then
              Alcotest.failf "case %d %s: time %g" index (P.name version) t
          | P.Emitted _ -> Alcotest.fail "a V100 run emitted C")
        P.versions)
    sublattice_cases;
  (* an offset with a denominator is gathered lane by lane *)
  let gathers = lane_gathers () - gathers0 in
  Alcotest.(check bool) (Printf.sprintf "lane gathers (%d)" gathers) true (gathers > 0)

(* ------------------------------------------------------------------ *)
(* Lane-shape sector tables                                             *)
(* ------------------------------------------------------------------ *)

(* A random lane pattern: sector size [2^shift], request length, every
   lane's byte delta from lane 0 (negative and non-monotone ones
   included) and a few active-lane masks, holes included. *)
let lane_pattern_gen =
  QCheck2.Gen.(
    let* lanes = int_range 1 32 in
    let* shift = int_range 0 6 in
    let* len = int_range 1 64 in
    let* deltas = array_repeat lanes (int_range (-300) 300) in
    let mask =
      map
        (fun on -> Array.fold_right (fun on m -> (m lsl 1) lor Bool.to_int on) on 0)
        (array_repeat lanes bool)
    in
    let* masks = list_size (int_range 1 3) mask in
    return (shift, len, deltas, masks))

let print_lane_pattern (shift, len, deltas, masks) =
  Printf.sprintf "sector %d, len %d, deltas [%s], masks [%s]" (1 lsl shift) len
    (String.concat "; " (Array.to_list (Array.map string_of_int deltas)))
    (String.concat "; " (List.map (Printf.sprintf "%#x") masks))

(* The sectors a lane-by-lane gather sees: lane 0 at the non-negative
   address [q * S + residue], every active lane's bytes divided one by
   one by [S], relative to sector [q]. *)
let brute_force ~sector ~len deltas mask residue =
  let q = 1000 in
  let secs = ref [] and useful = ref 0 in
  Array.iteri
    (fun l d ->
      if mask land (1 lsl l) <> 0 then
        for i = 0 to len - 1 do
          let s = (((q * sector) + residue + d + i) / sector) - q in
          incr useful;
          match !secs with
          | s' :: _ when s' = s -> ()
          | _ -> secs := s :: !secs
        done)
    deltas;
  (Array.of_list (List.sort_uniq compare !secs), !useful)

(* Every residue, in order, on one table: a table that confused two keys
   would answer a later residue with an earlier one's sectors. *)
let prop_lane_table =
  QCheck2.Test.make ~name:"lane table equals a lane-by-lane gather" ~count:200
    ~print:print_lane_pattern lane_pattern_gen
    (fun (shift, len, deltas, masks) ->
      let sector = 1 lsl shift in
      let t = Gpusim.Memsim.Lane_table.create ~sector_bytes:sector ~deltas ~len in
      List.for_all
        (fun mask ->
          List.for_all
            (fun residue ->
              Gpusim.Memsim.Lane_table.lookup t ~mask ~residue
              = brute_force ~sector ~len deltas mask residue)
            (List.init sector Fun.id))
        masks)

let test_lane_table_bounds () =
  let module L = Gpusim.Memsim.Lane_table in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "sector size 24" (fun () -> L.create ~sector_bytes:24 ~deltas:[| 0 |] ~len:4);
  raises "a mask wider than an int" (fun () ->
      L.create ~sector_bytes:32 ~deltas:(Array.make (Sys.int_size - 5) 0) ~len:4);
  let t = L.create ~sector_bytes:32 ~deltas:[| 0; 4 |] ~len:4 in
  raises "residue 32" (fun () -> L.lookup t ~mask:1 ~residue:32);
  raises "lane 2" (fun () -> L.lookup t ~mask:4 ~residue:0);
  Alcotest.(check (pair (array int) int)) "two lanes across a boundary" ([| 0; 1 |], 8)
    (L.lookup t ~mask:3 ~residue:28)

(* With every block, warp and serial-loop iteration visited, every sample
   weight is exactly 1, so the simulator's flops must equal the sum over
   statements of |domain| x ops per instance.  Fuzz domains are
   rectangular, so |domain| is the product of the iterator extents.  The
   tiled lowering is left out: its block loops are mis-simulated (ROADMAP,
   "Tiled kernels are mis-simulated"), which overcounts flops. *)
let test_exhaustive_flops () =
  List.iter
    (fun index ->
      let k = fuzz_kernel index in
      let expected =
        List.fold_left
          (fun acc (s : Ir.Stmt.t) ->
            let points =
              List.fold_left (fun n it -> n * Ir.Stmt.extent s it) 1 s.Ir.Stmt.iters
            in
            acc + (points * Ir.Expr.op_count s.Ir.Stmt.rhs))
          0 k.Ir.Kernel.stmts
      in
      let isl, infl = Polyhedra.Solver_memo.scoped (fun () -> (sched P.Isl k, sched P.Infl k)) in
      List.iter
        (fun (version, s) ->
          let c = P.lower ~vec_min_parallel:0 version s k in
          let r =
            Gpusim.Memsim.collect ~block_samples:max_int ~warp_samples:max_int
              ~loop_sample_cap:max_int Gpusim.Machine.v100 c
          in
          if r.Gpusim.Memsim.flops <> float_of_int expected then
            Alcotest.failf "case %d %s: flops %g, expected %d" index (P.name version)
              r.Gpusim.Memsim.flops expected)
        [ (P.Isl, isl); (P.Novec, infl); (P.Infl, infl) ])
    (List.init 40 Fun.id @ sublattice_cases)

let () =
  Alcotest.run "gpusim"
    [ ( "memsim",
        [ Alcotest.test_case "coalesced elementwise" `Quick test_coalesced_elementwise;
          Alcotest.test_case "uncoalesced permute" `Quick test_uncoalesced_permute;
          Alcotest.test_case "vector requests" `Quick test_vector_requests;
          Alcotest.test_case "flops" `Quick test_flops_counted;
          Alcotest.test_case "warp accounting" `Quick test_warp_accounting;
          Alcotest.test_case "sampling consistency" `Quick test_sampling_consistency;
          Alcotest.test_case "golden" `Quick test_golden_memsim;
          Alcotest.test_case "golden through one memo" `Quick test_memo_golden;
          Alcotest.test_case "key ignores names" `Quick test_key_renaming;
          Alcotest.test_case "key distinguishes" `Quick test_key_distinguishes;
          Alcotest.test_case "walk keeps the key" `Quick test_walk_keeps_key;
          Alcotest.test_case "f16 traffic" `Quick test_f16_traffic;
          Alcotest.test_case "sublattice schedules" `Quick test_sublattice_schedules;
          Alcotest.test_case "exhaustive flops" `Quick test_exhaustive_flops;
          Alcotest.test_case "lane table bounds" `Quick test_lane_table_bounds;
          QCheck_alcotest.to_alcotest prop_lane_table
        ] );
      ( "sim",
        [ Alcotest.test_case "time orderings" `Quick test_time_orderings;
          Alcotest.test_case "machine defaults" `Quick test_machine_defaults
        ] )
    ]
