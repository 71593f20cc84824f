(* Tiling as a constraint-injection client: end-to-end tests for
   Scheduling.Tiling (band selection, tile-shape choice, influence-tree
   construction) and the backend Codegen.Tiling pass consuming the
   injected tile-shape annotation — plus golden CUDA snapshots for one
   tiled stencil and one tiled contraction. *)

open Ir
open Codegen

let schedule ?influence k =
  fst (Polyhedra.Solver_memo.scoped (fun () -> Scheduling.Scheduler.schedule ?influence k))

let tiled_lower k =
  let tree = Scheduling.Tiling.influence_for k in
  let sched = schedule ~influence:tree k in
  Compile.lower ~vectorize:false sched k

let semantics_match k ast =
  let m1 = Interp.randomize k in
  let m2 = Interp.copy m1 in
  Interp.run_original k m1;
  Interp.run_ast k ast m2;
  Interp.equal m1 m2

(* ------------------------------------------------------------------ *)
(* band selection                                                       *)
(* ------------------------------------------------------------------ *)

(* Wavefront stencil x[i][j] = x[i-1][j+1]: the flow dependence moves
   forward along i but backward along j, so only the outermost dimension
   can join a band — too shallow to tile. *)
let wavefront ?(n = 8) ?(m = 8) () =
  let tensors = [ Build.tensor "x" [ n + 1; m + 1 ] ] in
  let open Expr.Infix in
  let s =
    Build.stmt "W"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Access.make "x" [ Build.idx_plus "i" 1; Build.idx "j" ])
      ~rhs:
        (Expr.load (Access.make "x" [ Build.idx "i"; Build.idx_plus "j" 1 ])
        + Expr.const 1.0)
  in
  Build.kernel "wavefront" ~tensors ~stmts:[ s ]

let test_band_depth_stencil () =
  let k = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let deps = Deps.Analysis.dependences k in
  Alcotest.(check int) "independent stencil: full band" 2
    (Scheduling.Tiling.band_depth k deps)

let test_band_depth_matmul () =
  let k = Ops.Classics.matmul ~n:8 ~m:8 ~k:8 () in
  let deps = Deps.Analysis.dependences k in
  (* the reduction dependence is forward on every dimension (0,0,+1) *)
  Alcotest.(check int) "contraction: 3-deep band" 3
    (Scheduling.Tiling.band_depth k deps)

let test_band_depth_backward_dep () =
  let k = wavefront () in
  let deps = Deps.Analysis.dependences k in
  Alcotest.(check int) "backward dependence stops the band" 1
    (Scheduling.Tiling.band_depth k deps);
  Alcotest.(check bool) "no influence tree for a 1-deep band" true
    (Scheduling.Tiling.influence_for k = Scheduling.Influence.empty)

let test_choose_sizes_respects_budget () =
  let k = Ops.Classics.stencil2d ~n:256 ~m:512 () in
  let model =
    { Scheduling.Tiling.default_model with Scheduling.Tiling.shared_mem_bytes = 2048 }
  in
  let sizes = Scheduling.Tiling.choose_sizes model k 2 in
  Alcotest.(check bool) "some dimension tiled" true (sizes <> []);
  let elems =
    List.fold_left (fun acc (_, s) -> acc * (s + model.Scheduling.Tiling.halo)) 1 sizes
  in
  Alcotest.(check bool) "tile footprint fits the budget" true
    (elems * model.Scheduling.Tiling.elem_bytes * 2 <= 2048)

(* ------------------------------------------------------------------ *)
(* end-to-end: influence -> schedule -> annotation -> tiled AST         *)
(* ------------------------------------------------------------------ *)

let test_stencil_tiled_end_to_end () =
  let k = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let tree = Scheduling.Tiling.influence_for k in
  Alcotest.(check bool) "tree nonempty" true (tree <> Scheduling.Influence.empty);
  let sched = schedule ~influence:tree k in
  Alcotest.(check bool) "tile-shape annotation injected" true
    (List.exists
       (function Scheduling.Schedule.Tile_sizes _ -> true | _ -> false)
       sched.Scheduling.Schedule.annotations);
  let c = Compile.lower ~vectorize:false sched k in
  Alcotest.(check bool) "backend tiled the band" true (Tiling.applied c.Compile.ast);
  Alcotest.(check bool) "tiled AST matches the interpreter" true
    (semantics_match k c.Compile.ast)

let test_matmul_tiled_end_to_end () =
  let k = Ops.Classics.matmul ~n:8 ~m:8 ~k:8 () in
  let c = tiled_lower k in
  Alcotest.(check bool) "contraction tiled" true (Tiling.applied c.Compile.ast);
  Alcotest.(check bool) "tiled contraction matches the interpreter" true
    (semantics_match k c.Compile.ast)

let test_backward_dep_untiled_end_to_end () =
  let k = wavefront () in
  let c = tiled_lower k in
  Alcotest.(check bool) "wavefront left untiled" false (Tiling.applied c.Compile.ast);
  Alcotest.(check bool) "still correct" true (semantics_match k c.Compile.ast)

(* Every operator of the zoo, tiled, must agree bit-for-bit with the
   reference interpreter on the original kernel — whether the tiling
   influence stuck, was abandoned, or was refused by the backend. *)
let test_all_small_tiled_semantics () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let c = tiled_lower k in
      Alcotest.(check bool) (name ^ " tiled semantics") true
        (semantics_match k c.Compile.ast))
    Ops.Classics.all_small

(* ------------------------------------------------------------------ *)
(* identity and annotation edge cases                                   *)
(* ------------------------------------------------------------------ *)

let test_no_annotation_reproduces_untiled () =
  let k = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let sched = schedule k in
  Alcotest.(check bool) "baseline schedule carries no tile annotation" true
    (Tiling.sizes_of_schedule sched = None);
  let plain = Compile.lower ~vectorize:false sched k in
  Alcotest.(check bool) "nothing tiled" false (Tiling.applied plain.Compile.ast)

let test_tile_size_one_is_identity () =
  let k = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let sched = schedule k in
  let plain = Compile.lower ~vectorize:false sched k in
  let one =
    Compile.lower ~vectorize:false
      { sched with annotations = [ Scheduling.Schedule.Tile_sizes [ (0, 1); (1, 1) ] ] }
      k
  in
  Alcotest.(check string) "size-1 tiling emits bit-identical CUDA"
    (Cuda.emit plain) (Cuda.emit one)

(* Tile sizes are keyed by loop ordinal: on rows [Loop; Scalar; Loop],
   ordinal 1 is row 2, so its size must tile row 2 and nothing row 1. *)
let test_ordinals_skip_scalar_rows () =
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let row kind e = { Scheduling.Schedule.kind; exprs = [ ("T", e) ] } in
  let loop it = row (Scheduling.Schedule.Loop { coincident = true }) (Polyhedra.Linexpr.var it) in
  let sched =
    { Scheduling.Schedule.kernel_name = k.Kernel.name;
      stmt_names = [ "T" ];
      rows = [ loop "i"; row Scheduling.Schedule.Scalar Polyhedra.Linexpr.zero; loop "j" ];
      annotations = [ Scheduling.Schedule.Tile_sizes [ (0, 2); (1, 4) ] ]
    }
  in
  let c = Compile.lower ~vectorize:false sched k in
  let rec tiles = function
    | Ast.Stmts l -> List.concat_map tiles l
    | Ast.If (_, b) -> tiles b
    | Ast.Exec _ | Ast.VecExec _ -> []
    | Ast.For l ->
      (match l.Ast.kind with Ast.Tile s -> [ (l.Ast.dim + 1000, s) ] | _ -> [])
      @ tiles l.Ast.body
  in
  Alcotest.(check (list (pair int int)))
    "(row, size) of every tile loop" [ (0, 2); (2, 4) ] (tiles c.Compile.ast);
  Alcotest.(check bool) "tiled AST matches the interpreter" true
    (semantics_match k c.Compile.ast)

(* ------------------------------------------------------------------ *)
(* a broken tiler                                                       *)
(* ------------------------------------------------------------------ *)

let test_off_by_one_fault_is_detectable () =
  let k = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let tree = Scheduling.Tiling.influence_for k in
  let sched = schedule ~influence:tree k in
  let c = Compile.lower ~vectorize:false sched k in
  let broken = { c with Compile.ast = Tile_mutant.off_by_one c.Compile.ast } in
  Alcotest.(check bool) "fault still produces a tiled AST" true
    (Tiling.applied broken.Compile.ast);
  Alcotest.(check bool) "off-by-one fault breaks semantics" false
    (semantics_match k broken.Compile.ast)

(* ------------------------------------------------------------------ *)
(* golden CUDA snapshots                                                *)
(* ------------------------------------------------------------------ *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Regenerate with AKG_UPDATE_GOLDEN=test/golden dune exec test/test_tiling.exe *)
let check_golden_tiled name k =
  let c = tiled_lower k in
  Alcotest.(check bool) (name ^ " is tiled") true (Tiling.applied c.Compile.ast);
  let cuda = Cuda.emit c in
  match Sys.getenv_opt "AKG_UPDATE_GOLDEN" with
  | Some dir ->
    let file = Filename.concat dir (name ^ ".cu") in
    let oc = open_out file in
    output_string oc cuda;
    close_out oc;
    Printf.printf "wrote %s\n%!" file
  | None -> (
    (* dune runtest runs in _build/default/test where the goldens sit in
       ./golden; a test binary run from the repo root sees them in
       test/golden *)
    let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
    let file = Filename.concat dir (name ^ ".cu") in
    match read_file file with
    | exception Sys_error e -> Alcotest.failf "cannot read golden %s: %s" file e
    | expected ->
      if String.trim expected <> String.trim cuda then
        Alcotest.failf
          "emitted CUDA for %s no longer matches %s:\n--- expected\n%s\n--- got\n%s"
          name file expected cuda)

let test_golden_tiled_stencil () =
  check_golden_tiled "stencil2d_tiled" (Ops.Classics.stencil2d ~n:16 ~m:32 ())

let test_golden_tiled_matmul () =
  check_golden_tiled "matmul_tiled" (Ops.Classics.matmul ~n:8 ~m:8 ~k:8 ())

(* ------------------------------------------------------------------ *)
(* StencilZoo contract                                                  *)
(* ------------------------------------------------------------------ *)

(* Every StencilZoo op through the ordinary pipeline, isl against tiled:
   the scheduler must never hand the tiling pass an illegal schedule, and
   tiling must pay off on at least one op.  The "wins" half reads the
   simulator's tiled times; the open fix to how the simulator times tiled
   kernels (block-loop steps, ROADMAP) moves them, and that change may
   need to revisit it. *)
let test_stencilzoo_contract () =
  let module P = Harness.Pipeline in
  let time (p : P.output) =
    match p.P.backend with
    | P.Simulated r -> Gpusim.Sim.time_us r
    | P.Emitted _ -> Alcotest.fail "a V100 run emitted C"
  in
  let wins =
    List.filter
      (fun (op, k) ->
        let isl = P.run P.Isl (P.operator k) and tiled = P.run P.Tiled (P.operator k) in
        (match Scheduling.Legality.check tiled.P.sched k tiled.P.deps with
         | Ok () -> ()
         | Error e -> Alcotest.failf "%s: tiled schedule is illegal: %s" op e);
        Codegen.Tiling.applied tiled.P.compiled.Compile.ast && time tiled < time isl)
      (Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops)
  in
  Alcotest.(check bool) "some op is tiled and faster than isl" true (wins <> [])

let () =
  Alcotest.run "tiling"
    [ ( "band-selection",
        [ Alcotest.test_case "stencil full band" `Quick test_band_depth_stencil;
          Alcotest.test_case "matmul 3-deep band" `Quick test_band_depth_matmul;
          Alcotest.test_case "backward dep rejected" `Quick test_band_depth_backward_dep;
          Alcotest.test_case "sizes respect budget" `Quick test_choose_sizes_respects_budget
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "stencil tiled" `Quick test_stencil_tiled_end_to_end;
          Alcotest.test_case "matmul tiled" `Quick test_matmul_tiled_end_to_end;
          Alcotest.test_case "wavefront untiled" `Quick test_backward_dep_untiled_end_to_end;
          Alcotest.test_case "all_small semantics" `Quick test_all_small_tiled_semantics
        ] );
      ( "identity",
        [ Alcotest.test_case "no annotation" `Quick test_no_annotation_reproduces_untiled;
          Alcotest.test_case "size-1 identity" `Quick test_tile_size_one_is_identity;
          Alcotest.test_case "ordinals skip scalar rows" `Quick
            test_ordinals_skip_scalar_rows
        ] );
      ( "fault-injection",
        [ Alcotest.test_case "off-by-one detectable" `Quick
            test_off_by_one_fault_is_detectable
        ] );
      ( "golden-cuda",
        [ Alcotest.test_case "tiled stencil" `Quick test_golden_tiled_stencil;
          Alcotest.test_case "tiled matmul" `Quick test_golden_tiled_matmul
        ] );
      ( "stencilzoo",
        [ Alcotest.test_case "legal tiling with a win" `Quick test_stencilzoo_contract ] )
    ]
