(* Tests for the paper-adjacent extensions: tiling of permutable bands,
   cost-function (objective) injection, the extra operators, the TVM-style
   comparator and the evaluation harness. *)

open Polyhedra
open Ir
open Codegen

let cv ~stmt ~dim it =
  Linexpr.var (Scheduling.Space.coef_var ~stmt ~dim (Scheduling.Space.Iter it))

let schedule ?influence k =
  Solver_memo.scoped (fun () -> Scheduling.Scheduler.schedule ?influence k)

let semantics_match k ast =
  let m1 = Interp.randomize k in
  let m2 = Interp.copy m1 in
  Interp.run_original k m1;
  Interp.run_ast k ast m2;
  Interp.equal m1 m2

let rec count_loops = function
  | Ast.Stmts l -> List.fold_left (fun acc t -> acc + count_loops t) 0 l
  | Ast.If (_, b) -> count_loops b
  | Ast.Exec _ | Ast.VecExec _ -> 0
  | Ast.For l -> 1 + count_loops l.Ast.body

(* ------------------------------------------------------------------ *)
(* Tiling                                                               *)
(* ------------------------------------------------------------------ *)

let test_tiling_structure () =
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let sched, _ = schedule k in
  let plain = Gen.generate sched k in
  let deps = Deps.Analysis.dependences k in
  let tiled = Tiling.tile_all ~size:4 sched k deps (Marks.refine sched k deps plain) in
  (* 2 loops become 4: two tile + two point *)
  Alcotest.(check int) "loop count doubles" 4 (count_loops tiled);
  Alcotest.(check bool) "semantics" true (semantics_match k tiled)

let test_tiling_all_classics_semantics () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let sched, _ = schedule k in
      let c = Compile.lower ~vectorize:false ~tile_sizes:(fun _ -> Some 4) sched k in
      Alcotest.(check bool) (name ^ " tiled semantics") true (semantics_match k c.ast))
    Ops.Classics.all_small

let test_tiling_respects_permutability () =
  (* B[i][j] = B[i-1][j+1] + 1: the (i, j) band is NOT permutable (the flow
     dependence has a negative component on j), so tiling must refuse. *)
  let n = 8 in
  let tensors = [ Build.tensor "B" [ n; n ] ] in
  let rhs =
    let open Expr.Infix in
    Expr.load (Access.make "B" [ Build.idx_plus "i" (-1); Build.idx_plus "j" 1 ])
    + Expr.const 1.0
  in
  let s =
    Stmt.make ~name:"S" ~iters:[ "i"; "j" ]
      ~domain:(Build.rect_from [ ("i", 1, n - 1); ("j", 0, n - 2) ])
      ~write:(Build.access "B" [ "i"; "j" ])
      ~rhs
  in
  let k = Kernel.make ~name:"stencil" ~tensors ~stmts:[ s ] () in
  (* the scheduler skews this kernel into a permutable wavefront; to test
     the gate we use the legal-but-unpermutable identity schedule, where
     the flow dependence direction is (+1, -1) *)
  let sched =
    { Scheduling.Schedule.kernel_name = "stencil";
      stmt_names = [ "S" ];
      rows =
        [ { Scheduling.Schedule.kind = Scheduling.Schedule.Loop { coincident = false };
            exprs = [ ("S", Linexpr.var "i") ] };
          { Scheduling.Schedule.kind = Scheduling.Schedule.Loop { coincident = false };
            exprs = [ ("S", Linexpr.var "j") ] }
        ];
      annotations = []
    }
  in
  let deps = Deps.Analysis.dependences k in
  Alcotest.(check bool) "identity schedule legal" true
    (Scheduling.Legality.is_legal sched k deps);
  Alcotest.(check bool) "band not permutable" false
    (Tiling.band_permutable sched k deps ~dims:[ 0; 1 ] ~stmts:[ "S" ]);
  let plain = Marks.refine sched k deps (Gen.generate sched k) in
  let tiled = Tiling.tile_all ~size:4 sched k deps plain in
  (* the outer (i) dimension must not be hoisted into a tile loop; the
     inner loop alone may be strip-mined (always legal) *)
  let rec has_tile_dim0 = function
    | Ast.Stmts l -> List.exists has_tile_dim0 l
    | Ast.If (_, b) -> has_tile_dim0 b
    | Ast.Exec _ | Ast.VecExec _ -> false
    | Ast.For { Ast.kind = Ast.Tile _; dim = -1000; _ } -> true
    | Ast.For l -> has_tile_dim0 l.Ast.body
  in
  Alcotest.(check bool) "band tiling refused" false (has_tile_dim0 tiled);
  Alcotest.(check bool) "untouched semantics" true (semantics_match k tiled);
  (* the scheduler's own (skewed) schedule is permutable and legal *)
  let auto, _ = schedule k in
  Alcotest.(check bool) "auto schedule legal" true
    (Scheduling.Legality.is_legal auto k deps);
  Alcotest.(check bool) "skewed band permutable" true
    (Tiling.band_permutable auto k deps ~dims:[ 0; 1 ] ~stmts:[ "S" ]);
  (* and a permutable kernel reports permutable *)
  let k2 = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let sched2, _ = schedule k2 in
  Alcotest.(check bool) "transpose band permutable" true
    (Tiling.band_permutable sched2 k2 (Deps.Analysis.dependences k2)
       ~dims:[ 0; 1 ] ~stmts:[ "T" ])

let test_tiling_point_loops_mappable () =
  let k = Ops.Classics.broadcast_bias_relu ~n:64 ~c:64 () in
  let sched, _ = schedule k in
  let c = Compile.lower ~vectorize:false ~tile_sizes:(fun _ -> Some 16) sched k in
  (* point loops carry trip hints, so threads still exist *)
  Alcotest.(check bool) "threads mapped" true (Mapping.block_threads c.mapping > 1);
  Alcotest.(check bool) "blocks from tile loops" true (Mapping.grid_blocks c.mapping > 1);
  Alcotest.(check bool) "semantics" true (semantics_match k c.ast)

(* ------------------------------------------------------------------ *)
(* Cost-function injection                                              *)
(* ------------------------------------------------------------------ *)

let test_objective_injection () =
  (* Minimizing the coefficient of i at dimension 0 steers the scheduler to
     the interchanged order without any hard constraint. *)
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let node =
    Scheduling.Influence.node ~label:"soft interchange"
      ~objectives:[ (1, cv ~stmt:"T" ~dim:0 "i") ]
      []
  in
  let sched, stats = schedule ~influence:[ node ] k in
  let e dim = Linexpr.to_string (Scheduling.Schedule.expr_for sched ~dim ~stmt:"T") in
  Alcotest.(check string) "dim0 j" "j" (e 0);
  Alcotest.(check string) "dim1 i" "i" (e 1);
  Alcotest.(check bool) "no abandonment" false stats.influence_abandoned;
  (* objectives never make the problem infeasible *)
  let absurd =
    Scheduling.Influence.node ~label:"absurd"
      ~objectives:[ (0, Linexpr.scale (Polybase.Q.of_int 1000) (cv ~stmt:"T" ~dim:0 "i")) ]
      []
  in
  let sched2, stats2 = schedule ~influence:[ absurd ] k in
  Alcotest.(check bool) "still schedules" true (Scheduling.Schedule.dims sched2 = 2);
  Alcotest.(check bool) "not abandoned" false stats2.influence_abandoned

(* ------------------------------------------------------------------ *)
(* Multi-phase and irregular operators                                   *)
(* ------------------------------------------------------------------ *)

let test_softmax_schedule () =
  (* four phases over a row: the scheduler must fuse the row loop, order
     the phases with one scalar dimension and keep the j loops sequential
     (the reductions and the all-of-row flow dependences forbid more) *)
  let k = Ops.Classics.softmax ~n:4 ~m:8 () in
  let sched, _ = schedule k in
  Alcotest.(check bool) "legal" true
    (Scheduling.Legality.is_legal sched k (Deps.Analysis.dependences k));
  Alcotest.(check int) "three dims" 3 (Scheduling.Schedule.dims sched);
  (match (List.nth sched.rows 0).Scheduling.Schedule.kind with
   | Scheduling.Schedule.Loop { coincident } ->
     Alcotest.(check bool) "row loop parallel" true coincident
   | Scheduling.Schedule.Scalar -> Alcotest.fail "loop expected");
  Alcotest.(check bool) "phase sequence scalar" true
    ((List.nth sched.rows 1).Scheduling.Schedule.kind = Scheduling.Schedule.Scalar);
  (* the vectorization scenarios are infeasible here: influence must fall
     back to the baseline (the safety property of Section IV-A4) *)
  let tree = Vectorizer.Treegen.influence_for k in
  let infl, stats = schedule ~influence:tree k in
  Alcotest.(check bool) "abandoned" true stats.Scheduling.Scheduler.influence_abandoned;
  Alcotest.(check string) "identical to baseline"
    (Scheduling.Schedule.to_string sched)
    (Scheduling.Schedule.to_string infl)

let test_downsample_strided_loads () =
  let k = Ops.Classics.downsample_2x ~n:4 ~m:4 () in
  let s = Kernel.stmt k "D" in
  let read = List.hd (Stmt.reads s) in
  Alcotest.(check int) "load stride 2" 2 (Vectorizer.Costmodel.stride k s read ~iter:"j");
  Alcotest.(check int) "load not vectorizable" 1
    (Vectorizer.Costmodel.vector_width k s ~iter:"j" read);
  Alcotest.(check int) "store vectorizable" 4
    (Vectorizer.Costmodel.vector_width k s ~iter:"j" s.Stmt.write);
  (* full pipeline still bit-exact *)
  let tree = Vectorizer.Treegen.influence_for k in
  let sched, _ = schedule ~influence:tree k in
  let c = Compile.lower ~vectorize:true sched k in
  Alcotest.(check bool) "semantics" true (semantics_match k c.ast)

let test_shift_add_unaligned () =
  let k = Ops.Classics.shift_add ~n:4 ~m:8 () in
  let s = Kernel.stmt k "H" in
  let shifted =
    List.find
      (fun (a : Access.t) ->
        not (Polybase.Q.is_zero (Linexpr.constant (List.nth a.Access.index 1))))
      (Stmt.reads s)
  in
  Alcotest.(check int) "shifted load unit stride" 1
    (Vectorizer.Costmodel.stride k s shifted ~iter:"j");
  Alcotest.(check int) "but unaligned: no vector type" 1
    (Vectorizer.Costmodel.vector_width k s ~iter:"j" shifted);
  let tree = Vectorizer.Treegen.influence_for k in
  let sched, _ = schedule ~influence:tree k in
  let c = Compile.lower ~vectorize:true sched k in
  Alcotest.(check bool) "semantics" true (semantics_match k c.ast)

(* ------------------------------------------------------------------ *)
(* TVM comparator                                                       *)
(* ------------------------------------------------------------------ *)

let test_tvm_unfused () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:4 ~m:8 () in
  let kernels = Baselines.Tvm.compile k in
  Alcotest.(check int) "one kernel per statement" 4 (List.length kernels);
  (* running the sub-kernels in order must equal the fused original *)
  let m1 = Interp.randomize k in
  let m2 = Interp.copy m1 in
  Interp.run_original k m1;
  List.iter (fun (c : Compile.compiled) -> Interp.run_ast k c.ast m2) kernels;
  Alcotest.(check bool) "tvm semantics" true (Interp.equal m1 m2)

let test_tvm_output_aligned () =
  (* the permute op: TVM's schedule follows the output layout, making the
     innermost (thread) dimension the contiguous one *)
  let k = Ops.Classics.permute_outer_bad ~a:4 ~b:4 ~c:8 () in
  let s = Kernel.stmt k "P" in
  let sched = Baselines.Tvm.schedule_stmt k s in
  let e dim = Linexpr.to_string (Scheduling.Schedule.expr_for sched ~dim ~stmt:"P") in
  Alcotest.(check string) "dim0 pb" "pb" (e 0);
  Alcotest.(check string) "dim1 pa" "pa" (e 1);
  Alcotest.(check string) "dim2 pc" "pc" (e 2)

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)
(* ------------------------------------------------------------------ *)

let test_eval_harness () =
  let k = Ops.Classics.permute_outer_bad () in
  let r = Harness.Eval.evaluate_op ~name:"p" k in
  Alcotest.(check bool) "influenced" true r.Harness.Eval.influenced;
  Alcotest.(check bool) "novec faster than isl" true (r.novec_us < r.isl_us);
  Alcotest.(check bool) "infl at least as fast" true (r.infl_us <= r.novec_us *. 1.05);
  let a = Harness.Eval.aggregate [ r ] in
  Alcotest.(check int) "total" 1 a.Harness.Eval.total;
  Alcotest.(check int) "infl count" 1 a.infl_count

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Harness.Eval.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 3.0 (Harness.Eval.geomean [ 3.0 ])

let test_machines_agree_on_ranking () =
  (* the permute ranking must hold on both machine generations *)
  let k = Ops.Classics.permute_outer_bad () in
  let isl_sched, _ = schedule k in
  let tree = Vectorizer.Treegen.influence_for k in
  let infl_sched, _ = schedule ~influence:tree k in
  List.iter
    (fun machine ->
      let t sched vec =
        Gpusim.Sim.time_us
          (Gpusim.Sim.run ~machine (Compile.lower ~vectorize:vec sched k))
      in
      Alcotest.(check bool)
        (machine.Gpusim.Machine.name ^ " ranking") true
        (t infl_sched true < t isl_sched false))
    [ Gpusim.Machine.v100; Gpusim.Machine.a100 ]

let () =
  Alcotest.run "extensions"
    [ ( "tiling",
        [ Alcotest.test_case "structure" `Quick test_tiling_structure;
          Alcotest.test_case "classics semantics" `Slow test_tiling_all_classics_semantics;
          Alcotest.test_case "permutability gate" `Quick test_tiling_respects_permutability;
          Alcotest.test_case "point loops mappable" `Quick test_tiling_point_loops_mappable
        ] );
      ( "cost-injection",
        [ Alcotest.test_case "objective injection" `Quick test_objective_injection ] );
      ( "operators",
        [ Alcotest.test_case "softmax" `Quick test_softmax_schedule;
          Alcotest.test_case "downsample strided" `Quick test_downsample_strided_loads;
          Alcotest.test_case "shift unaligned" `Quick test_shift_add_unaligned
        ] );
      ( "tvm",
        [ Alcotest.test_case "unfused" `Quick test_tvm_unfused;
          Alcotest.test_case "output aligned" `Quick test_tvm_output_aligned
        ] );
      ( "harness",
        [ Alcotest.test_case "eval" `Quick test_eval_harness;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "machines agree" `Quick test_machines_agree_on_ranking
        ] )
    ]
