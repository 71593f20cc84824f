(* Tests for AST generation, mark refinement, the vectorization pass, the
   mapping pass and the CUDA printer — with semantic validation through the
   reference interpreter. *)

open Ir
open Codegen

let schedule ?influence k =
  fst (Polyhedra.Solver_memo.scoped (fun () -> Scheduling.Scheduler.schedule ?influence k))

let influenced k = schedule ~influence:(Vectorizer.Treegen.influence_for k) k

let semantics_match k ast =
  let m1 = Interp.randomize k in
  let m2 = Interp.copy m1 in
  Interp.run_original k m1;
  Interp.run_ast k ast m2;
  Interp.equal m1 m2

let rec find_loops p = function
  | Ast.Stmts l -> List.concat_map (find_loops p) l
  | Ast.If (_, b) -> find_loops p b
  | Ast.Exec _ | Ast.VecExec _ -> []
  | Ast.For l ->
    (if p l then [ l ] else []) @ find_loops p l.Ast.body

(* ------------------------------------------------------------------ *)
(* AST generation                                                       *)
(* ------------------------------------------------------------------ *)

let test_gen_identity () =
  let k = Ops.Classics.cast_transpose ~n:4 ~m:6 () in
  let sched = schedule k in
  let ast = Gen.generate sched k in
  Alcotest.(check int) "one exec" 1 (Ast.exec_count ast);
  Alcotest.(check (list string)) "stmts" [ "T" ] (Ast.stmts_of ast);
  Alcotest.(check bool) "semantics" true (semantics_match k ast)

let test_gen_iter_map_inverts () =
  let k = Ops.Classics.fig2 ~n:6 () in
  let sched = influenced k in
  let y = Kernel.stmt k "Y" in
  let im = Gen.iter_map_for sched y in
  (* influenced fig2: Y scheduled (i, k, j) -> iY = t0, kY = t1, jY = t2 *)
  let s it = Polyhedra.Linexpr.to_string (List.assoc it im) in
  Alcotest.(check string) "iY" "t0" (s "iY");
  Alcotest.(check string) "kY" "t1" (s "kY");
  Alcotest.(check string) "jY" "t2" (s "jY")

let test_gen_guard_for_point_statement () =
  (* In the influenced fig2 AST, X is pinned to lane 0 of the j loop by an
     equality guard. *)
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched = influenced k in
  let ast = Gen.generate sched k in
  let rec find_guards = function
    | Ast.Stmts l -> List.concat_map find_guards l
    | Ast.For l -> find_guards l.Ast.body
    | Ast.If (cs, b) -> cs @ find_guards b
    | Ast.Exec _ | Ast.VecExec _ -> []
  in
  let guards = find_guards ast in
  Alcotest.(check bool) "one equality guard" true
    (List.exists (fun (c : Polyhedra.Constr.t) -> c.kind = Polyhedra.Constr.Eq) guards);
  Alcotest.(check bool) "semantics" true (semantics_match k ast)

let test_gen_scalar_dims_sequence () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:4 ~m:8 () in
  let sched = schedule k in
  let ast = Gen.generate sched k in
  Alcotest.(check int) "four execs" 4 (Ast.exec_count ast);
  Alcotest.(check bool) "semantics" true (semantics_match k ast)

(* ------------------------------------------------------------------ *)
(* Mark refinement                                                      *)
(* ------------------------------------------------------------------ *)

let test_marks_refine_split_nests () =
  (* Baseline fig2: after the SCC split, X's k loop is parallel even though
     the joint dimension was not coincident for the whole kernel. *)
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched = schedule k in
  let ast = Marks.refine sched k (Deps.Analysis.dependences k) (Gen.generate sched k) in
  let k_loops =
    find_loops
      (fun l -> l.Ast.dim = 2 && Ast.stmts_of l.Ast.body = [ "X" ])
      ast
  in
  Alcotest.(check int) "X has its own dim-2 loop" 1 (List.length k_loops);
  Alcotest.(check bool) "X's loop is parallel" true
    ((List.hd k_loops).Ast.mark = Ast.Parallel);
  (* Y's innermost k loop stays sequential: it carries the reduction. *)
  let y_k = find_loops (fun l -> l.Ast.dim = 3) ast in
  Alcotest.(check bool) "Y k sequential" true
    (List.for_all (fun (l : Ast.loop) -> l.Ast.mark = Ast.Seq_mark) y_k)

(* ------------------------------------------------------------------ *)
(* Vectorization pass                                                   *)
(* ------------------------------------------------------------------ *)

let test_vectorpass_fig2 () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let vec = find_loops (fun l -> match l.Ast.kind with Ast.Vector _ -> true | _ -> false) c.ast in
  Alcotest.(check int) "one vectorized loop" 1 (List.length vec);
  let l = List.hd vec in
  Alcotest.(check int) "width 4 step" 4 (Ast.step l);
  Alcotest.(check bool) "vec semantics" true (semantics_match k c.ast)

let test_vectorpass_disabled_for_novec () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:false sched k in
  let vec = find_loops (fun l -> match l.Ast.kind with Ast.Vector _ -> true | _ -> false) c.ast in
  Alcotest.(check int) "no vectorized loop" 0 (List.length vec)

let test_vectorpass_width2 () =
  (* extent 6 is divisible by 2 but not 4: float2 *)
  let k = Ops.Classics.fig2 ~n:6 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let vec = find_loops (fun l -> match l.Ast.kind with Ast.Vector w -> w = 2 | _ -> false) c.ast in
  Alcotest.(check int) "float2 loop" 1 (List.length vec);
  Alcotest.(check bool) "semantics" true (semantics_match k c.ast)

let test_vectorpass_odd_extent_refuses () =
  let k = Ops.Classics.fig2 ~n:7 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let vec = find_loops (fun l -> match l.Ast.kind with Ast.Vector _ -> true | _ -> false) c.ast in
  Alcotest.(check int) "no vector loop at extent 7" 0 (List.length vec);
  Alcotest.(check bool) "semantics" true (semantics_match k c.ast)

let test_vectorpass_reduction_lanes_in_order () =
  let k = Ops.Classics.reduce_2d ~n:4 ~m:8 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  Alcotest.(check bool) "reduction vec semantics" true (semantics_match k c.ast)

(* ------------------------------------------------------------------ *)
(* Mapping                                                              *)
(* ------------------------------------------------------------------ *)

let test_mapping_never_splits_lanes () =
  (* The paper's first AKG modification: mapping must not consider the
     vector lanes.  A parallel vectorized loop may be mapped as a strip
     (one vector op per thread): its thread extent is the trip count, not
     the element count, and the VecExec stays in the body. *)
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:64 ~m:128 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let vec_loops =
    find_loops (fun l -> match (l.Ast.mark, l.Ast.kind) with
      | (Ast.BlockThread _ | Ast.Thread _), Ast.Vector _ -> true
      | _ -> false) c.ast
  in
  Alcotest.(check bool) "vector strip thread-mapped" true (vec_loops <> []);
  List.iter
    (fun (l : Ast.loop) ->
      match Mapping.thread_extent_of c.mapping l.Ast.dim with
      | Some e ->
        (* strip extent counts vector ops, not elements *)
        Alcotest.(check bool) "strip extent bounded by trip" true (e <= 128 / Ast.step l + 1)
      | None -> Alcotest.fail "expected thread extent")
    vec_loops;
  (* a sequential (reduction) vector strip stays unmapped; rows = 7 so the
     cost model cannot pick the parallel row dimension as vector dim *)
  let r = Ops.Classics.reduce_2d ~n:7 ~m:16 () in
  let rs = influenced r in
  let rc = Compile.lower ~vectorize:true rs r in
  let seq_vec =
    find_loops
      (fun l -> match l.Ast.kind with Ast.Vector _ -> l.Ast.mark = Ast.Seq_mark | _ -> false)
      rc.ast
  in
  Alcotest.(check int) "reduction strip unmapped" 1 (List.length seq_vec)

let test_mapping_thread_budget () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:64 ~m:128 () in
  let sched = schedule k in
  let c = Compile.lower ~vectorize:false sched k in
  Alcotest.(check bool) "threads within budget" true (Mapping.block_threads c.mapping <= 1024);
  Alcotest.(check bool) "blocks exist" true (Mapping.grid_blocks c.mapping >= 1);
  (* threadIdx.x must be the innermost mapped dim *)
  match c.mapping.Mapping.thread_dims with
  | (d0, _) :: rest -> List.iter (fun (d, _) -> Alcotest.(check bool) "x innermost" true (d0 > d)) rest
  | [] -> Alcotest.fail "expected thread dims"

(* ------------------------------------------------------------------ *)
(* CUDA printer                                                         *)
(* ------------------------------------------------------------------ *)

let test_cuda_printer () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let src = Cuda.emit c in
  let contains s = Alcotest.(check bool) ("contains " ^ s) true
      (try ignore (Str.search_forward (Str.regexp_string s) src 0); true with Not_found -> false)
  in
  contains "__global__";
  contains "float4";
  contains "threadIdx";
  contains "fig2_running_example"

(* ------------------------------------------------------------------ *)
(* Golden CUDA snapshots                                                *)
(* ------------------------------------------------------------------ *)

(* Full emitted kernels for two Fig. 2-style fused operators, diffed
   textually against committed snapshots so any drift in scheduling,
   vectorization, mapping or printing shows up as a reviewable diff.
   Regenerate with
     AKG_UPDATE_GOLDEN=test/golden dune exec test/test_codegen.exe *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden_cuda name ~vector_type k =
  let sched = influenced k in
  let c = Compile.lower ~vectorize:true sched k in
  let cuda = Cuda.emit c in
  let has s =
    try ignore (Str.search_forward (Str.regexp_string s) cuda 0); true
    with Not_found -> false
  in
  Alcotest.(check bool) (name ^ " uses " ^ vector_type) true (has vector_type);
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

let test_golden_fig2_float4 () =
  check_golden_cuda "fig2_vec4" ~vector_type:"float4" (Ops.Classics.fig2 ~n:8 ())

let test_golden_fused_float2 () =
  check_golden_cuda "fused_mul_sub_mul_tensoradd_vec2" ~vector_type:"float2"
    (Ops.Classics.fused_mul_sub_mul_tensoradd ~n:4 ~m:6 ())

(* ------------------------------------------------------------------ *)
(* Property: every (kernel, version) pair preserves semantics           *)
(* ------------------------------------------------------------------ *)

let test_all_classics_all_versions () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let base = schedule k in
      let infl = influenced k in
      List.iter
        (fun (v, sched, vectorize) ->
          let c = Compile.lower ~vectorize sched k in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s" name v)
            true (semantics_match k c.ast))
        [ ("isl", base, false); ("novec", infl, false); ("infl", infl, true) ])
    Ops.Classics.all_small

(* Random fused element-wise/transpose kernels: schedules and codegen must
   preserve semantics for every version. *)
let random_kernel_gen =
  QCheck2.Gen.(
    let size = oneofl [ 4; 6 ] in
    let nstmts = int_range 1 3 in
    pair size (pair nstmts (list_size (return 6) (int_range 0 2)))
    >|= fun (n, (ns, choices)) ->
    let t name = Build.tensor name [ n; n ] in
    let tensors = List.init (ns + 1) (fun i -> t (Printf.sprintf "T%d" i)) in
    let stmt i =
      let it j = Printf.sprintf "x%d_%d" i j in
      let src = Printf.sprintf "T%d" i and dst = Printf.sprintf "T%d" (i + 1) in
      let choice = List.nth choices (i mod List.length choices) in
      let read =
        match choice with
        | 0 -> Build.access src [ it 0; it 1 ] (* identity *)
        | 1 -> Build.access src [ it 1; it 0 ] (* transpose *)
        | _ -> Build.access src [ it 0; it 0 ] (* diagonal broadcast *)
      in
      let open Expr.Infix in
      Build.stmt (Printf.sprintf "S%d" i)
        ~iters:[ (it 0, n); (it 1, n) ]
        ~write:(Build.access dst [ it 0; it 1 ])
        ~rhs:(Expr.load read + Expr.const 1.0)
    in
    Build.kernel "random" ~tensors ~stmts:(List.init ns stmt))

let prop_random_kernels_all_versions =
  QCheck2.Test.make ~name:"random kernels: all versions preserve semantics" ~count:12
    random_kernel_gen
    (fun k ->
      let base = schedule k in
      let infl = influenced k in
      List.for_all
        (fun (sched, vectorize) ->
          let c = Compile.lower ~vectorize sched k in
          semantics_match k c.ast)
        [ (base, false); (infl, false); (infl, true) ])

(* ------------------------------------------------------------------ *)
(* the reference interpreter's original order                           *)
(* ------------------------------------------------------------------ *)

(* The statement's instances in lexicographic order, found by walking the
   domain's whole bounding box and keeping the points that satisfy every
   constraint: no bound is derived from the domain. *)
let brute_force_original (k : Kernel.t) mem =
  let open Polybase in
  List.iter
    (fun (s : Stmt.t) ->
      let rec points = function
        | [] -> [ [] ]
        | it :: rest ->
          let lo, hi = Stmt.iter_bounds s it in
          List.concat_map
            (fun v -> List.map (fun p -> (it, Q.of_int v) :: p) (points rest))
            (List.init (hi - lo + 1) (fun d -> lo + d))
      in
      List.iter
        (fun point ->
          let env x = Option.value (List.assoc_opt x point) ~default:Q.zero in
          if Polyhedra.Polyhedron.mem env s.Stmt.domain then begin
            let offset (a : Access.t) =
              let strides = Tensor.strides (Kernel.tensor k a.Access.tensor) in
              List.fold_left ( + ) 0
                (List.mapi (fun d i -> i * strides.(d)) (Access.eval env a))
            in
            let load (a : Access.t) = (Hashtbl.find mem a.Access.tensor).(offset a) in
            (Hashtbl.find mem s.Stmt.write.Access.tensor).(offset s.Stmt.write) <-
              Expr.eval load s.Stmt.rhs
          end)
        (points s.Stmt.iters))
    k.Kernel.stmts

(* An in-place wavefront over a padded buffer: each instance reads its two
   lower neighbours, which earlier instances may have written, so running
   the instances in any other order, skipping one or repeating one changes
   the result.  A third iterator [k] re-updates the point, adding [A[k]]. *)
let wavefront name ~n constrs ~iters =
  let open Polyhedra in
  let i = List.nth iters 0 and j = List.nth iters 1 in
  let at di dj = Build.access_e "B" [ Build.idx_plus i di; Build.idx_plus j dj ] in
  let extra =
    match iters with
    | [ _; _; k ] -> Expr.load (Build.access "A" [ k ])
    | _ -> Expr.const 1.0
  in
  let s =
    Stmt.make ~name:"S" ~iters ~domain:(Polyhedron.of_constraints constrs)
      ~write:(at 1 1)
      ~rhs:Expr.Infix.(Expr.load (at 0 1) + (Expr.load (at 1 0) * Expr.const 0.5) + extra)
  in
  Build.kernel name
    ~tensors:[ Build.tensor "B" [ n + 2; n + 2 ]; Build.tensor "A" [ n + 2 ] ]
    ~stmts:[ s ]

let test_interp_original_order () =
  let open Polyhedra in
  let v = Linexpr.var and n = 6 in
  let between x lo hi = [ Constr.lower_bound x lo; Constr.upper_bound x hi ] in
  let kernels =
    [ (* strictly lower triangle: row 0 is empty *)
      wavefront "triangular" ~n ~iters:[ "i"; "j" ]
        (between "i" 0 (n - 1)
        @ [ Constr.lower_bound "j" 0; Constr.leq (v "j") (Build.idx_plus "i" (-1)) ]);
      (* a band of width 3 around the diagonal *)
      wavefront "banded" ~n ~iters:[ "i"; "j" ]
        (between "i" 0 (n - 1) @ between "j" 0 (n - 1)
        @ [ Constr.leq (v "j") (Build.idx_plus "i" 1);
            Constr.leq (v "i") (Build.idx_plus "j" 1) ]);
      (* a skewed 3-deep nest: j < i leaves row i = 0 without a j, and
         i + j <= k <= i + 2 leaves (i, j) without a k once j > 2 *)
      wavefront "skewed" ~n ~iters:[ "i"; "j"; "k" ]
        (between "i" 0 (n - 1)
        @ [ Constr.lower_bound "j" 0;
            Constr.leq (v "j") (Build.idx_plus "i" (-1));
            Constr.leq (Linexpr.add (v "i") (v "j")) (v "k");
            Constr.leq (v "k") (Build.idx_plus "i" 2)
          ])
    ]
  in
  List.iter
    (fun k ->
      let m1 = Interp.randomize k in
      let m2 = Interp.copy m1 in
      Interp.run_original k m1;
      brute_force_original k m2;
      Alcotest.(check bool)
        (k.Kernel.name ^ ": box enumeration agrees")
        true (Interp.equal m1 m2);
      Alcotest.(check bool) (k.Kernel.name ^ ": the kernel writes") false
        (Interp.equal m1 (Interp.randomize k)))
    kernels

let () =
  Alcotest.run "codegen"
    [ ( "gen",
        [ Alcotest.test_case "identity" `Quick test_gen_identity;
          Alcotest.test_case "iter map inverts" `Quick test_gen_iter_map_inverts;
          Alcotest.test_case "point guard" `Quick test_gen_guard_for_point_statement;
          Alcotest.test_case "scalar dims" `Quick test_gen_scalar_dims_sequence
        ] );
      ("marks", [ Alcotest.test_case "split nests" `Quick test_marks_refine_split_nests ]);
      ( "vectorpass",
        [ Alcotest.test_case "fig2 float4" `Quick test_vectorpass_fig2;
          Alcotest.test_case "novec disabled" `Quick test_vectorpass_disabled_for_novec;
          Alcotest.test_case "float2" `Quick test_vectorpass_width2;
          Alcotest.test_case "odd extent" `Quick test_vectorpass_odd_extent_refuses;
          Alcotest.test_case "reduction lanes" `Quick test_vectorpass_reduction_lanes_in_order
        ] );
      ( "mapping",
        [ Alcotest.test_case "never splits lanes" `Quick test_mapping_never_splits_lanes;
          Alcotest.test_case "thread budget" `Quick test_mapping_thread_budget
        ] );
      ("cuda", [ Alcotest.test_case "printer" `Quick test_cuda_printer ]);
      ( "interp",
        [ Alcotest.test_case "original order on non-rectangular domains" `Quick
            test_interp_original_order
        ] );
      ( "golden-cuda",
        [ Alcotest.test_case "fig2 float4" `Quick test_golden_fig2_float4;
          Alcotest.test_case "fused float2" `Quick test_golden_fused_float2
        ] );
      ( "semantics",
        Alcotest.test_case "classics all versions" `Slow test_all_classics_all_versions
        :: List.map QCheck_alcotest.to_alcotest [ prop_random_kernels_all_versions ] )
    ]
