(* Tests for the kernel IR and the dependence analyzer, mostly on the
   paper's running example (Fig. 2). *)

open Ir

let fig2 = Ops.Classics.fig2 ~n:8 ()

(* ------------------------------------------------------------------ *)
(* IR                                                                   *)
(* ------------------------------------------------------------------ *)

let test_tensor_strides () =
  let t = Build.tensor "D" [ 4; 5; 6 ] in
  Alcotest.(check (array int)) "strides" [| 30; 6; 1 |] (Tensor.strides t);
  Alcotest.(check int) "elems" 120 (Tensor.elems t);
  Alcotest.(check int) "bytes f32" 480 (Tensor.bytes t);
  Alcotest.(check int) "rank" 3 (Tensor.rank t)

let test_access_offset () =
  let t = Build.tensor "D" [ 4; 5; 6 ] in
  let a = Build.access "D" [ "k"; "i"; "j" ] in
  let off = Access.linear_offset t a in
  (* offset = 30k + 6i + j *)
  let q = Polybase.Q.of_int in
  let env = function "k" -> q 1 | "i" -> q 2 | "j" -> q 3 | _ -> Polybase.Q.zero in
  Alcotest.(check int) "offset" 45 (Polybase.Q.to_int (Polyhedra.Linexpr.eval env off))

let test_stmt_extent () =
  let y = Kernel.stmt fig2 "Y" in
  Alcotest.(check int) "extent iY" 8 (Stmt.extent y "iY");
  Alcotest.(check (pair int int)) "bounds" (0, 7) (Stmt.iter_bounds y "jY");
  Alcotest.(check int) "dim" 3 (Stmt.dim y)

let test_kernel_structure () =
  Alcotest.(check int) "stmt position" 1 (Kernel.stmt_position fig2 "Y");
  Alcotest.(check (list string)) "written" [ "B"; "C" ] (Kernel.written_tensors fig2);
  let input_names = List.map (fun (t : Tensor.t) -> t.name) (Kernel.inputs fig2) in
  Alcotest.(check (list string)) "inputs" [ "A"; "D" ] input_names;
  Alcotest.(check bool) "bounds ok" true (Kernel.validate_bounds fig2 = Ok ())

let test_kernel_rejects_bad () =
  Alcotest.check_raises "undeclared tensor"
    (Invalid_argument "Kernel.make: S accesses undeclared tensor Z")
    (fun () ->
      ignore
        (Kernel.make ~name:"bad"
           ~tensors:[ Build.tensor "A" [ 4 ] ]
           ~stmts:
             [ Build.stmt "S" ~iters:[ ("i", 4) ]
                 ~write:(Build.access "Z" [ "i" ])
                 ~rhs:(Expr.load (Build.access "A" [ "i" ]))
             ] ()));
  (* A domain or an index may name only the statement's own iterators:
     Fig. 2's X over 0 <= i, k < N with a symbolic N is rejected. *)
  let below_n x =
    let open Polyhedra in
    [ Constr.lower_bound x 0;
      Constr.leq (Linexpr.var x) (Linexpr.add_term Polybase.Q.one "N" (Linexpr.const_int (-1)))
    ]
  in
  let x ~domain ~index =
    Kernel.make ~name:"fig2_n"
      ~tensors:[ Build.tensor "A" [ 8; 8 ]; Build.tensor "B" [ 8; 8 ] ]
      ~stmts:
        [ Stmt.make ~name:"X" ~iters:[ "iX"; "kX" ] ~domain ~write:(Build.access "B" [ "iX"; "kX" ])
            ~rhs:(Expr.load (Access.make "A" index))
        ]
      ()
  in
  Alcotest.check_raises "domain bounded by N"
    (Invalid_argument "Kernel.make: the domain of X names N, not one of its iterators")
    (fun () ->
      ignore
        (x ~domain:(Polyhedra.Polyhedron.of_constraints (below_n "iX" @ below_n "kX"))
           ~index:[ Build.idx "iX"; Build.idx "kX" ]));
  Alcotest.check_raises "index naming N"
    (Invalid_argument "Kernel.make: an access to A of X names N, not one of its iterators")
    (fun () ->
      ignore
        (x ~domain:(Build.rect [ ("iX", 8); ("kX", 8) ]) ~index:[ Build.idx "iX"; Build.idx "N" ]));
  (* Out-of-bounds access caught by the bounds validator. *)
  let oob () =
    ignore
      (Build.kernel "oob"
         ~tensors:[ Build.tensor "A" [ 4 ]; Build.tensor "B" [ 4 ] ]
         ~stmts:
           [ Build.stmt "S" ~iters:[ ("i", 4) ]
               ~write:(Build.access "B" [ "i" ])
               ~rhs:(Expr.load (Access.make "A" [ Build.idx_plus "i" 1 ]))
           ])
  in
  (match oob () with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected bounds failure")

let test_expr_eval () =
  let open Expr.Infix in
  let a = Build.access "A" [ "i" ] in
  let e = (Expr.load a + Expr.const 2.0) * Expr.const 3.0 in
  Alcotest.(check (float 1e-9)) "eval" 9.0 (Expr.eval (fun _ -> 1.0) e);
  Alcotest.(check int) "op count" 2 (Expr.op_count e);
  Alcotest.(check int) "loads" 1 (List.length (Expr.loads e))

(* ------------------------------------------------------------------ *)
(* Dependences on the running example                                   *)
(* ------------------------------------------------------------------ *)

let deps_fig2 = Deps.Analysis.dependences fig2

let find_deps ?kind ~source ~target () =
  List.filter
    (fun (d : Deps.Dependence.t) ->
      d.source = source && d.target = target
      && match kind with None -> true | Some k -> d.kind = k)
    deps_fig2

let test_flow_x_to_y () =
  let ds = find_deps ~kind:Deps.Dependence.Flow ~source:"X" ~target:"Y" () in
  Alcotest.(check int) "one flow dep X->Y" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "on B" "B" d.tensor;
  (* The relation forces iX = iY and kX = kY: check by optimizing. *)
  let diff = Polyhedra.Linexpr.sub (Polyhedra.Linexpr.var "iX") (Polyhedra.Linexpr.var "iY") in
  (match Polyhedra.Polyhedron.maximum d.rel diff with
   | `Value v -> Alcotest.(check bool) "iX = iY" true (Polybase.Q.is_zero v)
   | _ -> Alcotest.fail "expected bounded")

let test_y_self_deps () =
  let ds = find_deps ~source:"Y" ~target:"Y" () in
  (* flow, anti, output on C, all carried by the innermost iterator only *)
  Alcotest.(check int) "three self deps" 3 (List.length ds);
  List.iter
    (fun (d : Deps.Dependence.t) ->
      Alcotest.(check string) "on C" "C" d.tensor;
      Alcotest.(check int) "carried at depth 2" 2 d.depth)
    ds

let test_no_spurious_deps () =
  Alcotest.(check int) "exactly 4 deps" 4 (List.length deps_fig2);
  Alcotest.(check (list string)) "X has no self deps" []
    (List.map Deps.Dependence.to_string (find_deps ~source:"X" ~target:"X" ()))

let test_elementwise_chain_deps () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:4 ~m:6 () in
  let ds = Deps.Analysis.dependences k in
  (* Exactly the producer-consumer flow deps t1: S0->S1, t2: S1->S2, t3: S2->S3. *)
  Alcotest.(check int) "three flow deps" 3 (List.length ds);
  List.iter
    (fun (d : Deps.Dependence.t) ->
      Alcotest.(check bool) "flow" true (d.kind = Deps.Dependence.Flow))
    ds

let test_single_stmt_kernels () =
  let k = Ops.Classics.transpose_add ~n:8 ~m:8 () in
  Alcotest.(check int) "transpose has no deps" 0
    (List.length (Deps.Analysis.dependences k));
  let r = Ops.Classics.reduce_2d ~n:4 ~m:4 () in
  let ds = Deps.Analysis.dependences r in
  Alcotest.(check int) "reduction carries three self deps" 3 (List.length ds);
  List.iter
    (fun (d : Deps.Dependence.t) ->
      Alcotest.(check int) "carried by j" 1 d.depth)
    ds

(* Inside one scope, the analysis answers every kernel of one digest: a
   renamed copy is a memo hit with equal dependences, and a copy with one
   tensor extent changed is analysed afresh. *)
let test_memo_by_digest () =
  let count = Obs.Counters.find in
  let copy ?(name = fig2.Kernel.name) ?(tensors = fig2.Kernel.tensors) () =
    Kernel.make ~name ~tensors ~stmts:fig2.Kernel.stmts ()
  in
  let widened =
    List.mapi
      (fun i (t : Tensor.t) ->
        if i > 0 then t
        else { t with Tensor.dims = Array.mapi (fun d n -> if d = 0 then n + 1 else n) t.dims })
      fig2.Kernel.tensors
  in
  let text ds = Format.asprintf "%a" Deps.Analysis.pp_all ds in
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let analyses = count "deps.analyses" and hits = count "deps.memo_hits" in
  let ds = Deps.Analysis.dependences fig2 in
  let renamed = Deps.Analysis.dependences (copy ~name:"fig2_renamed" ()) in
  Alcotest.(check int) "renamed: no analysis" (analyses + 1) (count "deps.analyses");
  Alcotest.(check int) "renamed: a memo hit" (hits + 1) (count "deps.memo_hits");
  Alcotest.(check string) "renamed: equal dependences" (text ds) (text renamed);
  ignore (Deps.Analysis.dependences (copy ~tensors:widened ()));
  Alcotest.(check int) "one extent changed: analysed" (analyses + 2) (count "deps.analyses")

let () =
  Alcotest.run "ir-deps"
    [ ( "ir",
        [ Alcotest.test_case "tensor strides" `Quick test_tensor_strides;
          Alcotest.test_case "access offset" `Quick test_access_offset;
          Alcotest.test_case "stmt extent" `Quick test_stmt_extent;
          Alcotest.test_case "kernel structure" `Quick test_kernel_structure;
          Alcotest.test_case "kernel rejects bad" `Quick test_kernel_rejects_bad;
          Alcotest.test_case "expr eval" `Quick test_expr_eval
        ] );
      ( "deps",
        [ Alcotest.test_case "flow X->Y" `Quick test_flow_x_to_y;
          Alcotest.test_case "Y self deps" `Quick test_y_self_deps;
          Alcotest.test_case "no spurious deps" `Quick test_no_spurious_deps;
          Alcotest.test_case "elementwise chain" `Quick test_elementwise_chain_deps;
          Alcotest.test_case "single stmt kernels" `Quick test_single_stmt_kernels;
          Alcotest.test_case "memo by digest" `Quick test_memo_by_digest
        ] )
    ]
