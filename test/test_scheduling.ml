(* Tests for the influenced polyhedral scheduler (Algorithm 1), the
   influence-tree abstraction, Farkas linearization and the legality
   oracle. *)

open Polybase
open Polyhedra
open Scheduling

let cv ~stmt ~dim it = Linexpr.var (Space.coef_var ~stmt ~dim (Space.Iter it))

let legal kernel sched =
  Legality.is_legal sched kernel (Deps.Analysis.dependences kernel)

(* one solver-memo scope per schedule, as a caller compiling a kernel opens *)
let schedule ?influence k = Solver_memo.scoped (fun () -> Scheduler.schedule ?influence k)

let check_expr msg sched ~dim ~stmt expected =
  let e = Schedule.expr_for sched ~dim ~stmt in
  Alcotest.(check string) msg expected (Linexpr.to_string e)

(* ------------------------------------------------------------------ *)
(* Farkas                                                               *)
(* ------------------------------------------------------------------ *)

let test_farkas_interval () =
  (* c*x + c0 >= 0 on [0, 10] iff c0 >= 0 and 10c + c0 >= 0. *)
  let p =
    Polyhedron.of_constraints [ Constr.lower_bound "x" 0; Constr.upper_bound "x" 10 ]
  in
  let cs =
    Farkas.nonneg_on ~coef_of:(fun _ -> Linexpr.var "c") ~const:(Linexpr.var "c0") p
  in
  let holds ~c ~c0 =
    let env v = if v = "c" then Q.of_int c else if v = "c0" then Q.of_int c0 else Q.zero in
    List.for_all (Constr.holds env) cs
  in
  Alcotest.(check bool) "c=1,c0=0 ok" true (holds ~c:1 ~c0:0);
  Alcotest.(check bool) "c=0,c0=0 ok" true (holds ~c:0 ~c0:0);
  Alcotest.(check bool) "c=-1,c0=10 ok" true (holds ~c:(-1) ~c0:10);
  Alcotest.(check bool) "c=-1,c0=9 rejected" false (holds ~c:(-1) ~c0:9);
  Alcotest.(check bool) "c=0,c0=-1 rejected" false (holds ~c:0 ~c0:(-1))

let test_farkas_equality_constraint () =
  (* On { x = y }, delta = c1*x - c2*y is nonnegative iff c1 = c2 (taking
     both signs of the line into account). *)
  let p =
    Polyhedron.of_constraints
      [ Constr.eq (Linexpr.var "x") (Linexpr.var "y");
        Constr.lower_bound "x" 0; Constr.upper_bound "x" 5;
        Constr.lower_bound "y" 0; Constr.upper_bound "y" 5 ]
  in
  let coef_of v =
    if v = "x" then Linexpr.var "c1" else Linexpr.neg (Linexpr.var "c2")
  in
  let cs = Farkas.nonneg_on ~coef_of ~const:Linexpr.zero p in
  let holds ~c1 ~c2 =
    let env v = if v = "c1" then Q.of_int c1 else if v = "c2" then Q.of_int c2 else Q.zero in
    List.for_all (Constr.holds env) cs
  in
  Alcotest.(check bool) "equal ok" true (holds ~c1:3 ~c2:3);
  Alcotest.(check bool) "c1>c2 ok (x=y>=0)" true (holds ~c1:3 ~c2:2);
  Alcotest.(check bool) "c1<c2 rejected" false (holds ~c1:2 ~c2:3)

(* Multiplier names are numbered per call, so the system a relation gives
   does not depend on the calls made before it, in this domain or in
   another one running concurrently (as pool workers do under --jobs). *)
let test_farkas_call_independent () =
  let k = Ops.Classics.fig2 () in
  let rels =
    List.map (fun (d : Deps.Dependence.t) -> d.rel) (Deps.Analysis.dependences k)
  in
  let system p =
    let coef_of v = Linexpr.var ("c_" ^ v) in
    List.map Constr.to_string (Farkas.nonneg_on ~coef_of ~const:(Linexpr.var "c0") p)
  in
  let first = List.map system rels in
  let others = Domain.spawn (fun () -> List.init 20 (fun _ -> List.map system rels)) in
  let again = List.map system (List.rev rels) |> List.rev in
  Alcotest.(check (list (list string))) "same systems after other calls" first again;
  List.iter
    (Alcotest.(check (list (list string))) "same systems in another domain" first)
    (Domain.join others)

(* ------------------------------------------------------------------ *)
(* Influence trees                                                      *)
(* ------------------------------------------------------------------ *)

let test_influence_tree_shape () =
  let leaf = Influence.node ~label:"leaf" ~payload:[ ("k", "v") ] [] in
  let t =
    [ Influence.node ~label:"a" [] ~children:[ Influence.node [] ~children:[ leaf ] ];
      Influence.node ~label:"b" [] ]
  in
  Alcotest.(check int) "depth" 3 (Influence.depth t);
  Alcotest.(check int) "size" 4 (Influence.size t);
  Alcotest.(check int) "leaves" 2 (List.length (Influence.leaves t));
  Alcotest.(check bool) "pp nonempty" true (String.length (Influence.to_string t) > 0);
  Alcotest.(check int) "empty depth" 0 (Influence.depth Influence.empty)

let test_space_roundtrip () =
  let v = Space.coef_var ~stmt:"S0" ~dim:3 (Space.Iter "i0") in
  Alcotest.(check bool) "roundtrip iter" true
    (Space.parse_coef_var v = Some ("S0", 3, Space.Iter "i0"));
  let c = Space.coef_var ~stmt:"X" ~dim:0 Space.Const in
  Alcotest.(check bool) "roundtrip const" true
    (Space.parse_coef_var c = Some ("X", 0, Space.Const));
  Alcotest.(check bool) "garbage" true (Space.parse_coef_var "nonsense" = None)

(* Every dimension ILP minimizes w, then the constant sum, then the
   loop-order tie-break: no objective is a constant, so no lexmin stage is
   paid for nothing. *)
let test_objectives_three () =
  let stmts = (Ops.Classics.fig2 ()).Ir.Kernel.stmts in
  let objs = Builders.objectives ~dim:0 ~stmts in
  Alcotest.(check int) "three objectives" 3 (List.length objs);
  Alcotest.(check bool) "none constant" false (List.exists Linexpr.is_const objs)

(* Influence.select reorders and subsets the root branches; the bench
   ablations cut the vectorizer's tree with it. *)
let test_influence_select () =
  let tree = Vectorizer.Treegen.influence_for (Ops.Classics.fig2 ()) in
  let n = List.length tree in
  Alcotest.(check bool) "fig2 has branches" true (n >= 2);
  Alcotest.(check int)
    "identity order keeps everything" n
    (List.length (Influence.select (List.init n Fun.id) tree));
  Alcotest.(check int) "subset keeps one" 1 (List.length (Influence.select [ 0 ] tree));
  Alcotest.(check int)
    "out-of-range and repeats ignored" 1
    (List.length (Influence.select [ 99; 0; 0; -1 ] tree));
  Alcotest.(check int)
    "empty selection empties the tree" 0
    (List.length (Influence.select [] tree))

(* ------------------------------------------------------------------ *)
(* Baseline scheduling                                                  *)
(* ------------------------------------------------------------------ *)

let test_baseline_fig2 () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched, stats = schedule k in
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check int) "4 dims" 4 (Schedule.dims sched);
  (* isl-like shape: fused parallel i, SCC split, X:k || Y:j, then Y:k.
     Y's loop order stays i, j, k: the D[k][i][j] access is innermost-strided
     (the defect the paper's Fig. 2(b) shows). *)
  check_expr "dim0 X" sched ~dim:0 ~stmt:"X" "iX";
  check_expr "dim0 Y" sched ~dim:0 ~stmt:"Y" "iY";
  check_expr "dim2 Y" sched ~dim:2 ~stmt:"Y" "jY";
  check_expr "dim3 Y" sched ~dim:3 ~stmt:"Y" "kY";
  Alcotest.(check int) "one scalar dim" 1 stats.scalar_dims;
  Alcotest.(check int) "one scc separation" 1 stats.scc_separations;
  (match (List.nth sched.rows 0).kind with
   | Schedule.Loop { coincident } -> Alcotest.(check bool) "dim0 parallel" true coincident
   | Schedule.Scalar -> Alcotest.fail "dim0 should be a loop");
  (match (List.nth sched.rows 3).kind with
   | Schedule.Loop { coincident } -> Alcotest.(check bool) "dim3 sequential" false coincident
   | Schedule.Scalar -> Alcotest.fail "dim3 should be a loop")

let test_baseline_elementwise_fuses () =
  let k = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:8 ~m:16 () in
  let sched, stats = schedule k in
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check int) "3 dims" 3 (Schedule.dims sched);
  (* the statement interleave is the only separation, after both loop dims *)
  Alcotest.(check int) "one scc separation" 1 stats.scc_separations;
  (* both loop dims coincident, statements interleaved by a scalar dim *)
  List.iteri
    (fun i (row : Schedule.row) ->
      match row.kind with
      | Schedule.Loop { coincident } ->
        Alcotest.(check bool) (Printf.sprintf "dim%d parallel" i) true coincident
      | Schedule.Scalar -> ())
    sched.rows;
  Alcotest.(check bool) "last dim scalar" true
    ((List.nth sched.rows 2).kind = Schedule.Scalar)

let test_baseline_reduction () =
  let k = Ops.Classics.reduce_2d ~n:8 ~m:8 () in
  let sched, _ = schedule k in
  Alcotest.(check bool) "legal" true (legal k sched);
  check_expr "dim0 i" sched ~dim:0 ~stmt:"R" "i";
  check_expr "dim1 j" sched ~dim:1 ~stmt:"R" "j";
  (match (List.nth sched.rows 0).kind with
   | Schedule.Loop { coincident } -> Alcotest.(check bool) "i parallel" true coincident
   | Schedule.Scalar -> Alcotest.fail "loop expected");
  match (List.nth sched.rows 1).kind with
  | Schedule.Loop { coincident } -> Alcotest.(check bool) "j sequential" false coincident
  | Schedule.Scalar -> Alcotest.fail "loop expected"

let test_baseline_transpose_identity () =
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let sched, _ = schedule k in
  Alcotest.(check bool) "legal" true (legal k sched);
  (* no dependences: isl-like baseline keeps the original order *)
  check_expr "dim0" sched ~dim:0 ~stmt:"T" "i";
  check_expr "dim1" sched ~dim:1 ~stmt:"T" "j";
  List.iter
    (fun (row : Schedule.row) ->
      match row.kind with
      | Schedule.Loop { coincident } -> Alcotest.(check bool) "parallel" true coincident
      | Schedule.Scalar -> Alcotest.fail "no scalar dims expected")
    sched.rows

let test_all_classics_legal () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let sched, _ = schedule k in
      Alcotest.(check bool) (name ^ " legal") true (legal k sched))
    Ops.Classics.all_small

(* ------------------------------------------------------------------ *)
(* Influenced scheduling                                                *)
(* ------------------------------------------------------------------ *)

let fig3_like_tree () =
  let same dim =
    [ Constr.eq (cv ~stmt:"X" ~dim "iX") (cv ~stmt:"Y" ~dim "iY");
      Constr.eq (cv ~stmt:"X" ~dim "kX") (cv ~stmt:"Y" ~dim "kY");
      Constr.eq0 (cv ~stmt:"Y" ~dim "jY")
    ]
  in
  let vec_last =
    [ Constr.eq (cv ~stmt:"Y" ~dim:2 "jY") (Linexpr.const_int 1);
      Constr.eq0 (cv ~stmt:"Y" ~dim:2 "iY");
      Constr.eq0 (cv ~stmt:"Y" ~dim:2 "kY")
    ]
  in
  let leaf = Influence.node ~label:"vec j" ~payload:[ ("vec", "Y@2") ] vec_last in
  [ Influence.node ~label:"fuse d0" (same 0)
      ~children:[ Influence.node ~label:"fuse d1" (same 1) ~children:[ leaf ] ];
    Influence.node ~label:"relaxed d0" [ Constr.eq0 (cv ~stmt:"Y" ~dim:0 "jY") ]
      ~children:
        [ Influence.node ~label:"relaxed d1" [ Constr.eq0 (cv ~stmt:"Y" ~dim:1 "jY") ]
            ~children:[ leaf ]
        ]
  ]

let test_influenced_fig2_matches_paper () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let sched, stats = schedule ~influence:(fig3_like_tree ()) k in
  Alcotest.(check bool) "legal" true (legal k sched);
  (* the desired Fig. 2(c) shape: X and Y fused on (i, k), Y innermost j *)
  check_expr "dim0 X" sched ~dim:0 ~stmt:"X" "iX";
  check_expr "dim0 Y" sched ~dim:0 ~stmt:"Y" "iY";
  check_expr "dim1 X" sched ~dim:1 ~stmt:"X" "kX";
  check_expr "dim1 Y" sched ~dim:1 ~stmt:"Y" "kY";
  check_expr "dim2 Y" sched ~dim:2 ~stmt:"Y" "jY";
  Alcotest.(check (option string)) "annotation" (Some "Y@2") (Schedule.annotation sched "vec");
  Alcotest.(check bool) "no abandon" false stats.influence_abandoned;
  Alcotest.(check int) "no sibling move" 0 stats.sibling_moves

let test_influence_sibling_fallback () =
  (* First branch is impossible (coefficient of iX both 0 and the only
     non-zero choice at dim 0 under progression forces it elsewhere);
     the scheduler must fall back to the second branch. *)
  let k = Ops.Classics.fig2 ~n:8 () in
  let impossible =
    Influence.node ~label:"impossible"
      [ Constr.eq0 (cv ~stmt:"X" ~dim:0 "iX"); Constr.eq0 (cv ~stmt:"X" ~dim:0 "kX") ]
  in
  let ok = Influence.node ~label:"ok" ~payload:[ ("took", "second") ] [] in
  let sched, stats = schedule ~influence:[ impossible; ok ] k in
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check (option string)) "second branch used" (Some "second")
    (Schedule.annotation sched "took");
  Alcotest.(check bool) "sibling move counted" true (stats.sibling_moves >= 1)

let test_influence_abandon () =
  (* Every branch impossible: scheduler runs uninfluenced, like the
     baseline. *)
  let k = Ops.Classics.fig2 ~n:8 () in
  let impossible label =
    Influence.node ~label
      [ Constr.eq0 (cv ~stmt:"X" ~dim:0 "iX"); Constr.eq0 (cv ~stmt:"X" ~dim:0 "kX") ]
  in
  let sched, stats = schedule ~influence:[ impossible "a"; impossible "b" ] k in
  let base, _ = schedule k in
  Alcotest.(check bool) "abandoned" true stats.influence_abandoned;
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check string) "same as baseline" (Schedule.to_string base)
    (Schedule.to_string sched)

let test_influence_require_parallel () =
  (* A node requiring a parallel dimension whose constraints force the
     reduction iterator into dim 0 cannot be honoured; its sibling must be
     taken. *)
  let k = Ops.Classics.reduce_2d ~n:8 ~m:8 () in
  let forced_j =
    Influence.node ~label:"j outer, parallel" ~require_parallel:true
      [ Constr.eq (cv ~stmt:"R" ~dim:0 "j") (Linexpr.const_int 1);
        Constr.eq0 (cv ~stmt:"R" ~dim:0 "i")
      ]
  in
  let fallback = Influence.node ~label:"fallback" ~payload:[ ("fb", "1") ] [] in
  let sched, _ = schedule ~influence:[ forced_j; fallback ] k in
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check (option string)) "fallback used" (Some "1") (Schedule.annotation sched "fb");
  check_expr "dim0 i" sched ~dim:0 ~stmt:"R" "i"

let test_influence_ancestor_backtrack () =
  (* Root A is satisfiable at dim 0 but its only child is impossible at
     dim 1 and A has a sibling B: the scheduler must backtrack above A. *)
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let impossible_child =
    Influence.node ~label:"impossible child"
      [ Constr.eq0 (cv ~stmt:"T" ~dim:1 "i"); Constr.eq0 (cv ~stmt:"T" ~dim:1 "j") ]
  in
  let a =
    Influence.node ~label:"A"
      [ Constr.eq (cv ~stmt:"T" ~dim:0 "j") (Linexpr.const_int 1);
        Constr.eq0 (cv ~stmt:"T" ~dim:0 "i")
      ]
      ~children:[ impossible_child ]
  in
  let b = Influence.node ~label:"B" ~payload:[ ("branch", "B") ] [] in
  let sched, stats = schedule ~influence:[ a; b ] k in
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check bool) "backtracked" true (stats.ancestor_backtracks >= 1);
  Alcotest.(check (option string)) "branch B" (Some "B") (Schedule.annotation sched "branch");
  (* the dim 0 computed under A must have been withdrawn *)
  check_expr "dim0 back to i" sched ~dim:0 ~stmt:"T" "i"

let test_ilp_cache_hits_on_abandon () =
  (* A no-op root whose only child is impossible at dim 1: the tree is
     abandoned and the whole construction restarts uninfluenced.  The
     restarted dimensions assemble exactly the ILPs already solved under
     the no-op root, so inside a scope the ILP table must answer them. *)
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let impossible_child =
    Influence.node ~label:"impossible child"
      [ Constr.eq0 (cv ~stmt:"T" ~dim:1 "i"); Constr.eq0 (cv ~stmt:"T" ~dim:1 "j") ]
  in
  let root = Influence.node ~label:"noop root" [] ~children:[ impossible_child ] in
  let hits_before = Obs.Counters.find "scheduler.ilp_cache_hits" in
  let sched, stats =
    Polyhedra.Solver_memo.scoped (fun () -> Scheduler.schedule ~influence:[ root ] k)
  in
  let hits = Obs.Counters.find "scheduler.ilp_cache_hits" - hits_before in
  Alcotest.(check bool) "abandoned" true stats.influence_abandoned;
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check bool) "re-solves answered from cache" true (hits >= 1)

(* ------------------------------------------------------------------ *)
(* the solver memo                                                      *)
(* ------------------------------------------------------------------ *)

(* The Farkas key carries the coefficient template: the same relation at
   another dimension is another entry, over that dimension's
   coefficient variables, and only an exact repeat is a hit. *)
let test_memo_farkas_per_dim () =
  let k = Ops.Classics.fig2 () in
  let dep = List.hd (Deps.Analysis.dependences k) in
  let ds = Builders.init_dep_state k dep in
  let nonneg_on = Scheduler.nonneg_on in
  let hits () = Obs.Counters.find "scheduler.farkas_memo_hits" in
  let system ?(nonneg_on = Farkas.nonneg_on) dim =
    List.map Constr.to_string (Builders.validity ~nonneg_on ~dim ds)
  in
  let dims_of dim =
    Builders.validity ~nonneg_on ~dim ds
    |> List.concat_map Constr.vars
    |> List.filter_map (fun v ->
           Option.map (fun (_, d, _) -> d) (Space.parse_coef_var v))
    |> List.sort_uniq compare
  in
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let dim0 = system ~nonneg_on 0 in
  let h = hits () in
  let dim1 = system ~nonneg_on 1 in
  Alcotest.(check int) "dim 1 is not answered by dim 0" h (hits ());
  Alcotest.(check (list string)) "dim 0 = unmemoized" (system 0) dim0;
  Alcotest.(check (list string)) "dim 1 = unmemoized" (system 1) dim1;
  Alcotest.(check (list int)) "dim 0 coefficients" [ 0 ] (dims_of 0);
  Alcotest.(check (list int)) "dim 1 coefficients" [ 1 ] (dims_of 1);
  let h = hits () in
  ignore (system ~nonneg_on 0);
  Alcotest.(check int) "an exact repeat is a hit" (h + 1) (hits ())

(* An ILP that ran out of branch-and-bound nodes is memoized under its
   own budget: a full-budget schedule in the same scope afterwards is the
   one a fresh scope gives.  Every classic's ILPs close at their root
   node, so a one-node budget changes nothing; a zero-node one fails
   every solve. *)
let test_memo_node_budget () =
  let k = Ops.Classics.fig2 () in
  let influence = Vectorizer.Treegen.influence_for k in
  let config = { Scheduler.default_config with strategy = `Ilp_only } in
  let rows max_ilp_nodes =
    match Scheduler.schedule ~config:{ config with max_ilp_nodes } ~influence k with
    | s, _ -> Some (Schedule.to_string s)
    | exception Scheduler.Failure_no_schedule _ -> None
  in
  let full = config.max_ilp_nodes in
  let fresh = Solver_memo.scoped (fun () -> rows full) in
  Alcotest.(check bool) "a zero-node budget fails the solves" true
    (Solver_memo.scoped (fun () -> rows 0) <> fresh);
  List.iter
    (fun budget ->
      Polyhedra.Solver_memo.scoped @@ fun () ->
      ignore (rows budget);
      Alcotest.(check (option string))
        (Printf.sprintf "full budget after a %d-node one" budget)
        fresh (rows full))
    [ 1; 0 ]

(* The ILP key holds the objectives: an influence node that only adds an
   objective poses the baseline's constraints with another lexicographic
   order, and must not be answered by the baseline's solve. *)
let test_memo_objectives () =
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let config = { Scheduler.default_config with strategy = `Ilp_only } in
  let j_outer =
    Influence.node ~label:"i last" ~objectives:[ (0, cv ~stmt:"T" ~dim:0 "i") ] []
  in
  let rows influence = Schedule.to_string (fst (Scheduler.schedule ~config ~influence k)) in
  let fresh = rows [ j_outer ] in
  Alcotest.(check bool) "the objective changes the schedule" true (fresh <> rows []);
  Polyhedra.Solver_memo.scoped @@ fun () ->
  ignore (rows []);
  Alcotest.(check string) "objective-only node after the baseline" fresh (rows [ j_outer ])

let test_softmax_pivot_budget () =
  (* Softmax's infl tree is infeasible at the root of every branch, so
     Algorithm 1 tries each one and abandons the tree.  The failed ILPs
     are screened by the slack-started phase 1 instead of paying a full
     all-artificial Bland phase 1 each; pivot counts repeat exactly, so
     the budget is deterministic (the all-artificial roots took 16,663). *)
  let pivots_before = Obs.Counters.find "simplex.pivots" in
  let r = Harness.Eval.evaluate_op ~name:"softmax" (Ops.Classics.softmax ()) in
  let pivots = Obs.Counters.find "simplex.pivots" - pivots_before in
  Alcotest.(check bool) "infl abandoned" true (Option.get r.obs).infl.influence_abandoned;
  Alcotest.(check bool)
    (Printf.sprintf "softmax pivots (%d) within 5000" pivots)
    true (pivots <= 5000)

(* Softmax's and layernorm_chain's infl trees are infeasible at every
   branch.  The fast path's candidate for each failed dimension breaks a
   named dependence, and the LP of that dependence's subsystem proves 9 of
   the 11 fallbacks infeasible before the dimension ILP is built.  The
   schedules are the exact ILP's, which never screens. *)
let test_screen_infeasible_branches () =
  (* parallel rows, then the statements in program order, then the
     sequential rows: statement [n] iterates over [i<n>] and [j<n>] *)
  let expected name stmts =
    let row f = String.concat "  " (List.mapi (fun n s -> s ^ ": " ^ f n) stmts) in
    String.concat "\n"
      [ "schedule of " ^ name ^ ":";
        "  dim 0 [loop(parallel)]: " ^ row (Printf.sprintf "i%d");
        "  dim 1 [scalar]: " ^ row string_of_int;
        "  dim 2 [loop]: " ^ row (Printf.sprintf "j%d");
        ""
      ]
  in
  List.iter
    (fun (name, mk, stmts) ->
      let k = mk () in
      let influence = Vectorizer.Treegen.influence_for k in
      let run strategy =
        Solver_memo.scoped (fun () ->
            Scheduler.schedule
              ~config:{ Scheduler.default_config with strategy }
              ~influence k)
      in
      let sched, stats = run `Fastpath_then_ilp in
      let exact, exact_stats = run `Ilp_only in
      Alcotest.(check string) (name ^ ": schedule") (expected name stmts)
        (Schedule.to_string sched);
      Alcotest.(check string)
        (name ^ ": the exact ILP's schedule")
        (Schedule.to_string exact) (Schedule.to_string sched);
      Alcotest.(check bool) (name ^ ": abandoned") true stats.influence_abandoned;
      Alcotest.(check int) (name ^ ": ILP fallbacks") 11 stats.ilp_solves;
      Alcotest.(check int) (name ^ ": screened") 9 stats.screened;
      Alcotest.(check int) (name ^ ": ilp-only never screens") 0 exact_stats.screened)
    [ ("softmax", (fun () -> Ops.Classics.softmax ()), [ "Smax"; "Sexp"; "Ssum"; "Sdiv" ]);
      ( "layernorm_chain",
        (fun () -> Ops.Classics.layernorm_chain ()),
        [ "Lsum"; "Lcent"; "Lout" ] )
    ]

(* With one live dependence the screen's subsystem is nearly the whole
   validity system, so it is not asked.  Here the node pins the first
   row's [i] coefficient to 0: the fast path's candidate [j] breaks the
   only dependence (distance (1, -1)), and the ILP proves the node
   infeasible itself. *)
let test_screen_skips_single_dependence () =
  let n = 8 in
  let s =
    let open Ir in
    Stmt.make ~name:"S" ~iters:[ "i"; "j" ]
      ~domain:(Build.rect_from [ ("i", 1, n - 1); ("j", 0, n - 2) ])
      ~write:(Build.access "A" [ "i"; "j" ])
      ~rhs:
        Expr.Infix.(
          Expr.load (Build.access_e "A" [ Build.idx_plus "i" (-1); Build.idx_plus "j" 1 ])
          + Expr.const 1.0)
  in
  let k =
    Ir.Build.kernel "skew_recurrence" ~tensors:[ Ir.Build.tensor "A" [ n; n ] ] ~stmts:[ s ]
  in
  let no_i =
    Influence.node ~label:"no i at dim 0" [ Constr.eq0 (cv ~stmt:"S" ~dim:0 "i") ]
  in
  let ok = Influence.node ~label:"ok" ~payload:[ ("took", "second") ] [] in
  let sched, stats = schedule ~influence:[ no_i; ok ] k in
  Alcotest.(check int) "one dependence" 1 (List.length (Deps.Analysis.dependences k));
  Alcotest.(check bool) "legal" true (legal k sched);
  Alcotest.(check (option string)) "second branch used" (Some "second")
    (Schedule.annotation sched "took");
  Alcotest.(check bool) "the fast path's candidate broke the dependence" true
    (stats.fastpath_validity_rejects >= 1);
  Alcotest.(check int) "never screened" 0 stats.screened

let test_influence_loop_interchange () =
  (* Influence can force an interchange the baseline would not do. *)
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let interchanged =
    Influence.node ~label:"j outer"
      [ Constr.eq (cv ~stmt:"T" ~dim:0 "j") (Linexpr.const_int 1);
        Constr.eq0 (cv ~stmt:"T" ~dim:0 "i")
      ]
  in
  let sched, _ = schedule ~influence:[ interchanged ] k in
  Alcotest.(check bool) "legal" true (legal k sched);
  check_expr "dim0 j" sched ~dim:0 ~stmt:"T" "j";
  check_expr "dim1 i" sched ~dim:1 ~stmt:"T" "i"

(* Property: random influence trees never produce an illegal schedule —
   the constraints are honoured, or a fallback fires, or influence is
   abandoned; in every case all dependences are respected. *)
let random_tree_gen =
  QCheck2.Gen.(
    let constr =
      map3
        (fun stmt_pick it_pick (dim, c) ->
          let stmt, iters =
            if stmt_pick then ("X", [ "iX"; "kX" ]) else ("Y", [ "iY"; "jY"; "kY" ])
          in
          let it = List.nth iters (it_pick mod List.length iters) in
          Constr.eq (cv ~stmt ~dim it) (Linexpr.const_int c))
        bool (int_range 0 2)
        (pair (int_range 0 2) (int_range 0 2))
    in
    let node_gen = list_size (int_range 0 2) constr in
    list_size (int_range 1 3) node_gen
    >|= List.map (fun cs ->
            Influence.node ~label:"fuzz"
              ~children:[ Influence.node ~label:"leaf" [] ]
              cs))

let prop_random_influence_always_legal =
  QCheck2.Test.make ~name:"random influence trees yield legal schedules" ~count:15
    random_tree_gen
    (fun tree ->
      let k = Ops.Classics.fig2 ~n:8 () in
      (* constraints at depth > 0 may mention dimensions the construction
         has not reached yet only through the tree structure; the generator
         above places every constraint at the root, so clamp depths the
         scheduler would reject *)
      let tree =
        List.map
          (fun (n : Influence.node) ->
            { n with
              Influence.constrs =
                List.filter
                  (fun c ->
                    List.for_all
                      (fun v ->
                        match Space.parse_coef_var v with
                        | Some (_, d, _) -> d = 0
                        | None -> true)
                      (Constr.vars c))
                  n.Influence.constrs
            })
          tree
      in
      let sched, _ = schedule ~influence:tree k in
      legal k sched)

let test_legality_oracle_rejects () =
  (* Hand-build an illegal schedule for the reduction: reversing j breaks
     the accumulation order. *)
  let k = Ops.Classics.reduce_2d ~n:8 ~m:8 () in
  let rows =
    [ { Schedule.kind = Schedule.Loop { coincident = true };
        exprs = [ ("R", Linexpr.var "i") ] };
      { Schedule.kind = Schedule.Loop { coincident = false };
        exprs = [ ("R", Linexpr.scale (Q.of_int (-1)) (Linexpr.var "j")) ] }
    ]
  in
  let bad =
    { Schedule.kernel_name = "bad"; stmt_names = [ "R" ]; rows; annotations = [] }
  in
  Alcotest.(check bool) "reversed reduction illegal" false
    (Legality.is_legal bad k (Deps.Analysis.dependences k))

(* ------------------------------------------------------------------ *)
(* negative legality: hand-built illegal schedules the oracle must
   reject (the fuzzer's oracle is only trustworthy if it can say no)    *)
(* ------------------------------------------------------------------ *)

(* S1: T[i] = inp[i];  S2: out[j] = T[j + shift] — a flow dependence
   S1(j + shift) -> S2(j) that a schedule must strongly satisfy. *)
let producer_consumer ?(shift = 0) ~n () =
  let open Ir in
  Build.kernel "pc"
    ~tensors:
      [ Build.tensor "inp" [ n + shift ]; Build.tensor "T" [ n + shift ];
        Build.tensor "out" [ n ]
      ]
    ~stmts:
      [ Build.stmt "S1"
          ~iters:[ ("i", n + shift) ]
          ~write:(Build.access "T" [ "i" ])
          ~rhs:(Expr.Load (Build.access "inp" [ "i" ]));
        Build.stmt "S2"
          ~iters:[ ("j", n) ]
          ~write:(Build.access "out" [ "j" ])
          ~rhs:(Expr.Load (Build.access_e "T" [ Build.idx_plus "j" shift ]))
      ]

let pc_schedule ~scalar1 ~scalar2 ~e1 ~e2 =
  { Schedule.kernel_name = "pc";
    stmt_names = [ "S1"; "S2" ];
    rows =
      [ { Schedule.kind = Schedule.Loop { coincident = false };
          exprs = [ ("S1", e1); ("S2", e2) ] };
        { Schedule.kind = Schedule.Scalar;
          exprs =
            [ ("S1", Linexpr.const_int scalar1); ("S2", Linexpr.const_int scalar2) ]
        }
      ];
    annotations = []
  }

let test_legality_rejects_reversed_dependence () =
  (* reader textually before its writer at every shared date *)
  let k = producer_consumer ~n:8 () in
  let bad =
    pc_schedule ~scalar1:1 ~scalar2:0 ~e1:(Linexpr.var "i") ~e2:(Linexpr.var "j")
  in
  Alcotest.(check bool) "consumer scheduled first is illegal" false
    (Legality.is_legal bad k (Deps.Analysis.dependences k));
  match Legality.check bad k (Deps.Analysis.dependences k) with
  | Ok () -> Alcotest.fail "check accepted a reversed dependence"
  | Error msg -> Alcotest.(check bool) "diagnostic names a dependence" true (msg <> "")

let test_legality_rejects_fused_beyond_validity () =
  (* With S2 reading T[j+1], plain fusion at equal dates makes the source
     instance S1(j+1) run after its consumer S2(j); shifting the consumer
     by one restores legality — the oracle must tell these apart. *)
  let k = producer_consumer ~shift:1 ~n:8 () in
  let deps = Deps.Analysis.dependences k in
  let fused =
    pc_schedule ~scalar1:0 ~scalar2:1 ~e1:(Linexpr.var "i") ~e2:(Linexpr.var "j")
  in
  Alcotest.(check bool) "fusion across a +1 shift is illegal" false
    (Legality.is_legal fused k deps);
  let shifted =
    pc_schedule ~scalar1:0 ~scalar2:1 ~e1:(Linexpr.var "i")
      ~e2:(Linexpr.add (Linexpr.var "j") (Linexpr.const_int 1))
  in
  Alcotest.(check bool) "shifted fusion is legal" true (Legality.is_legal shifted k deps)

let test_legality_rejects_never_separated () =
  (* identical dates for dependent statements: the dependence is never
     strongly satisfied even though it is never reversed either *)
  let k = producer_consumer ~n:8 () in
  let bad =
    pc_schedule ~scalar1:0 ~scalar2:0 ~e1:(Linexpr.var "i") ~e2:(Linexpr.var "j")
  in
  Alcotest.(check bool) "coincident dependent dates are illegal" false
    (Legality.is_legal bad k (Deps.Analysis.dependences k))

let () =
  Alcotest.run "scheduling"
    [ ( "farkas",
        [ Alcotest.test_case "interval" `Quick test_farkas_interval;
          Alcotest.test_case "equality" `Quick test_farkas_equality_constraint;
          Alcotest.test_case "independent of earlier calls" `Quick
            test_farkas_call_independent
        ] );
      ( "influence-tree",
        [ Alcotest.test_case "shape" `Quick test_influence_tree_shape;
          Alcotest.test_case "space roundtrip" `Quick test_space_roundtrip;
          Alcotest.test_case "three objectives" `Quick test_objectives_three;
          Alcotest.test_case "select" `Quick test_influence_select
        ] );
      ( "baseline",
        [ Alcotest.test_case "fig2 isl-like" `Quick test_baseline_fig2;
          Alcotest.test_case "elementwise fuses" `Quick test_baseline_elementwise_fuses;
          Alcotest.test_case "reduction" `Quick test_baseline_reduction;
          Alcotest.test_case "transpose identity" `Quick test_baseline_transpose_identity;
          Alcotest.test_case "all classics legal" `Quick test_all_classics_legal
        ] );
      ( "influenced",
        [ Alcotest.test_case "fig2 matches paper" `Quick test_influenced_fig2_matches_paper;
          Alcotest.test_case "sibling fallback" `Quick test_influence_sibling_fallback;
          Alcotest.test_case "abandon" `Quick test_influence_abandon;
          Alcotest.test_case "require parallel" `Quick test_influence_require_parallel;
          Alcotest.test_case "ancestor backtrack" `Quick test_influence_ancestor_backtrack;
          Alcotest.test_case "ilp cache hits on abandon" `Quick
            test_ilp_cache_hits_on_abandon;
          Alcotest.test_case "memo: farkas per dimension" `Quick test_memo_farkas_per_dim;
          Alcotest.test_case "memo: node budget" `Quick test_memo_node_budget;
          Alcotest.test_case "memo: objectives" `Quick test_memo_objectives;
          Alcotest.test_case "softmax pivot budget" `Quick test_softmax_pivot_budget;
          Alcotest.test_case "screen: infeasible branches" `Quick
            test_screen_infeasible_branches;
          Alcotest.test_case "screen: one dependence is not screened" `Quick
            test_screen_skips_single_dependence;
          Alcotest.test_case "loop interchange" `Quick test_influence_loop_interchange;
          Alcotest.test_case "legality oracle rejects" `Quick test_legality_oracle_rejects
        ] );
      ( "legality-negative",
        [ Alcotest.test_case "reversed dependence" `Quick
            test_legality_rejects_reversed_dependence;
          Alcotest.test_case "fused beyond validity" `Quick
            test_legality_rejects_fused_beyond_validity;
          Alcotest.test_case "never strictly separated" `Quick
            test_legality_rejects_never_separated
        ] );
      ( "influence-fuzz",
        List.map QCheck_alcotest.to_alcotest [ prop_random_influence_always_legal ] )
    ]
