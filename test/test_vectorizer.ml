(* Tests for the non-linear optimizer: cost model (Section V), influenced
   dimension scenarios (Algorithm 2) and constraint-tree generation. *)

open Ir
open Vectorizer

let fig2 = Ops.Classics.fig2 ~n:8 ()
let y = Kernel.stmt fig2 "Y"
let x = Kernel.stmt fig2 "X"

let test_strides () =
  (* D[k][i][j] in an 8x8x8 tensor: stride 64 in k, 8 in i, 1 in j. *)
  let d_access = List.nth (Stmt.reads y) 2 in
  Alcotest.(check string) "access is D" "D" d_access.Access.tensor;
  Alcotest.(check int) "stride k" 64 (Costmodel.stride fig2 y d_access ~iter:"kY");
  Alcotest.(check int) "stride i" 8 (Costmodel.stride fig2 y d_access ~iter:"iY");
  Alcotest.(check int) "stride j" 1 (Costmodel.stride fig2 y d_access ~iter:"jY");
  (* C[i][j] is constant in k *)
  let c_access = y.Stmt.write in
  Alcotest.(check int) "stride C in k" 0 (Costmodel.stride fig2 y c_access ~iter:"kY")

let test_vector_width () =
  (* B[i][k] along k: contiguous, 8 % 4 = 0 -> width 4. *)
  Alcotest.(check int) "B along k" 4 (Costmodel.vector_width fig2 x ~iter:"kX" x.Stmt.write);
  (* B[i][k] along i: stride 8 -> not vectorizable. *)
  Alcotest.(check int) "B along i" 1 (Costmodel.vector_width fig2 x ~iter:"iX" x.Stmt.write);
  (* extent not divisible by 2: no vector type *)
  let k7 = Ops.Classics.fig2 ~n:7 () in
  let x7 = Kernel.stmt k7 "X" in
  Alcotest.(check int) "extent 7" 1 (Costmodel.vector_width k7 x7 ~iter:"kX" x7.Stmt.write);
  (* extent 6: float2 *)
  let k6 = Ops.Classics.fig2 ~n:6 () in
  let x6 = Kernel.stmt k6 "X" in
  Alcotest.(check int) "extent 6" 2 (Costmodel.vector_width k6 x6 ~iter:"kX" x6.Stmt.write)

let test_cost_prefers_contiguous_innermost () =
  let cost it = Costmodel.cost fig2 y ~iter:it ~innermost:true ~thread_budget:1024 in
  Alcotest.(check bool) "j beats k" true (cost "jY" > cost "kY");
  Alcotest.(check bool) "j beats i" true (cost "jY" > cost "iY")

let test_cost_write_priority () =
  (* For the pure transpose out[i][j] = a[j][i], innermost j vectorizes the
     store (w1 = 5) while innermost i vectorizes only the load (w2 = 3):
     the store must win. *)
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let t = Kernel.stmt k "T" in
  let cost it = Costmodel.cost k t ~iter:it ~innermost:true ~thread_budget:1024 in
  Alcotest.(check bool) "store side wins" true (cost "j" > cost "i");
  (* With inverted weights the load side would win. *)
  let w = { Costmodel.default_weights with w1 = 1.0; w2 = 5.0 } in
  let cost' it = Costmodel.cost ~weights:w k t ~iter:it ~innermost:true ~thread_budget:1024 in
  Alcotest.(check bool) "inverted weights flip" true (cost' "i" > cost' "j")

let render (w : Costmodel.weights) =
  let f x = if Float.is_integer x then string_of_int (int_of_float x) else Printf.sprintf "%g" x in
  Printf.sprintf "(%s)" (String.concat "," (List.map f [ w.w1; w.w2; w.w3; w.w4; w.w5 ]))

(* The paper's weight vector lives once, as Costmodel.default_weights:
   every consumer that takes optional weights defaults to it. *)
let test_weights_single_source () =
  let w = Costmodel.default_weights in
  Alcotest.(check string) "paper default" "(5,3,1,1,1)" (render w);
  List.iter
    (fun (s : Stmt.t) ->
      List.iter
        (fun iter ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "cost %s/%s defaults to the paper weights" s.Stmt.name iter)
            (Costmodel.cost ~weights:w fig2 s ~iter ~innermost:true ~thread_budget:1024)
            (Costmodel.cost fig2 s ~iter ~innermost:true ~thread_budget:1024))
        s.Stmt.iters)
    fig2.Kernel.stmts;
  Alcotest.(check string)
    "tree defaults to the paper weights"
    (Scheduling.Influence.to_string (Treegen.influence_for ~weights:w fig2))
    (Scheduling.Influence.to_string (Treegen.influence_for fig2))

(* The numbers the documentation quotes must be the numbers the code
   uses: EXPERIMENTS.md cites the paper default in its rendered form. *)
let test_docs_quote_default_weights () =
  (* ../ under dune runtest (cwd _build/default/test), ./ from the repo root *)
  let file = if Sys.file_exists "EXPERIMENTS.md" then "EXPERIMENTS.md" else "../EXPERIMENTS.md" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let quoted = render Costmodel.default_weights in
  let nt = String.length text and nq = String.length quoted in
  let rec found i = i + nq <= nt && (String.sub text i nq = quoted || found (i + 1)) in
  Alcotest.(check bool) ("EXPERIMENTS.md quotes " ^ quoted) true (found 0)

let test_scenarios_fig2 () =
  let sx = Option.get (Scenario.build fig2 x ~alternative:0) in
  let sy = Option.get (Scenario.build fig2 y ~alternative:0) in
  Alcotest.(check (list string)) "X dims" [ "iX"; "kX" ] sx.Scenario.dims;
  Alcotest.(check (list string)) "Y dims" [ "iY"; "kY"; "jY" ] sy.Scenario.dims;
  Alcotest.(check (option string)) "X vec" (Some "kX") sx.Scenario.vector_iter;
  Alcotest.(check (option string)) "Y vec" (Some "jY") sy.Scenario.vector_iter;
  Alcotest.(check int) "Y width" 4 sy.Scenario.vector_width

let test_scenario_alternatives () =
  let s0 = Option.get (Scenario.build fig2 y ~alternative:0) in
  let s1 = Option.get (Scenario.build fig2 y ~alternative:1) in
  Alcotest.(check bool) "different innermost" true
    (List.nth s0.Scenario.dims 2 <> List.nth s1.Scenario.dims 2);
  Alcotest.(check bool) "scores ordered" true (s0.Scenario.score >= s1.Scenario.score);
  Alcotest.(check bool) "no 4th alternative" true
    (Scenario.build fig2 y ~alternative:3 = None)

let test_tree_shape () =
  let t = Treegen.influence_for fig2 in
  Alcotest.(check bool) "at most 8 branches" true (List.length t <= 8);
  Alcotest.(check bool) "at least 2 branches" true (List.length t >= 2);
  Alcotest.(check int) "depth = max stmt dim" 3 (Scheduling.Influence.depth t);
  (* leaves carry vectorization payloads *)
  let leaves = Scheduling.Influence.leaves t in
  Alcotest.(check bool) "leaf has payload" true
    (List.exists
       (fun (n : Scheduling.Influence.node) ->
         List.exists
           (function Scheduling.Schedule.Vector v -> v.stmt = "Y" | _ -> false)
           n.payload)
       leaves)

let schedule ~influence k =
  Polyhedra.Solver_memo.scoped (fun () -> Scheduling.Scheduler.schedule ~influence k)

let test_influenced_schedule_fig2 () =
  (* The full pipeline: Algorithm 2 -> tree -> Algorithm 1 must produce the
     paper's Fig. 2(c) schedule. *)
  let infl = Treegen.influence_for fig2 in
  let sched, stats = schedule ~influence:infl fig2 in
  Alcotest.(check bool) "legal" true
    (Scheduling.Legality.is_legal sched fig2 (Deps.Analysis.dependences fig2));
  let e dim stmt = Polyhedra.Linexpr.to_string (Scheduling.Schedule.expr_for sched ~dim ~stmt) in
  Alcotest.(check string) "dim0 Y" "iY" (e 0 "Y");
  Alcotest.(check string) "dim1 Y" "kY" (e 1 "Y");
  Alcotest.(check string) "dim2 Y" "jY" (e 2 "Y");
  Alcotest.(check string) "dim1 X" "kX" (e 1 "X");
  Alcotest.(check bool) "vec Y" true
    (List.mem
       (Scheduling.Schedule.Vector { stmt = "Y"; iter = "jY"; width = 4 })
       sched.Scheduling.Schedule.annotations);
  Alcotest.(check bool) "not abandoned" false stats.influence_abandoned

let test_influenced_all_classics_legal () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let infl = Treegen.influence_for k in
      let sched, _ = schedule ~influence:infl k in
      Alcotest.(check bool) (name ^ " influenced legal") true
        (Scheduling.Legality.is_legal sched k (Deps.Analysis.dependences k)))
    Ops.Classics.all_small

(* ------------------------------------------------------------------ *)
(* cost-model properties over fuzz-generated kernels                    *)
(* ------------------------------------------------------------------ *)

(* Random structurally-valid kernels from the fuzzer's generator; [None]
   when the drawn case does not convert (the property then holds
   vacuously — conversion failures are the fuzzer's own concern). *)
let random_fuzz_kernel_gen =
  QCheck2.Gen.(
    map
      (fun (seed, index) ->
        match Fuzz.Case.to_kernel (Fuzz.Generate.generate ~seed ~index ()) with
        | Ok k -> Some k
        | Error _ -> None)
      (pair (int_range 0 1_000_000) (int_range 0 1_000)))

let print_kernel_opt = function
  | None -> "<unconvertible case>"
  | Some k -> Format.asprintf "%a" Kernel.pp k

let prop_scenario_order_invariant =
  (* Algorithm 2 ranks dimensions per statement from accesses and tensor
     layout alone: reordering the kernel's statement list must not change
     any statement's best scenario. *)
  QCheck2.Test.make ~name:"scenario ranking invariant under statement reordering"
    ~count:30 ~print:print_kernel_opt random_fuzz_kernel_gen
    (fun ko ->
      match ko with
      | None -> true
      | Some k ->
        let rev =
          Kernel.make ~name:k.Kernel.name
            ~tensors:k.Kernel.tensors ~stmts:(List.rev k.Kernel.stmts) ()
        in
        List.for_all
          (fun (s : Stmt.t) ->
            match (Scenario.build k s ~alternative:0, Scenario.build rev s ~alternative:0) with
            | Some a, Some b ->
              a.Scenario.dims = b.Scenario.dims
              && a.Scenario.vector_iter = b.Scenario.vector_iter
              && a.Scenario.vector_width = b.Scenario.vector_width
            | None, None -> true
            | _ -> false)
          k.Kernel.stmts)

let prop_cost_monotone_in_w1 =
  (* The store-vectorization term is [w1 * |Vw|] with [|Vw| >= 0]: raising
     w1 can never lower an innermost score. *)
  QCheck2.Test.make ~name:"cost monotone in store weight w1" ~count:30
    ~print:(fun (ko, a, b) ->
      Printf.sprintf "%s w1a=%g w1b=%g" (print_kernel_opt ko) a b)
    QCheck2.Gen.(triple random_fuzz_kernel_gen (float_range 0. 10.) (float_range 0. 10.))
    (fun (ko, wa, wb) ->
      match ko with
      | None -> true
      | Some k ->
        let lo = Float.min wa wb and hi = Float.max wa wb in
        List.for_all
          (fun (s : Stmt.t) ->
            List.for_all
              (fun it ->
                let c w1 =
                  Costmodel.cost
                    ~weights:{ Costmodel.default_weights with Costmodel.w1 = w1 }
                    k s ~iter:it ~innermost:true ~thread_budget:1024
                in
                c hi >= c lo)
              s.Stmt.iters)
          k.Kernel.stmts)

let prop_vector_iter_accessible =
  (* A scenario claiming a vector width must have placed an actually
     vector-accessible iterator innermost, with the width the cost model
     assigns to it; a scenario without one must claim width 1. *)
  QCheck2.Test.make ~name:"vector iter is innermost and vector-accessible"
    ~count:50 ~print:print_kernel_opt random_fuzz_kernel_gen
    (fun ko ->
      match ko with
      | None -> true
      | Some k ->
        List.for_all
          (fun (s : Stmt.t) ->
            match Scenario.build k s ~alternative:0 with
            | None -> true
            | Some sc -> (
              match sc.Scenario.vector_iter with
              | None -> sc.Scenario.vector_width = 1
              | Some it ->
                (match List.rev sc.Scenario.dims with
                 | innermost :: _ -> innermost = it
                 | [] -> false)
                && sc.Scenario.vector_width >= 2
                && Costmodel.stmt_vector_width k s ~iter:it = sc.Scenario.vector_width))
          k.Kernel.stmts)

let () =
  Alcotest.run "vectorizer"
    [ ( "costmodel",
        [ Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "vector width" `Quick test_vector_width;
          Alcotest.test_case "contiguous innermost" `Quick test_cost_prefers_contiguous_innermost;
          Alcotest.test_case "write priority" `Quick test_cost_write_priority
        ] );
      ( "weights",
        [ Alcotest.test_case "single source of truth" `Quick test_weights_single_source;
          Alcotest.test_case "docs quote the default" `Quick test_docs_quote_default_weights
        ] );
      ( "scenario",
        [ Alcotest.test_case "fig2 scenarios" `Quick test_scenarios_fig2;
          Alcotest.test_case "alternatives" `Quick test_scenario_alternatives
        ] );
      ( "treegen",
        [ Alcotest.test_case "tree shape" `Quick test_tree_shape;
          Alcotest.test_case "influenced fig2" `Quick test_influenced_schedule_fig2;
          Alcotest.test_case "influenced classics legal" `Quick test_influenced_all_classics_legal
        ] );
      ( "costmodel-fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_scenario_order_invariant; prop_cost_monotone_in_w1;
            prop_vector_iter_accessible
          ] )
    ]
