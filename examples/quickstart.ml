(* Quickstart: build a fused operator with the Build DSL, schedule it with
   and without constraint injection, generate code, check semantics, and
   compare simulated GPU execution times.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A fused operator: scale then add, over a 256 x 512 tensor. *)
  let n, m = (256, 512) in
  let open Ir in
  let kernel =
    let open Expr.Infix in
    Build.kernel "quickstart"
      ~tensors:
        [ Build.tensor "input" [ n; m ];
          Build.tensor "scaled" [ n; m ];
          Build.tensor "output" [ n; m ]
        ]
      ~stmts:
        [ Build.stmt "Scale"
            ~iters:[ ("i0", n); ("j0", m) ]
            ~write:(Build.access "scaled" [ "i0"; "j0" ])
            ~rhs:(Expr.load (Build.access "input" [ "i0"; "j0" ]) * Expr.const 0.5);
          Build.stmt "Add"
            ~iters:[ ("i1", n); ("j1", m) ]
            ~write:(Build.access "output" [ "i1"; "j1" ])
            ~rhs:
              (Expr.load (Build.access "scaled" [ "i1"; "j1" ])
              + Expr.load (Build.access "input" [ "i1"; "j1" ]))
        ]
  in
  Format.printf "operator:@.%a@." Kernel.pp kernel;
  let module P = Harness.Pipeline in

  (* Steps 2 to 5 compile in one solver-memo scope, as [Harness.Eval.evaluate_op]
     does: the stages share one dependence analysis and their solver work. *)
  let baseline, influenced, compiled =
    Polyhedra.Solver_memo.scoped @@ fun () ->
    (* 2. Dependences: the producer/consumer flow on [scaled]. *)
    Format.printf "dependences:@.%a@." Deps.Analysis.pp_all (Deps.Analysis.dependences kernel);

    (* 3. Baseline (isl-like) schedule, through the pipeline's stages. *)
    let baseline, _, _ = P.schedule kernel in
    Format.printf "baseline schedule:@.%a@." Scheduling.Schedule.pp baseline;

    (* 4. The non-linear optimizer builds an influence constraint tree; the
          scheduler honours it. *)
    let tree = P.influence_with kernel in
    Format.printf "influence tree (%d branches):@.%a@." (List.length tree)
      Scheduling.Influence.pp tree;
    let influenced, stats, _ = P.schedule ~influence:tree kernel in
    Format.printf "influenced schedule:@.%a@." Scheduling.Schedule.pp influenced;
    Format.printf "scheduler stats: %d ILP solves, abandoned: %b@."
      stats.Scheduling.Scheduler.ilp_solves stats.influence_abandoned;

    (* 5. Lower to a mapped, vectorized AST and print CUDA-like code. *)
    let compiled = P.lower P.Infl influenced kernel in
    print_string (Codegen.Cuda.emit compiled);
    (baseline, influenced, compiled)
  in

  (* 6. Semantics, outside the scope: interpret original vs generated code. *)
  Format.printf "semantics: %s@."
    (if P.interpret kernel compiled = Ok () then "MATCH" else "MISMATCH");

  (* 7. Simulated execution times. *)
  let time version sched =
    Gpusim.Sim.time_us (P.simulate (P.lower version sched kernel))
  in
  let t_isl = time P.Isl baseline in
  let t_infl = time P.Infl influenced in
  Format.printf "simulated V100: isl %.2fus, influenced %.2fus (%.2fx)@."
    t_isl t_infl (t_isl /. t_infl)
