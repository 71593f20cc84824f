(* The ResNet case: a layout permutation whose incoming loop order is
   hostile (the innermost loop strides every access).  The baseline
   scheduler has no access-pattern cost model and keeps the bad order; the
   non-linear optimizer reorders toward a unit-stride innermost dimension,
   prepares it for float4, and the mapping puts the strip on threadIdx.x:
   coalescing plus vector types — the largest speedups of Table II.

   Run with:  dune exec examples/resnet_transpose.exe *)

let () =
  let kernel = Ops.Classics.permute_outer_bad ~a:64 ~b:196 ~c:64 () in
  Format.printf "%a@." Ir.Kernel.pp kernel;

  let module P = Harness.Pipeline in
  (* each schedule is one solver-memo scope *)
  let schedule version kernel =
    Polyhedra.Solver_memo.scoped @@ fun () ->
    let sched, _, _ = P.schedule ?influence:(P.tree version kernel) kernel in
    sched
  in
  let show label version sched =
    let c = P.lower version sched kernel in
    let r = P.simulate c in
    Format.printf "@.--- %s ---@.%a@.%s" label Scheduling.Schedule.pp sched
      (Codegen.Cuda.emit c);
    Format.printf "simulated: %a@." Gpusim.Sim.pp r;
    Gpusim.Sim.time_us r
  in

  let t_isl = show "isl baseline (keeps the hostile order)" P.Isl (schedule P.Isl kernel) in

  let infl_sched = schedule P.Infl kernel in
  let t_novec = show "influenced, no vector types (novec)" P.Novec infl_sched in
  let t_infl = show "influenced + explicit float4 (infl)" P.Infl infl_sched in

  Format.printf "@.speedups over isl: novec %.2fx, infl %.2fx@."
    (t_isl /. t_novec) (t_isl /. t_infl);

  (* semantic validation at a small size *)
  let small = Ops.Classics.permute_outer_bad ~a:4 ~b:6 ~c:8 () in
  let c = P.lower ~vec_min_parallel:0 P.Infl (schedule P.Infl small) small in
  Format.printf "semantics (4x6x8): %s@."
    (if P.interpret small c = Ok () then "MATCH" else "MISMATCH")
