(* Tiling benchmark: simulated execution time of the untiled isl baseline
   vs. the tiling-influenced version for every StencilZoo operator, and
   writes the numbers to BENCH_PR9.json (schema akg-repro-bench-tiling).

   Usage:  dune exec bench/tiling_bench.exe [OUT.json]

   Both versions go through the ordinary pipeline: the baseline is the
   plain scheduler with unvectorized lowering, the tiled version injects
   Scheduling.Tiling's influence tree and lets the backend tiling pass
   consume the deposited tile_sizes annotation.  Every tiled schedule is
   legality-checked against the kernel's dependences; a violation count
   other than zero fails the benchmark's contract and is recorded in the
   output for the CI gate to reject.  DRAM traffic before and after rides
   along because it is the mechanism of any win: tiling trades DRAM bytes
   for on-chip reuse hits. *)

module J = Obs.Json

let out_file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR9.json"

type row = {
  op : string;
  untiled_us : float;
  tiled_us : float;
  speedup : float;
  tiled : bool;  (* the backend pass actually rewrote a chain *)
  legal : bool;
  untiled_dram_mb : float;
  tiled_dram_mb : float;
}

let machine = Gpusim.Machine.v100

let run version k =
  match Harness.Pipeline.run ~machine version k with
  | { sched; compiled; backend = Simulated report; _ } -> (sched, compiled, report)
  | { backend = Emitted _; _ } -> assert false

let bench_op (op, k) =
  let _, _, base = run Harness.Pipeline.Isl k in
  let tiled_sched, tiled_c, tiled_r = run Harness.Pipeline.Tiled k in
  let legal =
    match Scheduling.Legality.check tiled_sched k (Deps.Analysis.dependences k) with
    | Ok () -> true
    | Error _ -> false
  in
  let untiled_us = Gpusim.Sim.time_us base in
  let tiled_us = Gpusim.Sim.time_us tiled_r in
  { op;
    untiled_us;
    tiled_us;
    speedup = untiled_us /. tiled_us;
    tiled = Codegen.Tiling.applied tiled_c.Codegen.Compile.ast;
    legal;
    untiled_dram_mb = base.Gpusim.Sim.mem.Gpusim.Memsim.dram_bytes /. 1e6;
    tiled_dram_mb = tiled_r.Gpusim.Sim.mem.Gpusim.Memsim.dram_bytes /. 1e6
  }

let () =
  let ops = Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops in
  Printf.printf "tiling bench: %d ops (%s, machine %s)\n%!" (List.length ops)
    Ops.Networks.stencilzoo.Ops.Networks.name machine.Gpusim.Machine.name;
  let rows = List.map bench_op ops in
  List.iter
    (fun r ->
      Printf.printf
        "  %-24s untiled %9.2f us  tiled %9.2f us  %5.2fx  dram %7.1f -> %7.1f MB  %s%s\n%!"
        r.op r.untiled_us r.tiled_us r.speedup r.untiled_dram_mb r.tiled_dram_mb
        (if r.tiled then "tiled" else "untouched")
        (if r.legal then "" else "  LEGALITY VIOLATION"))
    rows;
  let violations = List.length (List.filter (fun r -> not r.legal) rows) in
  let tiled_rows = List.filter (fun r -> r.tiled) rows in
  let wins = List.length (List.filter (fun r -> r.speedup > 1.0) tiled_rows) in
  let best =
    List.fold_left (fun acc r -> if r.speedup > acc then r.speedup else acc) 0.0 rows
  in
  let geomean =
    match rows with
    | [] -> 1.0
    | _ ->
      exp
        (List.fold_left (fun s r -> s +. log r.speedup) 0.0 rows
        /. float_of_int (List.length rows))
  in
  Printf.printf
    "  %d/%d ops tiled, %d tiled wins, best %.2fx, geomean %.2fx, %d legality \
     violations\n\
     %!"
    (List.length tiled_rows) (List.length rows) wins best geomean violations;
  let doc =
    J.Assoc
      [ ("schema", J.String "akg-repro-bench-tiling");
        ("version", J.Int 1);
        ("machine", J.String machine.Gpusim.Machine.name);
        ("ops", J.Int (List.length rows));
        ("tiled_ops", J.Int (List.length tiled_rows));
        ("tiled_wins", J.Int wins);
        ("best_speedup", J.Float best);
        ("geomean_speedup", J.Float geomean);
        ("legality_violations", J.Int violations);
        ( "per_op",
          J.List
            (List.map
               (fun r ->
                 J.Assoc
                   [ ("op", J.String r.op);
                     ("untiled_us", J.Float r.untiled_us);
                     ("tiled_us", J.Float r.tiled_us);
                     ("speedup", J.Float r.speedup);
                     ("tiled", J.Bool r.tiled);
                     ("legal", J.Bool r.legal);
                     ("untiled_dram_mb", J.Float r.untiled_dram_mb);
                     ("tiled_dram_mb", J.Float r.tiled_dram_mb)
                   ])
               rows) )
      ]
  in
  let oc = open_out out_file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out_file;
  if violations > 0 || wins = 0 then exit 1
