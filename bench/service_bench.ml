(* Compile-service benchmark: measures the worker pool's scaling and the
   persistent cache's warm-run speedup on the full Table II workload, and
   writes the numbers to BENCH_PR5.json (schema akg-repro-bench-service).

   Usage:  dune exec bench/service_bench.exe [OUT.json]

   All runs evaluate every network suite.  The parallel and warm runs are
   asserted bit-identical to the sequential cold run (same Table II text)
   before any timing is reported — a benchmark of a wrong answer is
   meaningless. *)

module J = Obs.Json

let out_file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR5.json"

let networks = Ops.Networks.all

let render results = Format.asprintf "%a" Harness.Tables.table2 results

let evaluate ?cache ~jobs () =
  List.map
    (fun (n : Ops.Networks.t) ->
      (n.Ops.Networks.name,
       Service.Batch.evaluate_suite ?cache ~jobs (Lazy.force n.Ops.Networks.ops)))
    networks

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let cores = Domain.recommended_domain_count () in
  let jobs_par = max 4 cores in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "akg_service_bench_%d" (Unix.getpid ()))
  in
  (* at_exit also runs when an assert below fails *)
  at_exit (fun () -> try remove_tree cache_dir with Sys_error _ -> ());
  let ops = List.fold_left (fun n (net : Ops.Networks.t) ->
      n + List.length (Lazy.force net.Ops.Networks.ops)) 0 networks in
  Printf.printf "service bench: %d ops across %d networks, %d cores\n%!" ops
    (List.length networks) cores;

  let seq, t_seq = timed (fun () -> evaluate ~jobs:1 ()) in
  Printf.printf "  sequential            %7.2f s\n%!" t_seq;

  (* the most domains one suite's map runs on, the caller included *)
  let workers =
    List.fold_left
      (fun w (net : Ops.Networks.t) ->
        max w
          (Service.Pool.workers ~jobs:jobs_par (List.length (Lazy.force net.Ops.Networks.ops))))
      1 networks
  in
  let par, t_par = timed (fun () -> evaluate ~jobs:jobs_par ()) in
  Printf.printf "  --jobs %-3d (%d workers) %6.2f s\n%!" jobs_par workers t_par;
  assert (render seq = render par);

  let cache = Service.Cache.open_ cache_dir in
  let hits0 = Obs.Counters.find "service.cache_hits" in
  let cold, t_cold = timed (fun () -> evaluate ~cache ~jobs:1 ()) in
  Printf.printf "  cold cache            %7.2f s\n%!" t_cold;
  assert (render seq = render cold);

  let solves0 = Obs.Counters.find "scheduler.ilp_solves" in
  let warm, t_warm = timed (fun () -> evaluate ~cache ~jobs:1 ()) in
  let warm_solves = Obs.Counters.find "scheduler.ilp_solves" - solves0 in
  let warm_hits = Obs.Counters.find "service.cache_hits" - hits0 in
  Printf.printf "  warm cache            %7.2f s  (%d hits, %d ILP solves)\n%!" t_warm
    warm_hits warm_solves;
  assert (render seq = render warm);
  assert (warm_solves = 0);
  assert (warm_hits >= ops);

  let doc =
    J.Assoc
      [ ("schema", J.String "akg-repro-bench-service");
        ("version", J.Int 1);
        ("cores", J.Int cores);
        ("networks", J.Int (List.length networks));
        ("ops", J.Int ops);
        ("jobs", J.Int jobs_par);
        ("workers", J.Int workers);
        ("seq_s", J.Float t_seq);
        ("par_s", J.Float t_par);
        ("cold_cache_s", J.Float t_cold);
        ("warm_cache_s", J.Float t_warm);
        ("par_speedup", J.Float (t_seq /. t_par));
        ("warm_speedup", J.Float (t_cold /. t_warm));
        ("warm_cache_hits", J.Int warm_hits);
        ("warm_ilp_solves", J.Int warm_solves)
      ]
  in
  J.to_file out_file doc;
  Printf.printf "  par speedup %.2fx, warm speedup %.2fx -> %s\n%!" (t_seq /. t_par)
    (t_cold /. t_warm) out_file
