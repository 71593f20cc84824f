(* The repository benchmark.  perfbench/run.py builds and drives this
   executable; BENCHMARK.json lists the workloads and metrics.

   bench --workload W --seed N --seconds S --workdir DIR
         [--setup-only] [--spans FILE]

   Every timing is in CPU seconds scaled by the speed probe of Stats.
   Each workload sets up, prints "ready S" with S its set-up time since
   process start, then runs a fixed number of whole rounds, set by
   --seconds and the workload (see [rounds]), and at least one.  The count
   depends on the budget only, so every run of a workload does the same
   work.
   - zoo-compile: one round is every operator of Ops.Networks.all through
     Harness.Eval.evaluate_op (timed), each followed by an untimed
     stage-by-stage replay that must reproduce its simulated microseconds
     bit for bit and whose schedules are checked by Scheduling.Legality;
   - serve-mix: one round is a fresh on-disk cache and a closed loop of
     Service.Serve.handle_line requests in which every (Table I op,
     version) key is missed once and hits_per_miss seeded, skewed hits
     follow each miss on average;
   - cpu-exec: one round is every Ops.Classics operator through a
     stage-by-stage replica of Harness.Eval.evaluate_cpu_op: scheduled and
     lowered (untimed), then emitted and compiled (timed) and run on the
     scalar and the host's native CPU profile, with the runner's .so cache
     emptied first; after the rounds, Harness.Eval.evaluate_cpu_op itself
     checks the small variants bit for bit against Interp.

   With --spans the run is traced: the calls into each library layer are
   wrapped in spans (see Spans) that are written to FILE at the end.
   Without it nothing is recorded, so the end-to-end timings are bare.

   Standard output: the workload's end-to-end metrics under their own
   names, one a line with unit and sample count, then as the last line one
   JSON object {"attempted": N, "failed": N, "metrics": {NAME: VALUE, ...},
   "fingerprint": {...}}.  Per-layer timings are means per round; counts
   are those of round one. *)

module J = Obs.Json
module E = Harness.Eval

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let workdir = ref ""
let setup_only = ref false
let spans_out = ref ""

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "zoo-compile | serve-mix | cpu-exec");
      ("--seed", Arg.Set_int seed, "seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "measurement budget in seconds");
      ("--workdir", Arg.Set_string workdir, "scratch directory for caches");
      ("--setup-only", Arg.Set setup_only, "set up, print ready and exit");
      ("--spans", Arg.Set_string spans_out, "trace, and write the spans as JSON lines")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload W --seed N --seconds S --workdir DIR";
  Spans.enabled := !spans_out <> ""

(* ------------------------------------------------------------------ *)
(* bookkeeping                                                          *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail what reason =
  incr failed;
  if !failed <= 20 then Printf.eprintf "bench: FAILED %s: %s\n%!" what reason

let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* The workload's end-to-end metrics under their own names, each printed
   with its unit and sample count before the result line. *)
let report = ref []

let headline ?(note = "") name unit v =
  metric name v;
  report := Printf.sprintf "%-24s %18.6f %-5s %s" name v unit note :: !report

(* BENCHMARK.json declares one set of end-to-end names for every
   workload; each maps its own throughput, latency and speed-up onto it. *)
let shared ~throughput ~p50_ms ~tail_ms ~speedup =
  metric "throughput_per_s" throughput;
  metric "latency_p50_ms" p50_ms;
  metric "latency_tail_ms" tail_ms;
  metric "speedup_geomean" speedup

let counter_names =
  [ "scheduler.fastpath_hits"; "scheduler.fastpath_fallbacks"; "scheduler.ilp_solves";
    "ilp.bb_nodes"; "simplex.pivots"; "simplex.solves"; "codegen.lowerings";
    "gpusim.runs"; "gpusim.mem_sectors"; "vectorizer.branches"; "service.cache_hits";
    "service.cache_stores"; "cpu.compiles"; "cpu.compile_cache_hits"
  ]

(* Counter deltas accumulated over the calls wrapped by [counted]. *)
let new_counts () = Hashtbl.create 16

let counted counts f =
  let before = List.map Obs.Counters.find counter_names in
  Fun.protect f ~finally:(fun () ->
      List.iter2
        (fun name b ->
          let d = Obs.Counters.find name - b in
          Hashtbl.replace counts name (d + Option.value ~default:0 (Hashtbl.find_opt counts name)))
        counter_names before)

let count counts name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))

let report_counts counts =
  List.iter (fun name -> metric name (count counts name)) counter_names;
  let hits = count counts "scheduler.fastpath_hits" in
  let attempts = hits +. count counts "scheduler.fastpath_fallbacks" in
  metric "scheduling.fastpath_hit_ratio" (if attempts > 0.0 then hits /. attempts else 0.0)

(* Peak resident memory through set-up and round one.  Later rounds reuse
   freed memory unevenly, so counting them would make the figure depend
   on the number of rounds. *)
let round_one_rss_mb = ref 0.0

(* [round_s] is the share of --seconds one round takes.  For zoo-compile
   and cpu-exec it is about the CPU seconds of a round on a 2-vCPU host; a
   serve-mix round lasts about 10 s but takes a 5 s share, so that its
   microsecond hits average over more of a shared host's swings. *)
let rounds ~round_s f =
  let n = max 1 (int_of_float (!seconds /. round_s)) in
  let rec go i =
    if i = n then []
    else begin
      let r = f i in
      if i = 0 then round_one_rss_mb := Stats.peak_rss_mb ();
      r :: go (i + 1)
    end
  in
  go 0

(* Set-up ends here: report the CPU seconds spent since process start,
   scaled by a probe (the first probe of a process runs cold). *)
let ready () =
  let setup_s = Stats.now () in
  ignore (Stats.probe ());
  let p = Stats.probe () in
  Printf.printf "ready %.9f\n%!" (setup_s *. Stats.scale [ p ]);
  if !setup_only then exit 0

(* Operator construction is set-up, so it is timed apart from the spans. *)
let ops_build_s = ref 0.0

let build_ops f =
  let r, dt = Stats.timed f in
  ops_build_s := !ops_build_s +. dt;
  r

let build_zoo () =
  build_ops (fun () ->
      List.map
        (fun (n : Ops.Networks.t) -> (n.Ops.Networks.name, Lazy.force n.Ops.Networks.ops))
        Ops.Networks.all)

(* Each timed operator starts from a collected heap, so the GC work it
   pays does not depend on which operators ran before it. *)
let timed_op f =
  Gc.full_major ();
  Stats.timed_scaled f

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let untraced f =
  let on = !Spans.enabled in
  Spans.enabled := false;
  Fun.protect f ~finally:(fun () -> Spans.enabled := on)

(* ------------------------------------------------------------------ *)
(* zoo-compile                                                          *)
(* ------------------------------------------------------------------ *)

(* Stage-by-stage replica of Harness.Eval.evaluate_op, each stage in a
   span of the layer it calls.  Returns the per-version simulated
   microseconds (isl, tvm, novec, infl, tiled), the tiled flag, the three
   schedules and the four GPU lowerings. *)
let replay ~name kernel =
  Spans.with_ ~trace:name "harness.op" @@ fun () ->
  let schedule label ?influence () =
    let s, stats, _ =
      Spans.with_ ("scheduling.schedule." ^ label) (fun () -> E.timed_schedule ?influence kernel)
    in
    (s, stats)
  in
  let isl, _ = schedule "isl" () in
  let tree = Spans.with_ "vectorizer.treegen" (fun () -> E.influence_with kernel) in
  let infl, _ = schedule "infl" ~influence:tree () in
  let tile_tree =
    Spans.with_ "scheduling.tiling_treegen" (fun () -> Scheduling.Tiling.influence_for kernel)
  in
  let tiled, tiled_stats = schedule "tiled" ~influence:tile_tree () in
  let lower ?vec_min_parallel ~vectorize s =
    Spans.with_ "codegen.lower" (fun () ->
        Codegen.Compile.lower ~vectorize ?vec_min_parallel s kernel)
  in
  let isl_c = lower ~vectorize:false isl in
  let novec_c = lower ~vectorize:false infl in
  let infl_c = lower ~vectorize:true ~vec_min_parallel:2048 infl in
  let tiled_c = lower ~vectorize:false tiled in
  let sim c =
    Spans.with_ "gpusim.run" (fun () ->
        Gpusim.Sim.time_us (Gpusim.Sim.run ~machine:Gpusim.Machine.v100 c))
  in
  let tvm = Spans.with_ "baselines.tvm_compile" (fun () -> Baselines.Tvm.compile kernel) in
  let tvm_us = List.fold_left (fun acc c -> acc +. sim c) 0.0 tvm in
  let isl_us = sim isl_c in
  let novec_us = sim novec_c in
  let infl_us = sim infl_c in
  let tiled_us = sim tiled_c in
  let tiled_flag =
    (not tiled_stats.Scheduling.Scheduler.influence_abandoned)
    && Codegen.Tiling.applied tiled_c.Codegen.Compile.ast
  in
  ( [ isl_us; tvm_us; novec_us; infl_us; tiled_us ],
    tiled_flag,
    [ isl; infl; tiled ],
    [ isl_c; novec_c; infl_c; tiled_c ] )

(* Checks one evaluated operator; returns (dependences, CUDA bytes). *)
let check_op ~name kernel (r : E.op_result) =
  match replay ~name kernel with
  | exception e -> fail name ("replay: " ^ Printexc.to_string e); (0, 0)
  | us, tiled, scheds, lowered ->
    let expected = [ r.E.isl_us; r.E.tvm_us; r.E.novec_us; r.E.infl_us; r.E.tiled_us ] in
    if not (List.for_all2 same_float us expected && tiled = r.E.tiled) then
      fail name "replay does not reproduce evaluate_op";
    let deps =
      Spans.with_ ~trace:name "deps.dependences" (fun () -> Deps.Analysis.dependences kernel)
    in
    let legal =
      Spans.with_ ~trace:name "scheduling.legality" (fun () ->
          List.for_all (fun s -> Scheduling.Legality.is_legal s kernel deps) scheds)
    in
    if not legal then fail name "illegal schedule";
    let bytes =
      Spans.with_ ~trace:name "codegen.cuda_emit" (fun () ->
          List.fold_left (fun acc c -> acc + String.length (Codegen.Cuda.emit c)) 0 lowered)
    in
    (List.length deps, bytes)

type zoo_round = {
  op_s : float list;  (* evaluate_op scaled CPU seconds per operator *)
  raw_s : float;  (* their unscaled sum *)
  table2 : float;  (* infl-over-isl geomean across suites *)
  cuda_bytes : int;
  deps : int;
  zoo_counts : (string, int) Hashtbl.t;
}

(* Operators run in zoo order: in a seeded order, how far the major heap
   grows before the GC catches up, and so peak memory, varies by half from
   run to run.  The zoo is the input; the seed changes nothing here. *)
let zoo_compile _rng =
  let suites = build_zoo () in
  ready ();
  let items =
    List.concat
      (List.mapi
         (fun si (_, ops) -> List.mapi (fun oi (name, k) -> (si, oi, name, k)) ops)
         suites)
  in
  let one_round _ =
    let counts = new_counts () in
    let results = ref [] and op_s = ref [] and raw_s = ref 0.0 in
    let bytes = ref 0 and deps = ref 0 in
    List.iter
      (fun (si, oi, name, kernel) ->
        incr attempted;
        match counted counts (fun () -> timed_op (fun () -> E.evaluate_op ~name kernel)) with
        | exception e -> fail name (Printexc.to_string e)
        | r, dt, scale ->
          op_s := (dt *. scale) :: !op_s;
          raw_s := !raw_s +. dt;
          results := ((si, oi), r) :: !results;
          let d, b = check_op ~name kernel r in
          deps := !deps + d;
          bytes := !bytes + b)
      items;
    (* suite sums in the zoo's own order, so the geomean is bit-stable *)
    let results = List.sort compare !results in
    let speedups =
      List.mapi
        (fun si _ ->
          let a = E.aggregate (List.filter_map (fun ((s, _), r) -> if s = si then Some r else None) results) in
          E.speedup a.E.isl_ms a.E.infl_ms)
        suites
    in
    { op_s = !op_s;
      raw_s = !raw_s;
      table2 = E.geomean speedups;
      cuda_bytes = !bytes;
      deps = !deps;
      zoo_counts = counts
    }
  in
  let rs = rounds ~round_s:15.0 one_round in
  let first = List.hd rs in
  let n = float_of_int (List.length rs) in
  let op_s = List.concat_map (fun r -> r.op_s) rs in
  List.iter
    (fun r ->
      if not (same_float r.table2 first.table2 && r.cuda_bytes = first.cuda_bytes) then
        fail "zoo-compile" "a later round differs from round one")
    rs;
  let ops_per_s = float_of_int (List.length op_s) /. Stats.sum op_s in
  let p50_ms = Stats.median op_s *. 1e3 and p95_ms = Stats.quantile op_s 0.95 *. 1e3 in
  let samples = Printf.sprintf "(%d op samples, %d rounds)" (List.length op_s) (List.length rs) in
  headline "ops_per_s" "1/s" ops_per_s ~note:samples;
  headline "op_p50_ms" "ms" p50_ms ~note:samples;
  headline "op_p95_ms" "ms" p95_ms ~note:samples;
  headline "sim_geomean_speedup" "x" first.table2 ~note:"(simulated V100, infl over isl)";
  headline "code_kb" "KiB" (float_of_int first.cuda_bytes /. 1024.0) ~note:"(CUDA, 4 versions)";
  shared ~throughput:ops_per_s ~p50_ms ~tail_ms:p95_ms ~speedup:first.table2;
  metric "deps.dependences" (float_of_int first.deps);
  metric "codegen.cuda_bytes" (float_of_int first.cuda_bytes);
  report_counts first.zoo_counts;
  let per_round name = Spans.total name /. n in
  List.iter
    (fun (m, span) -> metric m (per_round span))
    [ ("deps.dependences_s", "deps.dependences");
      ("vectorizer.treegen_s", "vectorizer.treegen");
      ("scheduling.schedule_s.isl", "scheduling.schedule.isl");
      ("scheduling.schedule_s.infl", "scheduling.schedule.infl");
      ("scheduling.schedule_s.tiled", "scheduling.schedule.tiled");
      ("scheduling.tiling_treegen_s", "scheduling.tiling_treegen");
      ("scheduling.legality_s", "scheduling.legality");
      ("codegen.lower_s", "codegen.lower");
      ("codegen.cuda_emit_s", "codegen.cuda_emit");
      ("baselines.tvm_compile_s", "baselines.tvm_compile");
      ("gpusim.run_s", "gpusim.run")
    ];
  metric "harness.trace_overhead_ratio"
    (Spans.total "harness.op" /. Stats.sum (List.map (fun r -> r.raw_s) rs));
  n

(* ------------------------------------------------------------------ *)
(* serve-mix                                                            *)
(* ------------------------------------------------------------------ *)

let serve_versions = [ "isl"; "novec"; "infl"; "tiled"; "cpu" ]

(* about 4% of requests are first-sight misses, so p99 reads the miss
   path and p50 the hit path *)
let hits_per_miss = 24
let serve_block = 256

type serve_round = {
  lat_s : float list;
  hit_s : float list;
  miss_s : float list;
  c_bytes : int;
  served_speedups : float list;  (* isl over infl simulated time, per op *)
  cache_bytes : int;
  serve_counts : (string, int) Hashtbl.t;
}

(* The fields a hit must repeat from the miss reply of the same key. *)
let reply_signature reply =
  match J.of_string reply with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok j -> (
    match J.member "status" j with
    | Some (J.String "ok") ->
      let field k = Option.value ~default:J.Null (J.member k j) in
      let cached = J.member "cached" j = Some (J.Bool true) in
      Ok
        ( cached,
          J.to_string
            (J.Assoc
               [ ("rows", field "rows"); ("digest", field "digest");
                 ("time_us", field "time_us"); ("source_bytes", field "source_bytes")
               ]),
          field "time_us",
          field "source_bytes" )
    | _ -> Error ("non-ok reply: " ^ reply))

let serve_mix rng =
  let suites =
    List.filter (fun (n, _) -> n <> Ops.Networks.stencilzoo.Ops.Networks.name) (build_zoo ())
  in
  let ops = Hashtbl.create 256 in
  List.iter
    (fun (net, l) ->
      List.iter
        (fun (op, k) -> Hashtbl.replace ops (String.lowercase_ascii net ^ "/" ^ op) k)
        l)
    suites;
  let universe =
    List.concat_map
      (fun (net, l) ->
        List.concat_map
          (fun (op, _) ->
            List.map (fun v -> (String.lowercase_ascii net ^ "/" ^ op, v)) serve_versions)
          l)
      suites
  in
  let open_cache i = Service.Cache.open_ (Filename.concat !workdir (Printf.sprintf "serve-cache-%d" i)) in
  let first_cache = open_cache 0 in
  ready ();
  let one_round i =
    let cache = if i = 0 then first_cache else open_cache i in
    let h = Service.Serve.make_handler ~cache ~find_op:(Hashtbl.find_opt ops) () in
    let keys = Array.of_list (Stats.shuffle rng universe) in
    let m = Array.length keys in
    let slots = Array.of_list (Stats.shuffle rng (List.init (m * (hits_per_miss + 1)) (fun j -> j < m))) in
    (* the first request has nothing to hit *)
    (match Array.find_index (fun b -> b) slots with
     | Some j -> slots.(j) <- slots.(0); slots.(0) <- true
     | None -> ());
    let seen = Array.make m ("", "") and nseen = ref 0 in
    let reference = Hashtbl.create m in
    let counts = new_counts () in
    let lat = ref [] and hit = ref [] and miss = ref [] and c_bytes = ref 0 in
    let sim_us = Hashtbl.create 512 in
    (* one request; returns its CPU seconds *)
    let request j is_miss =
      let key =
        if is_miss then begin
          seen.(!nseen) <- keys.(!nseen);
          incr nseen;
          seen.(!nseen - 1)
        end
        else seen.(int_of_float (float_of_int !nseen *. (Random.State.float rng 1.0 ** 3.0)))
      in
      let op, version = key in
      let id = Printf.sprintf "q%d-%d" i j in
      let line = Printf.sprintf {|{"id":"%s","op":"%s","version":"%s"}|} id op version in
      let reply, dt =
        Stats.timed (fun () ->
            Spans.with_ ~trace:id "service.request" (fun () -> Service.Serve.handle_line h line))
      in
      incr attempted;
      (match reply_signature reply with
       | Error e -> fail (op ^ " " ^ version) e
       | Ok (cached, signature, time_us, source_bytes) ->
         if cached = is_miss then fail (op ^ " " ^ version) "cache hit/miss not as expected"
         else if is_miss then begin
           Hashtbl.replace reference key signature;
           match (time_us, source_bytes) with
           | J.Float us, _ -> Hashtbl.replace sim_us key us
           | _, J.Int b -> c_bytes := !c_bytes + b
           | _ -> ()
         end
         else if Hashtbl.find_opt reference key <> Some signature then
           fail (op ^ " " ^ version) "hit differs from the miss reply");
      dt
    in
    (* requests run in blocks between two speed probes *)
    counted counts (fun () ->
        let j = ref 0 in
        while !j < Array.length slots do
          let stop = min (Array.length slots) (!j + serve_block) in
          let before = Stats.probe () in
          let block = List.init (stop - !j) (fun k -> (slots.(!j + k), request (!j + k) slots.(!j + k))) in
          let scale = Stats.scale [ before; Stats.probe () ] in
          List.iter
            (fun (is_miss, dt) ->
              let t = dt *. scale in
              lat := t :: !lat;
              if is_miss then miss := t :: !miss else hit := t :: !hit)
            block;
          j := stop
        done);
    let cache_bytes = (Service.Cache.stats cache).Service.Cache.bytes in
    Stats.rm_rf (Service.Cache.dir cache);
    { lat_s = !lat; hit_s = !hit; miss_s = !miss; c_bytes = !c_bytes;
      served_speedups =
        Hashtbl.fold
          (fun (op, v) infl acc ->
            match (v, Hashtbl.find_opt sim_us (op, "isl")) with
            | "infl", Some isl -> (isl /. infl) :: acc
            | _ -> acc)
          sim_us [];
      cache_bytes; serve_counts = counts }
  in
  let rs = rounds ~round_s:5.0 one_round in
  let first = List.hd rs in
  let lat = List.concat_map (fun r -> r.lat_s) rs in
  let misses = List.concat_map (fun r -> r.miss_s) rs in
  let req_per_s = float_of_int (List.length lat) /. Stats.sum lat in
  let p50_us = Stats.median lat *. 1e6 and p99_us = Stats.quantile lat 0.99 *. 1e6 in
  let samples =
    Printf.sprintf "(%d requests, %d misses, %d rounds)" (List.length lat) (List.length misses)
      (List.length rs)
  in
  headline "req_per_s" "1/s" req_per_s ~note:samples;
  headline "latency_p50_us" "us" p50_us ~note:samples;
  headline "latency_p99_us" "us" p99_us ~note:samples;
  headline "code_kb" "KiB" (float_of_int first.c_bytes /. 1024.0) ~note:"(C of the cpu replies)";
  shared ~throughput:req_per_s ~p50_ms:(p50_us /. 1e3) ~tail_ms:(p99_us /. 1e3)
    ~speedup:(Stats.geomean first.served_speedups);
  metric "service.hit_us_p50" (Stats.median (List.concat_map (fun r -> r.hit_s) rs) *. 1e6);
  metric "service.miss_ms_p50" (Stats.median misses *. 1e3);
  metric "service.cache_hit_ratio"
    (count first.serve_counts "service.cache_hits" /. float_of_int (List.length first.lat_s));
  metric "service.cache_bytes" (float_of_int first.cache_bytes);
  report_counts first.serve_counts;
  float_of_int (List.length rs)

(* ------------------------------------------------------------------ *)
(* cpu-exec                                                             *)
(* ------------------------------------------------------------------ *)

let cpu_reps = 15
let short_kernel_s = 1e-3
let short_kernel_reps = 200

let open_runner () =
  match Codegen_cpu.Runner.create ~cache_dir:(Filename.concat !workdir "cpu-runner") () with
  | Ok r -> Some r
  | Error e ->
    Printf.eprintf "bench: %s\n%!" (Codegen_cpu.Runner.error_message e);
    None

let native_of = function
  | Some r -> Codegen_cpu.Runner.native_profile r
  | None -> Gpusim.Machine.scalar_1core

(* Stage-by-stage replica of Harness.Eval.evaluate_cpu_op, in three
   parts.  [cpu_compile] schedules and lowers an operator once and emits
   its C for each profile, returning the sources and the CPU seconds the
   emits took; [cpu_build] compiles each source with the host cc;
   [cpu_run] runs each build on seeded inputs and returns its best-of-reps
   seconds (cpu_reps reps, and short_kernel_reps more for kernels under
   short_kernel_s). *)
let cpu_compile ~profiles ~name kernel =
  Spans.with_ ~trace:name "harness.cpu_compile" @@ fun () ->
  let tree = Spans.with_ "vectorizer.treegen" (fun () -> Vectorizer.Treegen.influence_for kernel) in
  let sched, _, _ =
    Spans.with_ "scheduling.schedule.infl" (fun () -> E.timed_schedule ~influence:tree kernel)
  in
  let compiled =
    Spans.with_ "codegen.lower" (fun () ->
        Codegen.Compile.lower ~vectorize:true ~vec_min_parallel:2048 sched kernel)
  in
  Stats.timed (fun () ->
      List.map
        (fun (machine : Gpusim.Machine.t) ->
          (machine, Spans.with_ "codegen_cpu.emit" (fun () -> Codegen_cpu.Cemit.emit ~machine compiled)))
        profiles)

let cpu_build ~runner ~name sources =
  Spans.with_ ~trace:name "harness.cpu_build" @@ fun () ->
  List.map
    (fun (machine, source) ->
      let built =
        match runner with
        | None -> Error "emit-only: no host C compiler"
        | Some r ->
          Spans.with_ "codegen_cpu.cc" (fun () ->
              Codegen_cpu.Runner.build_source r ~machine source)
          |> Result.map_error Codegen_cpu.Runner.error_message
      in
      (machine, source, built))
    sources

let cpu_run ~runner ~name kernel builds =
  Spans.with_ ~trace:name "harness.cpu_run" @@ fun () ->
  let inputs =
    Spans.with_ "interp.randomize" (fun () ->
        E.memory_to_buffers kernel (Interp.randomize ~seed:!seed kernel))
  in
  List.map
    (fun (machine, _, built) ->
      ( machine,
        match (runner, built) with
        | _, Error e -> Error e
        | None, Ok _ -> Error "no runner"
        | Some r, Ok built -> (
          (* the buffers of the last execution are freed first, so peak
             memory does not depend on when the GC ran *)
          let exec reps =
            Gc.full_major ();
            Spans.with_ "codegen_cpu.exec" (fun () ->
                Codegen_cpu.Runner.execute ~reps r built ~inputs)
            |> Result.map snd
            |> Result.map_error Codegen_cpu.Runner.error_message
          in
          (* a sub-millisecond best is noisy on shared cores: take many more reps *)
          match exec cpu_reps with
          | Ok best when best < short_kernel_s ->
            Result.map (Float.min best) (exec short_kernel_reps)
          | r -> r) ))
    builds

type cpu_round = {
  compile_op_s : float list;  (* scaled CPU seconds to schedule, lower and emit each operator, median of 3 *)
  build_op_s : float list;  (* scaled CPU seconds to emit and cc each operator, all profiles *)
  exec_native : float list;  (* scaled best-of-reps microseconds per operator *)
  exec_scalar : float list;
  cpu_speedups : float list;  (* scalar over native best-of-reps, per operator *)
  omp_loops : int;
  cpu_bytes : int;
  cpu_counts : (string, int) Hashtbl.t;
}

(* Operators run in suite order, so every run allocates alike and peak
   memory compares across seeds; the seed sets the input values. *)
let cpu_exec _rng =
  let kernels =
    build_ops (fun () ->
        List.map (fun (n, mk) -> (n, Ir.Kernel.instantiate (mk ()))) Ops.Classics.all)
  in
  let runner = open_runner () in
  let native = native_of runner in
  let profiles = [ Gpusim.Machine.scalar_1core; native ] in
  (* Toolchain detection is set-up: its probe compiles are memoized, and
     the first build of a profile would otherwise pay them. *)
  Option.iter
    (fun r ->
      let tc = Codegen_cpu.Runner.toolchain r in
      List.iter
        (fun (m : Gpusim.Machine.t) ->
          ignore (Codegen_cpu.Toolchain.supports_isa tc m.Gpusim.Machine.isa);
          ignore (Codegen_cpu.Toolchain.kernel_flags tc m))
        profiles)
    runner;
  ready ();
  let one_round _ =
    (* a cold .so cache: every round pays cc *)
    Option.iter
      (fun r ->
        let dir = Codegen_cpu.Runner.cache_dir r in
        Array.iter
          (fun f -> if f.[0] = 'k' then Stats.rm_rf (Filename.concat dir f))
          (Sys.readdir dir))
      runner;
    let counts = new_counts () in
    let fail_op name e = List.iter (fun _ -> fail name (Printexc.to_string e)) profiles in
    (* Compile pass, apart from the heavy builds and runs.  Most operators
       compile in milliseconds, short enough for a neighbour on the host
       to double one compile, so each is compiled three times back to back
       and its time is the median; only the first is traced and counted. *)
    let compiled =
      List.filter_map
        (fun (name, kernel) ->
          attempted := !attempted + List.length profiles;
          let compile () = timed_op (fun () -> cpu_compile ~profiles ~name kernel) in
          match counted counts compile with
          | exception e -> fail_op name e; None
          | (sources, emit_dt), dt, scale ->
            let again () = untraced (fun () -> let _, dt, scale = compile () in dt *. scale) in
            let compile_s = Stats.median ((dt *. scale) :: List.init 2 (fun _ -> again ())) in
            Some (name, kernel, sources, emit_dt *. scale, compile_s))
        kernels
    in
    (* per operator: (compile, build) times, sources, and scaled
       best-of-reps seconds per profile *)
    let ops =
      List.filter_map
        (fun (name, kernel, sources, emit_s, compile_s) ->
          match
            counted counts (fun () ->
                let builds, cc_dt, cc_scale = timed_op (fun () -> cpu_build ~runner ~name sources) in
                let runs, _, exec_scale =
                  Stats.timed_scaled (fun () -> cpu_run ~runner ~name kernel builds)
                in
                (emit_s +. (cc_dt *. cc_scale), runs, exec_scale))
          with
          | exception e -> fail_op name e; None
          | build_s, runs, exec_scale ->
            let runs =
              List.filter_map
                (fun ((m : Gpusim.Machine.t), best) ->
                  match best with
                  | Ok s -> Some (m, s *. exec_scale *. 1e6)
                  | Error e -> fail (name ^ " on " ^ m.Gpusim.Machine.name) e; None)
                runs
            in
            Some ((compile_s, build_s), List.map snd sources, runs))
        compiled
    in
    let exec_of profile =
      List.concat_map
        (fun (_, _, runs) -> List.filter_map (fun (m, us) -> if m == profile then Some us else None) runs)
        ops
    in
    let speedup (_, _, runs) =
      match (List.assq_opt Gpusim.Machine.scalar_1core runs, List.assq_opt native runs) with
      | Some s, Some n when n > 0.0 -> Some (s /. n)
      | _ -> None
    in
    let sources = List.concat_map (fun (_, srcs, _) -> srcs) ops in
    { compile_op_s = List.map (fun ((compile, _), _, _) -> compile) ops;
      build_op_s = List.map (fun ((_, build), _, _) -> build) ops;
      exec_native = exec_of native;
      exec_scalar = exec_of Gpusim.Machine.scalar_1core;
      cpu_speedups = List.filter_map speedup ops;
      omp_loops =
        List.fold_left (fun acc s -> acc + Stats.count_substring ~sub:"#pragma omp" s) 0 sources;
      cpu_bytes = List.fold_left (fun acc s -> acc + String.length s) 0 sources;
      cpu_counts = counts
    }
  in
  let rs = rounds ~round_s:20.0 one_round in
  let first = List.hd rs in
  let n = float_of_int (List.length rs) in
  (* bit-for-bit checks of the entry point on the small variants, native
     profile, kept out of the timings above *)
  let checked = ref 0 in
  let (), check_s =
    Stats.timed (fun () ->
        Spans.with_ "interp.check" (fun () ->
            List.iter
              (fun (name, mk) ->
                incr attempted;
                let what = name ^ " (small)" in
                match
                  E.evaluate_cpu_op ~machine:native ?runner ~check:true ~seed:!seed ~name (mk ())
                with
                | exception e -> fail what (Printexc.to_string e)
                | run, _ -> (
                  match run.E.checked with
                  | Some true -> incr checked
                  | Some false -> fail what "output differs from Interp"
                  | None -> fail what (Option.value ~default:"not checked" run.E.cpu_error)))
              Ops.Classics.all_small))
  in
  let med f = Stats.median (List.map f rs) in
  let build_s = med (fun r -> Stats.sum r.build_op_s) in
  let exec_native = med (fun r -> Stats.geomean r.exec_native) in
  let exec_scalar = med (fun r -> Stats.geomean r.exec_scalar) in
  headline "build_s" "s" build_s
    ~note:
      (Printf.sprintf "(emit + cc, %d ops x %d profiles, cold .so cache, %d rounds)"
         (List.length first.build_op_s) (List.length profiles) (List.length rs));
  headline "exec_geomean_us_native" "us" exec_native
    ~note:(Printf.sprintf "(%s, best of reps, measured)" native.Gpusim.Machine.name);
  headline "exec_geomean_us_scalar" "us" exec_scalar ~note:"(scalar-1core, the control)";
  headline "code_kb" "KiB" (float_of_int first.cpu_bytes /. 1024.0) ~note:"(C, both profiles)";
  (* The shared throughput and latency read the in-process compile of each
     operator, kernel to C for both profiles.  The host cc and the kernel
     runs, on shared cores, spread too widely from run to run for a bound;
     they show in build_s and the exec geomeans.  With 15 operators a
     round, the tail is p90. *)
  let compile_op_s = List.concat_map (fun r -> r.compile_op_s) rs in
  shared
    ~throughput:(float_of_int (List.length compile_op_s) /. Stats.sum compile_op_s)
    ~p50_ms:(Stats.median compile_op_s *. 1e3)
    ~tail_ms:(Stats.quantile compile_op_s 0.9 *. 1e3)
    ~speedup:(med (fun r -> Stats.geomean r.cpu_speedups));
  metric "codegen_cpu.build_s" build_s;
  metric "codegen_cpu.emit_s" (Spans.total "codegen_cpu.emit" /. n);
  metric "codegen_cpu.cc_s" (Spans.total "codegen_cpu.cc" /. n);
  metric "codegen_cpu.exec_s.native" (med (fun r -> Stats.sum r.exec_native /. 1e6));
  metric "codegen_cpu.exec_s.scalar" (med (fun r -> Stats.sum r.exec_scalar /. 1e6));
  metric "codegen_cpu.exec_geomean_us.native" exec_native;
  metric "codegen_cpu.exec_geomean_us.scalar" exec_scalar;
  metric "codegen_cpu.omp_loops" (float_of_int first.omp_loops);
  metric "codegen_cpu.c_bytes" (float_of_int first.cpu_bytes);
  metric "interp.check_s" check_s;
  metric "interp.checked_ops" (float_of_int !checked);
  report_counts first.cpu_counts;
  n

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let layers =
  [ "deps"; "vectorizer"; "scheduling"; "codegen"; "baselines"; "gpusim"; "service";
    "codegen_cpu"; "interp"; "harness" ]

(* The host facts a result depends on, so results from different hosts
   are never compared. *)
let fingerprint () =
  let runner = open_runner () in
  let tc = Codegen_cpu.Toolchain.detect () in
  J.Assoc
    [ ("ocaml", J.String Sys.ocaml_version);
      ("cc", J.String (match tc with Some t -> Codegen_cpu.Toolchain.version t | None -> "none"));
      ("native_profile", J.String (native_of runner).Gpusim.Machine.name);
      ( "openmp",
        J.Bool (match tc with Some t -> Codegen_cpu.Toolchain.supports_openmp t | None -> false) )
    ]

let () =
  if !workdir = "" then (prerr_endline "bench: --workdir is required"; exit 2);
  let rng = Random.State.make [| !seed |] in
  let run =
    match !workload with
    | "zoo-compile" -> zoo_compile
    | "serve-mix" -> serve_mix
    | "cpu-exec" -> cpu_exec
    | w -> Printf.eprintf "bench: unknown workload %S\n" w; exit 2
  in
  let n_rounds = run rng in
  let error_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  headline "error_rate" "ratio" error_rate
    ~note:(Printf.sprintf "(%d failed of %d attempted)" !failed !attempted);
  metric "ok_rate" (1.0 -. error_rate);
  headline "peak_rss_mb" "MiB" !round_one_rss_mb ~note:"(set-up and round one)";
  metric "ops.build_s" !ops_build_s;
  let self = Spans.self_by_layer () in
  List.iter
    (fun l ->
      metric (l ^ ".self_s")
        (Option.value ~default:0.0 (Hashtbl.find_opt self l) /. n_rounds))
    layers;
  metric "harness.traced_s" (Spans.roots_total () /. n_rounds);
  if !spans_out <> "" then Spans.write !spans_out;
  List.iter print_endline (List.rev !report);
  print_endline
    (J.to_string
       (J.Assoc
          [ ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Assoc (List.rev_map (fun (k, v) -> (k, J.Float v)) !metrics));
            ("fingerprint", fingerprint ())
          ]))
