(* Command-line driver: inspect, schedule, compile, simulate and validate
   fused operators through the full pipeline, and print the paper's tables
   and figures.

   dune exec bin/akg_repro.exe -- <command> ... *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* observability flags (shared by every pipeline command)               *)
(* ------------------------------------------------------------------ *)

let stats_arg =
  let doc =
    "After the command, print the observability counter table (ILP solves, simplex \
     pivots, backtracks, simulated memory transactions, ...) and the hierarchical \
     pass-timing report."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Record a structured trace of every scheduling decision (scheduler ILP solves and \
     backtracking, vectorizer scenario ranking, codegen pass timings, simulator \
     reports) and write it to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_json_arg =
  let doc =
    "Dump the nonzero observability counters and the span totals to $(docv) as JSON \
     (schema akg-repro-stats) after the command."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

type obs_opts = { stats : bool; trace : string option; stats_json : string option }

let obs_term =
  Term.(
    const (fun stats trace stats_json -> { stats; trace; stats_json })
    $ stats_arg $ trace_arg $ stats_json_arg)

let with_obs o f =
  if Option.is_some o.trace then Obs.Trace.enable ();
  let code = f () in
  if
    Obs.Export.write_run ~stats:o.stats ?trace:o.trace ?stats_json:o.stats_json ()
  then code
  else 1

(* ------------------------------------------------------------------ *)
(* compile-service flags (worker pool + persistent cache)               *)
(* ------------------------------------------------------------------ *)

let jobs_arg =
  let doc =
    "Worker domains for the compilation pool, the calling domain among them, and \
     never more than the host's cores.  $(b,1) (the default) stays on the current \
     domain; $(b,0) means one per recommended core.  Results, counters and traces \
     are bit-identical for every value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resolve_jobs n = if n <= 0 then Service.Pool.default_jobs () else n

let cache_arg =
  let doc =
    "Consult (and fill) a persistent content-addressed compile cache in $(docv).  \
     Omitting $(docv) uses $(b,.akg-cache).  Cached operators skip scheduling and \
     simulation entirely; entries are invalidated by any change to the kernel, the \
     machine profile or the cache format."
  in
  Arg.(
    value
    & opt ~vopt:(Some ".akg-cache") (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc)

let open_cache = Option.map (fun dir -> Service.Cache.open_ dir)

(* ------------------------------------------------------------------ *)
(* operator lookup                                                      *)
(* ------------------------------------------------------------------ *)

let network_of_name name =
  List.find_opt
    (fun (n : Ops.Networks.t) ->
      String.lowercase_ascii n.Ops.Networks.name = String.lowercase_ascii name)
    Ops.Networks.all

(* Each classic is built once, as the networks' operators are, so a
   repeated lookup neither rebuilds the kernel nor recomputes its digest;
   serve's identity is the kernel's name and digest, not the value. *)
let classics = List.map (fun (name, mk) -> (name, Lazy.from_fun mk)) Ops.Classics.all

let find_op name =
  match List.assoc_opt name classics with
  | Some k -> Some (Lazy.force k)
  | None -> (
    (* network/op syntax *)
    match String.index_opt name '/' with
    | None -> None
    | Some i -> (
      let net = String.sub name 0 i in
      let op = String.sub name (i + 1) (String.length name - i - 1) in
      match network_of_name net with
      | None -> None
      | Some n -> List.assoc_opt op (Lazy.force n.Ops.Networks.ops)))

let op_arg =
  let doc =
    "Operator name: a classic (see $(b,list)) or $(i,network/op) such as \
     bert/bert_ew_000."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)

let with_op f name =
  match find_op name with
  | None ->
    Format.eprintf "unknown operator %s (try the list command)@." name;
    1
  | Some k ->
    f k;
    0

(* ------------------------------------------------------------------ *)
(* shared pipeline helpers                                              *)
(* ------------------------------------------------------------------ *)

module P = Harness.Pipeline

let version_arg =
  let doc =
    "Compiler version: isl (baseline), novec, infl or tiled; or cpu, which is infl \
     emitted as C (for $(b,--machine) when it names a CPU profile, for \
     $(b,scalar-1core) otherwise)."
  in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) P.names)) (P.name P.Infl)
    & info [ "version"; "v" ] ~doc)

(* the version and machine a command runs: the pipeline resolves the cpu
   name *)
let resolve ?(machine = Gpusim.Machine.v100) name = Option.get (P.resolve name ~machine)

let machine_conv =
  let parse s =
    match Gpusim.Machine.of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Gpusim.Machine.unknown_message s))
  in
  Arg.conv (parse, fun ppf (m : Gpusim.Machine.t) ->
      Format.pp_print_string ppf m.Gpusim.Machine.name)

let machine_arg =
  let doc =
    "Machine profile (GPU: $(b,v100), $(b,a100); CPU: $(b,avx2-8core), \
     $(b,avx512-16core), $(b,neon-4core), $(b,scalar-1core))."
  in
  Arg.(value & opt (some machine_conv) None & info [ "machine"; "m" ] ~docv:"M" ~doc)

(* the CPU profile a command targets: an explicit CPU machine wins; a GPU
   machine (or none) falls back to the runner's native profile, or the
   portable scalar profile without a toolchain *)
let cpu_profile_for machine runner =
  match machine with
  | Some m when Gpusim.Machine.is_cpu m -> m
  | _ -> (
    match runner with
    | Some r -> Codegen_cpu.Runner.native_profile r
    | None -> Gpusim.Machine.scalar_1core)

(* ------------------------------------------------------------------ *)
(* commands                                                             *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "classic operators:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) Ops.Classics.all;
    Format.printf "network suites (use network/op):@.";
    List.iter
      (fun (n : Ops.Networks.t) ->
        Format.printf "  %s (%d ops): %s ...@." n.Ops.Networks.name
          (Ops.Networks.op_count n)
          (String.concat ", "
             (List.filteri (fun i _ -> i < 3)
                (List.map fst (Lazy.force n.Ops.Networks.ops)))))
      Ops.Networks.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available operators") Term.(const run $ const ())

let show_cmd =
  let run name =
    with_op
      (fun k ->
        Format.printf "%a@." Ir.Kernel.pp k;
        Format.printf "dependences:@.%a@." Deps.Analysis.pp_all (Deps.Analysis.dependences k))
      name
  in
  Cmd.v (Cmd.info "show" ~doc:"Print an operator and its dependences")
    Term.(const run $ op_arg)

let schedule_cmd =
  let tree_flag =
    Arg.(value & flag & info [ "tree" ] ~doc:"Also print the influence constraint tree.")
  in
  let run name version tree o =
    with_obs o @@ fun () ->
    with_op
      (fun k ->
        let version, _ = resolve version in
        let influence, (sched, stats), deps =
          Polyhedra.Solver_memo.scoped (fun () ->
              let influence = P.tree version k in
              let scheduled = P.schedule ?influence k in
              (influence, scheduled, Deps.Analysis.dependences k))
        in
        if tree then
          Option.iter
            (Format.printf "influence tree:@.%a@." Scheduling.Influence.pp)
            influence;
        Format.printf "%a@." Scheduling.Schedule.pp sched;
        Format.printf
          "stats: %d ILP solves, %d loop dims, %d scalar dims, %d sibling moves, %d backtracks, %d SCC separations, abandoned %b@."
          stats.Scheduling.Scheduler.ilp_solves stats.loop_dims stats.scalar_dims
          stats.sibling_moves stats.ancestor_backtracks stats.scc_separations
          stats.influence_abandoned;
        Format.printf "fast path: %d hits, %d fallbacks (%d validity rejects)@."
          stats.fastpath_hits stats.fastpath_fallbacks stats.fastpath_validity_rejects;
        match Scheduling.Legality.check sched k deps with
        | Ok () -> Format.printf "legality: OK@."
        | Error e -> Format.printf "legality: VIOLATION %s@." e)
      name
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Schedule an operator and check legality")
    Term.(const run $ op_arg $ version_arg $ tree_flag $ obs_term)

let codegen_cmd =
  let run name version machine o =
    with_obs o @@ fun () ->
    with_op
      (fun k ->
        let version, machine = resolve ?machine version in
        let p = P.run ~machine version (P.operator k) in
        match p.P.backend with
        | P.Emitted source -> print_string source
        | P.Simulated _ -> print_string (Codegen.Cuda.emit p.P.compiled))
      name
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Print generated code: CUDA-like on a GPU profile, C with SIMD intrinsics \
          on a CPU profile ($(b,--machine), or $(b,--version cpu))")
    Term.(const run $ op_arg $ version_arg $ machine_arg $ obs_term)

let simulate_cmd =
  let run name version o =
    with_obs o @@ fun () ->
    with_op
      (fun k ->
        let version, _ = resolve version in
        let p = P.run version (P.operator k) in
        Format.printf "%a@." Codegen.Mapping.pp p.P.compiled.Codegen.Compile.mapping;
        match p.P.backend with
        | P.Simulated report -> Format.printf "%a@." Gpusim.Sim.pp report
        | P.Emitted _ -> assert false (* run on the default V100 *))
      name
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the GPU performance model")
    Term.(const run $ op_arg $ version_arg $ obs_term)

let cpu_run_cmd =
  let emit_only_arg =
    let doc = "Emit C only: never detect or invoke the host toolchain." in
    Arg.(value & flag & info [ "emit-only" ] ~doc)
  in
  let source_arg =
    let doc = "Also print the emitted C source." in
    Arg.(value & flag & info [ "source" ] ~doc)
  in
  let reps_arg =
    let doc = "Executions per kernel; the best wall-clock time is reported." in
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the deterministic input generator." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let no_check_arg =
    let doc = "Skip the bit-for-bit comparison against the reference interpreter." in
    Arg.(value & flag & info [ "no-check" ] ~doc)
  in
  let all_arg =
    let doc =
      "Run the whole classic-operator zoo, sharded over $(b,--jobs) workers, instead \
       of one operator."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let pp_run ppf (r : Harness.Eval.cpu_run) =
    Format.fprintf ppf "%-28s %6d B%s" r.Harness.Eval.cpu_op r.Harness.Eval.source_bytes
      (if r.Harness.Eval.cpu_vec then " vec" else "    ");
    if r.Harness.Eval.compiled then
      Format.fprintf ppf "  compile %6.1f ms%s" (r.Harness.Eval.compile_s *. 1e3)
        (if r.Harness.Eval.compile_cache_hit then " (hit)" else "      ");
    if r.Harness.Eval.executed then
      Format.fprintf ppf "  best %9.2f us" (r.Harness.Eval.exec_best_s *. 1e6);
    (match r.Harness.Eval.checked with
     | Some true -> Format.fprintf ppf "  check OK"
     | Some false -> Format.fprintf ppf "  check MISMATCH"
     | None -> ());
    match r.Harness.Eval.cpu_error with
    | Some e -> Format.fprintf ppf "  [%s]" e
    | None -> ()
  in
  let cpu_op_arg =
    let doc =
      "Operator name: a classic (see $(b,list)) or $(i,network/op).  Omit with \
       $(b,--all)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let run name machine emit_only show_source reps seed no_check all jobs o =
    with_obs o @@ fun () ->
    if Option.is_some name = all then begin
      Format.eprintf "cpu-run: give an operator name or --all, not both@.";
      2
    end
    else
    let runner =
      if emit_only then None
      else
        match Codegen_cpu.Runner.create () with
        | Ok r -> Some r
        | Error e ->
          (* degradation is structured and non-fatal: emit-only still works *)
          Format.eprintf "cpu-run: %s@." (Codegen_cpu.Runner.error_message e);
          None
    in
    let machine = cpu_profile_for machine runner in
    Format.printf "machine: %s (isa %s, %d f64 lanes, %d cores)%s@."
      machine.Gpusim.Machine.name
      (Gpusim.Machine.isa_name machine.Gpusim.Machine.isa)
      (Gpusim.Machine.simd_width machine) machine.Gpusim.Machine.sm_count
      (if runner = None then " — emit-only" else "");
    match name with
    | None ->
      let runs =
        Service.Pool.map ~jobs:(resolve_jobs jobs)
          (fun (name, mk) ->
            fst
              (Harness.Eval.evaluate_cpu_op ~machine ?runner ~reps ~check:(not no_check)
                 ~seed ~name (mk ())))
          Ops.Classics.all
      in
      List.iter (fun r -> Format.printf "%a@." pp_run r) runs;
      let mismatches =
        List.filter (fun r -> r.Harness.Eval.checked = Some false) runs
      in
      Format.printf "%d operators, %d executed, %d mismatches@." (List.length runs)
        (List.length (List.filter (fun r -> r.Harness.Eval.executed) runs))
        (List.length mismatches);
      if mismatches = [] then 0 else 1
    | Some name -> (
      match find_op name with
      | None ->
        Format.eprintf "unknown operator %s (try the list command)@." name;
        2
      | Some k ->
        let r, src =
          Harness.Eval.evaluate_cpu_op ~machine ?runner ~reps ~check:(not no_check)
            ~seed ~name k
        in
        if show_source then print_string src;
        Format.printf "%a@." pp_run r;
        if r.Harness.Eval.checked = Some false then 1 else 0)
  in
  Cmd.v
    (Cmd.info "cpu-run"
       ~doc:
         "Compile an operator through the CPU backend (influenced schedule, C \
          emission with SIMD intrinsics), execute it with the host toolchain, and \
          check the output bit-for-bit against the reference interpreter.  Without \
          a host C compiler the command degrades to emit-only and still succeeds.")
    Term.(
      const run $ cpu_op_arg $ machine_arg $ emit_only_arg $ source_arg $ reps_arg
      $ seed_arg $ no_check_arg $ all_arg $ jobs_arg $ obs_term)

let eval_cmd =
  let run name cache o =
    with_obs o @@ fun () ->
    with_op
      (fun k ->
        let r =
          match Service.Batch.evaluate_suite ?cache:(open_cache cache) [ (name, k) ] with
          | [ r ] -> r
          | _ -> assert false
        in
        Format.printf
          "isl %.2fus  tvm %.2fus  novec %.2fus  infl %.2fus  tiled %.2fus  \
           (influenced %b, vec %b, tiled %b)@."
          r.Harness.Eval.isl_us r.tvm_us r.novec_us r.infl_us r.tiled_us r.influenced
          r.vec r.tiled;
        Format.printf "speedups over isl: tvm %.2f  novec %.2f  infl %.2f  tiled %.2f@."
          (r.isl_us /. r.tvm_us) (r.isl_us /. r.novec_us) (r.isl_us /. r.infl_us)
          (r.isl_us /. r.tiled_us);
        if o.stats then Harness.Tables.stats_table Format.std_formatter [ r ])
      name
  in
  Cmd.v (Cmd.info "eval" ~doc:"Compare the five compiler versions on one operator")
    Term.(const run $ op_arg $ cache_arg $ obs_term)

let check_cmd =
  let run name o =
    with_obs o @@ fun () ->
    with_op
      (fun k ->
        let op = P.operator k in
        List.iter
          (fun version ->
            Format.printf "%-6s %s@." (P.name version)
              (match P.interpret k (P.run version op).P.compiled with
               | Ok () -> "MATCH"
               | Error diff -> Printf.sprintf "MISMATCH (max diff %g)" diff))
          P.versions;
        (* the cpu row is an *executed* differential when a host toolchain
           exists; otherwise it degrades to emit-only and says so *)
        let runner =
          match Codegen_cpu.Runner.create () with Ok r -> Some r | Error _ -> None
        in
        let machine = cpu_profile_for None runner in
        let r, _ = Harness.Eval.evaluate_cpu_op ~machine ?runner ~name k in
        Format.printf "%-6s %s@." P.cpu_name
          (match (r.Harness.Eval.checked, r.Harness.Eval.cpu_error) with
           | Some true, _ -> Printf.sprintf "MATCH (executed on %s)" machine.Gpusim.Machine.name
           | Some false, _ -> "MISMATCH (executed C differs)"
           | None, Some e -> Printf.sprintf "EMIT-ONLY (%s)" e
           | None, None -> "EMIT-ONLY"))
      name
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Interpret original vs compiled code and compare results bit-for-bit (the \
          cpu row executes the emitted C when a host toolchain is available)")
    Term.(const run $ op_arg $ obs_term)

let network_cmd =
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NETWORK" ~doc:"Network name (omit with $(b,--all))")
  in
  let all_arg =
    let doc = "Evaluate every network suite: the full Table II plus the geomean line." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let run name all jobs cache o =
    with_obs o @@ fun () ->
    let jobs = resolve_jobs jobs in
    let cache = open_cache cache in
    let evaluate (n : Ops.Networks.t) =
      Service.Batch.evaluate_suite ?cache ~jobs
        ~progress:(fun op -> Format.eprintf "  %s@." op)
        (Lazy.force n.Ops.Networks.ops)
    in
    let networks =
      match (name, all) with
      | None, true -> Ok Ops.Networks.all
      | Some name, false -> (
        match network_of_name name with
        | Some n -> Ok [ n ]
        | None -> Error (Printf.sprintf "unknown network %s" name))
      | Some _, true | None, false -> Error "give a network name or --all, not both"
    in
    match networks with
    | Error e ->
      Format.eprintf "%s@." e;
      1
    | Ok networks ->
      let rows =
        List.map (fun (n : Ops.Networks.t) -> (n.Ops.Networks.name, evaluate n)) networks
      in
      Harness.Tables.table2 Format.std_formatter rows;
      if all then Harness.Tables.geomean_line Format.std_formatter rows;
      if o.stats then begin
        Format.printf "@.per-operator scheduling statistics:@.";
        Harness.Tables.stats_table Format.std_formatter (List.concat_map snd rows)
      end;
      0
  in
  Cmd.v
    (Cmd.info "network"
       ~doc:
         "Evaluate network suites (Table II rows); --jobs shards, --cache persists")
    Term.(const run $ name_arg $ all_arg $ jobs_arg $ cache_arg $ obs_term)

let paper_cmd =
  let names = List.map fst Paper.targets in
  let targets_arg =
    let doc =
      Printf.sprintf "Targets to print, in the order given: %s; $(b,all) (the default) \
                      runs every one of them in that order."
        (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names))
    in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let run requested o =
    let requested =
      match requested with
      | _ :: _ when not (List.mem "all" requested) -> requested
      | _ -> names
    in
    (* checked before anything runs *)
    match List.filter (fun t -> not (List.mem t names)) requested with
    | _ :: _ as unknown ->
      Format.eprintf "unknown target %s (available: %s)@." (String.concat ", " unknown)
        (String.concat ", " ("all" :: names));
      2
    | [] ->
      with_obs o @@ fun () ->
      List.iter (fun t -> (List.assoc t Paper.targets) ()) requested;
      0
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Print the paper's evaluation artifacts besides Table II ($(b,network --all)): \
          Table I, Fig. 2, Fig. 3 and the design ablations; an unknown target exits 2 \
          before anything runs")
    Term.(const run $ targets_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* the compile service over stdin/stdout                                *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run cache o =
    with_obs o @@ fun () ->
    let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
    let h =
      Service.Serve.make_handler ?cache:(open_cache cache)
        ~kernel_of_json ~find_op ()
    in
    Service.Serve.serve h stdin stdout;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile service: line-delimited JSON requests on stdin (operator name \
          or inline fuzz-case kernel, optional version and machine), one JSON reply per \
          line on stdout; malformed requests get structured error replies"
       ~man:
         [ `S Manpage.s_examples;
           (* cmdliner's markup escapes a backslash with a backslash *)
           `P "printf '{\"op\":\"fig2\"}\\\\n' | akg_repro serve";
           `P
             "printf '{\"op\":\"bert/bert_ew_000\",\"version\":\"isl\",\
              \"machine\":\"a100\"}\\\\n' | akg_repro serve --cache"
         ])
    Term.(const run $ cache_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* differential fuzzing                                                 *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    let doc =
      "PRNG seed.  Cases are a pure function of (seed, index), so a failure at index \
       $(i,i) of seed $(i,s) reproduces forever; replay files record both."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc = "Number of random kernels to generate and differentially check." in
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"K" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-run one recorded case from a replay file written by a previous fuzz run \
       instead of generating new ones.  Exit 0 when the case now passes, 1 when the \
       failure still reproduces."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc =
      "Directory for replay files of shrunk failing cases (created, with its missing \
       parents, on first failure)."
    in
    Arg.(value & opt string "fuzz-failures" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let cpu_exec_arg =
    let doc =
      "Upgrade the emit-only C check of the infl lowering to a compile+execute \
       differential: every case's emitted C is built with the host toolchain, run, \
       and compared bit-for-bit against the reference interpreter.  Falls back to \
       emit-only (with a warning) when no compiler is found."
    in
    Arg.(value & flag & info [ "cpu-exec" ] ~doc)
  in
  let run seed count replay out cpu_exec jobs o =
    with_obs o @@ fun () ->
    let cpu_exec =
      if not cpu_exec then None
      else
        match Codegen_cpu.Runner.create () with
        | Ok r -> Some r
        | Error e ->
          Format.eprintf "fuzz: %s@." (Codegen_cpu.Runner.error_message e);
          None
    in
    match replay with
    | Some file -> (
      match Fuzz.replay ?cpu_exec file with
      | Error e ->
        Format.eprintf "fuzz: %s@." e;
        2
      | Ok (case, Ok ()) ->
        Format.printf "replay %s: PASS (%a)@." file Fuzz.Case.pp case;
        0
      | Ok (case, Error f) ->
        Format.printf "replay %s: FAIL %a@.  %a@." file Fuzz.Check.pp_failure f
          Fuzz.Case.pp case;
        1)
    | None ->
      let progress (r : Fuzz.failure_report) =
        Format.printf "case %d: %a@.  shrunk in %d steps to %a%s@." r.Fuzz.index
          Fuzz.Check.pp_failure r.Fuzz.failure r.Fuzz.shrink_steps Fuzz.Case.pp
          r.Fuzz.shrunk
          (match r.Fuzz.file with Some f -> "\n  replay file: " ^ f | None -> "")
      in
      let report =
        Fuzz.run ~out_dir:out ?cpu_exec ~progress
          ~jobs:(resolve_jobs jobs) ~seed ~count ()
      in
      let nfail = List.length report.Fuzz.failures in
      Format.printf "fuzz: %d cases, %d failures (seed %d)@." report.Fuzz.count nfail
        report.Fuzz.seed;
      if nfail = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: random fused kernels through isl, novec, \
          infl, tiled and cpu, checking interpreter bit-equality, schedule legality, \
          AST well-formedness and C emission (executed against the host toolchain \
          with $(b,--cpu-exec)); failures are shrunk to minimal replayable cases")
    Term.(
      const run $ seed_arg $ count_arg $ replay_arg $ out_arg $ cpu_exec_arg $ jobs_arg
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* trace analytics: report / diff                                       *)
(* ------------------------------------------------------------------ *)

(* A file on the analytics side is either a raw trace or an already
   folded fingerprint; both diff the same way.  The trace (when that is
   what was given) is kept for the timing side. *)
let load_for_diff path =
  Result.bind (Obs.Json.of_file path) @@ fun j ->
  Result.map_error (Printf.sprintf "%s: %s" path)
    (match Obs.Json.member "schema" j with
     | Some (Obs.Json.String s) when s = Obs.Summary.schema_name ->
       Result.map (fun fp -> (fp, None)) (Obs.Summary.of_json j)
     | _ -> Result.map (fun tf -> (Obs.Summary.of_trace tf, Some tf)) (Obs.Tracefile.of_json j))

let trace_pos_arg ~p ~docv ~doc =
  Arg.(required & pos p (some string) None & info [] ~docv ~doc)

let report_cmd =
  let chrome_arg =
    let doc = "Also convert the trace to Chrome trace-event JSON at $(docv)." in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"OUT.json" ~doc)
  in
  let fingerprint_arg =
    let doc =
      "Also write the trace's structural fingerprint (schema akg-repro-fingerprint) to \
       $(docv) — the format committed under test/golden/ and consumed by $(b,diff)."
    in
    Arg.(value & opt (some string) None & info [ "fingerprint" ] ~docv:"OUT.json" ~doc)
  in
  let run file chrome fingerprint =
    match Obs.Tracefile.load file with
    | Error e ->
      Format.eprintf "report: %s@." e;
      2
    | Ok tf -> (
      Obs.Summary.report Format.std_formatter tf;
      let write what out f =
        try
          f ();
          Format.eprintf "%s written to %s@." what out;
          0
        with Sys_error e ->
          Format.eprintf "report: cannot write %s: %s@." out e;
          2
      in
      let c1 =
        match chrome with
        | None -> 0
        | Some out -> write "chrome trace" out (fun () -> Obs.Chrome.write_file out tf)
      in
      let c2 =
        match fingerprint with
        | None -> 0
        | Some out ->
          write "fingerprint" out (fun () ->
              Obs.Summary.write_file out (Obs.Summary.of_trace tf))
      in
      max c1 c2)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Drill into a recorded trace: event-kind histogram, per-scheduler-run and \
          per-operator tables, vectorization outcomes")
    Term.(
      const run
      $ trace_pos_arg ~p:0 ~docv:"TRACE" ~doc:"Trace file recorded with --trace"
      $ chrome_arg $ fingerprint_arg)

let diff_cmd =
  let run old_file new_file =
    match (load_for_diff old_file, load_for_diff new_file) with
    | Error e, _ | _, Error e ->
      Format.eprintf "diff: %s@." e;
      2
    | Ok (fp_old, tf_old), Ok (fp_new, tf_new) -> (
      let changes = Obs.Summary.diff fp_old fp_new in
      (* timing-only drift is reported but never fails the diff *)
      (match (tf_old, tf_new) with
       | Some a, Some b ->
         let ta = Obs.Tracefile.timing_totals a and tb = Obs.Tracefile.timing_totals b in
         let keys = List.sort_uniq compare (List.map fst ta @ List.map fst tb) in
         let moved =
           List.filter_map
             (fun k ->
               let get l = Option.value ~default:0.0 (List.assoc_opt k l) in
               let va = get ta and vb = get tb in
               if Float.abs (va -. vb) > 1e-9 then Some (k, va, vb) else None)
             keys
         in
         if moved <> [] then begin
           Format.printf "timing-only changes (ignored by the gate):@.";
           List.iter
             (fun (k, va, vb) -> Format.printf "  %s: %.1f -> %.1f@." k va vb)
             moved
         end
       | _ -> ());
      match changes with
      | [] ->
        Format.printf "structurally identical@.";
        0
      | changes ->
        Format.printf "structural changes (%d):@.%a" (List.length changes)
          Obs.Summary.pp_changes changes;
        1)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Structurally compare two traces (or committed fingerprints), ignoring timing \
          fields; exit 0 = identical, 1 = structural change, 2 = error"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Either argument may be a raw trace recorded with $(b,--trace) or a \
              fingerprint written by $(b,report --fingerprint) (e.g. the goldens under \
              test/golden/).  Timing fields (dur_us, time_us, *_ms and timestamps) are \
              stripped before comparison and reported separately, so a pure \
              performance change exits 0 and a scheduling change (extra backtracks, \
              lost vectorization, different ILP solve counts) exits 1."
         ])
    Term.(
      const run
      $ trace_pos_arg ~p:0 ~docv:"OLD" ~doc:"Old trace or fingerprint file"
      $ trace_pos_arg ~p:1 ~docv:"NEW" ~doc:"New trace or fingerprint file")

let metrics_cmd =
  let op_arg =
    let doc =
      "Compile operator $(docv) (influence version, V100) before rendering, so the \
       exposition shows live pipeline values instead of only zeros."
    in
    Arg.(value & opt (some string) None & info [ "op" ] ~docv:"NAME" ~doc)
  in
  let run op o =
    with_obs o @@ fun () ->
    let warm =
      match op with
      | None -> 0
      | Some name -> (
        match find_op name with
        | None ->
          Format.eprintf "metrics: unknown operator %S@." name;
          2
        | Some kernel ->
          ignore (Harness.Eval.evaluate_op ~machine:Gpusim.Machine.v100 ~name kernel);
          0)
    in
    if warm <> 0 then warm
    else begin
      print_string (Obs.Metrics.exposition ());
      0
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Render every registered counter, gauge and histogram as a Prometheus-style \
          text exposition (the same text the serve \"metrics\" verb returns)")
    Term.(const run $ op_arg $ obs_term)

let () =
  let doc = "Polyhedral scheduling with constraint injection (CGO'22 reproduction)" in
  let info = Cmd.info "akg_repro" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; show_cmd; schedule_cmd; codegen_cmd; simulate_cmd; cpu_run_cmd;
            eval_cmd; check_cmd; network_cmd; paper_cmd; serve_cmd;
            fuzz_cmd; report_cmd; diff_cmd; metrics_cmd ]))
