type op_obs = {
  isl : Scheduling.Scheduler.stats;
  infl : Scheduling.Scheduler.stats;
  tiled : Scheduling.Scheduler.stats;
  sched_s : float;
  tree_s : float;
  lower_s : float;
  sim_s : float;
}

type op_result = {
  op_name : string;
  isl_us : float;
  tvm_us : float;
  novec_us : float;
  infl_us : float;
  tiled_us : float;
  influenced : bool;
  vec : bool;
  tiled : bool;
  obs : op_obs option;
}

let rows_equal (a : Scheduling.Schedule.t) (b : Scheduling.Schedule.t) =
  List.length a.Scheduling.Schedule.rows = List.length b.Scheduling.Schedule.rows
  && List.for_all2
       (fun (ra : Scheduling.Schedule.row) (rb : Scheduling.Schedule.row) ->
         List.length ra.exprs = List.length rb.exprs
         && List.for_all2
              (fun (sa, ea) (sb, eb) -> sa = sb && Polyhedra.Linexpr.equal ea eb)
              ra.exprs rb.exprs)
       a.Scheduling.Schedule.rows b.Scheduling.Schedule.rows

let timed_schedule ?influence kernel =
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let (sched, stats), s = Obs.Span.timed (fun () -> Pipeline.schedule ?influence kernel) in
  (sched, stats, s)

let influence_with kernel = Vectorizer.Treegen.influence_for kernel

let evaluate_op ?(machine = Gpusim.Machine.v100) ~name kernel =
  Obs.Span.with_ "harness.op" @@ fun () ->
  Polyhedra.Solver_memo.scoped @@ fun () ->
  Obs.Trace.emitf "harness.op_start" (fun () -> [ ("op", Obs.Json.String name) ]);
  let r, capture =
    Obs.scoped @@ fun () ->
    (* Every stage shares the scope's tables.  Three schedules: novec and
       infl share the vectorizer-tree one. *)
    let schedule version =
      Pipeline.schedule ?influence:(Pipeline.tree version kernel) kernel
    in
    let isl_sched, isl_stats = schedule Pipeline.Isl in
    let infl_sched, infl_stats = schedule Pipeline.Infl in
    let tiled_sched, tiled_stats = schedule Pipeline.Tiled in
    let lower version sched = Pipeline.lower version sched kernel in
    let time c = Gpusim.Sim.time_us (Pipeline.simulate ~machine c) in
    let version label us =
      Obs.Trace.emitf "harness.version" (fun () ->
          [ ("op", Obs.Json.String name);
            ("version", Obs.Json.String label);
            ("time_us", Obs.Json.Float us)
          ]);
      us
    in
    let isl_c = lower Pipeline.Isl isl_sched in
    let novec_c = lower Pipeline.Novec infl_sched in
    let infl_c = lower Pipeline.Infl infl_sched in
    let tiled_c = lower Pipeline.Tiled tiled_sched in
    let tiled =
      (not tiled_stats.Scheduling.Scheduler.influence_abandoned)
      && Codegen.Tiling.applied tiled_c.Codegen.Compile.ast
    in
    let tvm_us =
      version "tvm"
        (List.fold_left (fun acc c -> acc +. time c) 0.0 (Baselines.Tvm.compile kernel))
    in
    let vec = Codegen.Ast.has_vector_loop infl_c.Codegen.Compile.ast in
    let influenced =
      (not infl_stats.Scheduling.Scheduler.influence_abandoned)
      && ((not (rows_equal isl_sched infl_sched)) || vec)
    in
    let isl_us = version "isl" (time isl_c) in
    let novec_us = version "novec" (time novec_c) in
    let infl_us = version "infl" (time infl_c) in
    let tiled_us = version "tiled" (time tiled_c) in
    (* stage seconds: every captured span of these names *)
    let spans = Obs.Span.report () in
    let seconds names =
      List.fold_left
        (fun acc (path, _, s) ->
          if List.mem (Filename.basename path) names then acc +. s else acc)
        0.0 spans
    in
    let obs =
      { isl = isl_stats;
        infl = infl_stats;
        tiled = tiled_stats;
        sched_s = seconds [ "scheduler.schedule" ];
        tree_s = seconds [ "vectorizer.treegen"; "tiling.treegen" ];
        lower_s = seconds [ "codegen.lower" ];
        sim_s = seconds [ "gpusim.run" ]
      }
    in
    Obs.Trace.emitf "harness.op" (fun () ->
        [ ("op", Obs.Json.String name);
          ("influenced", Obs.Json.Bool influenced);
          ("vec", Obs.Json.Bool vec);
          ("tiled", Obs.Json.Bool tiled);
          ("isl_ilp_solves", Obs.Json.Int isl_stats.ilp_solves);
          ("infl_ilp_solves", Obs.Json.Int infl_stats.ilp_solves);
          ( "fastpath_hits",
            Obs.Json.Int (isl_stats.fastpath_hits + infl_stats.fastpath_hits) );
          ("infl_bb_nodes", Obs.Json.Int infl_stats.bb_nodes);
          ("sibling_moves", Obs.Json.Int infl_stats.sibling_moves);
          ("ancestor_backtracks", Obs.Json.Int infl_stats.ancestor_backtracks);
          ("abandoned", Obs.Json.Bool infl_stats.influence_abandoned);
          ("sched_ms", Obs.Json.Float (obs.sched_s *. 1e3));
          ("tree_ms", Obs.Json.Float (obs.tree_s *. 1e3));
          ("lower_ms", Obs.Json.Float (obs.lower_s *. 1e3));
          ("sim_ms", Obs.Json.Float (obs.sim_s *. 1e3))
        ]);
    { op_name = name; isl_us; tvm_us; novec_us; infl_us; tiled_us; influenced; vec; tiled;
      obs = Some obs }
  in
  Obs.merge capture;
  r

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the compile cache's payload format)                 *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let result_to_json (r : op_result) =
  J.Assoc
    [ ("op", J.String r.op_name);
      ("isl_us", J.Float r.isl_us);
      ("tvm_us", J.Float r.tvm_us);
      ("novec_us", J.Float r.novec_us);
      ("infl_us", J.Float r.infl_us);
      ("tiled_us", J.Float r.tiled_us);
      ("influenced", J.Bool r.influenced);
      ("vec", J.Bool r.vec);
      ("tiled", J.Bool r.tiled)
    ]

(* Every accessor is strict: a payload missing any field is rejected so a
   half-written or schema-drifted cache entry recomputes instead of
   producing a plausible-looking wrong row.  Other fields are ignored, so
   payloads that also carry an earlier format's per-run observations
   still decode.  A decoded row has no [obs]: those belong to the run
   that computed it. *)
let result_of_json j =
  let ( let* ) = Result.bind in
  let str k o = match J.member k o with Some (J.String s) -> Ok s | _ -> Error ("missing string " ^ k) in
  let num k o =
    match J.member k o with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error ("missing number " ^ k)
  in
  let bool k o = match J.member k o with Some (J.Bool b) -> Ok b | _ -> Error ("missing bool " ^ k) in
  let* op_name = str "op" j in
  let* isl_us = num "isl_us" j in
  let* tvm_us = num "tvm_us" j in
  let* novec_us = num "novec_us" j in
  let* infl_us = num "infl_us" j in
  let* tiled_us = num "tiled_us" j in
  let* influenced = bool "influenced" j in
  let* vec = bool "vec" j in
  let* tiled = bool "tiled" j in
  Ok { op_name; isl_us; tvm_us; novec_us; infl_us; tiled_us; influenced; vec; tiled; obs = None }

type aggregate = {
  total : int;
  vec_count : int;
  infl_count : int;
  tiled_count : int;
  isl_ms : float;
  tvm_ms : float;
  novec_ms : float;
  infl_ms : float;
  tiled_ms : float;
  i_isl_ms : float;
  i_tvm_ms : float;
  i_novec_ms : float;
  i_infl_ms : float;
}

let aggregate results =
  let ms f = List.fold_left (fun acc r -> acc +. f r) 0.0 results /. 1000.0 in
  let infl_only = List.filter (fun r -> r.influenced) results in
  let ims f = List.fold_left (fun acc r -> acc +. f r) 0.0 infl_only /. 1000.0 in
  { total = List.length results;
    vec_count = List.length (List.filter (fun r -> r.vec) results);
    infl_count = List.length infl_only;
    tiled_count = List.length (List.filter (fun r -> r.tiled) results);
    isl_ms = ms (fun r -> r.isl_us);
    tvm_ms = ms (fun r -> r.tvm_us);
    novec_ms = ms (fun r -> r.novec_us);
    infl_ms = ms (fun r -> r.infl_us);
    tiled_ms = ms (fun r -> r.tiled_us);
    i_isl_ms = ims (fun r -> r.isl_us);
    i_tvm_ms = ims (fun r -> r.tvm_us);
    i_novec_ms = ims (fun r -> r.novec_us);
    i_infl_ms = ims (fun r -> r.infl_us)
  }

(* ------------------------------------------------------------------ *)
(* CPU backend evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* The CPU path reports *measured* wall-clock times (or degrades to
   emit-only), so it lives beside the simulated Table II columns rather
   than inside [op_result]: the default tables must stay bit-identical
   across hosts, toolchains and cache temperature. *)
type cpu_run = {
  cpu_op : string;
  cpu_machine : string;
  cpu_isa : string;
  source_bytes : int;
  cpu_vec : bool;  (* emitted AST contains a vector strip *)
  compiled : bool;
  compile_cache_hit : bool;
  compile_s : float;
  executed : bool;
  exec_best_s : float;  (* best-of-reps kernel wall time; 0 when not executed *)
  checked : bool option;  (* executed output vs Interp.run_original *)
  cpu_error : string option;  (* structured degradation reason *)
}

let memory_to_buffers = Pipeline.memory_to_buffers

let evaluate_cpu_op ?(machine = Gpusim.Machine.scalar_1core) ?runner ?(reps = 3)
    ?(check = true) ?(seed = 42) ~name kernel =
  Obs.Span.with_ "harness.cpu_op" @@ fun () ->
  let machine = Pipeline.cpu_machine machine in
  let p = Pipeline.run ~machine Pipeline.Infl (Pipeline.operator kernel) in
  let source =
    match p.Pipeline.backend with
    | Pipeline.Emitted source -> source
    | Pipeline.Simulated _ -> assert false
  in
  let base =
    { cpu_op = name;
      cpu_machine = machine.Gpusim.Machine.name;
      cpu_isa = Gpusim.Machine.isa_name machine.Gpusim.Machine.isa;
      source_bytes = String.length source;
      cpu_vec = Codegen.Ast.has_vector_loop p.Pipeline.compiled.Codegen.Compile.ast;
      compiled = false;
      compile_cache_hit = false;
      compile_s = 0.0;
      executed = false;
      exec_best_s = 0.0;
      checked = None;
      cpu_error = None
    }
  in
  let r =
    match runner with
    | None ->
      (* the caller knows why there is no runner (missing compiler — it
         already surfaced Runner.error_message — or emit-only was
         requested); don't claim "no compiler" on its behalf *)
      { base with cpu_error = Some "emit-only (no runner)" }
    | Some runner -> (
      match Codegen_cpu.Runner.build_source runner ~machine source with
      | Error e -> { base with cpu_error = Some (Codegen_cpu.Runner.error_message e) }
      | Ok built -> (
        let base =
          { base with
            compiled = true;
            compile_cache_hit = built.Codegen_cpu.Runner.cache_hit;
            compile_s = built.Codegen_cpu.Runner.compile_s
          }
        in
        match Pipeline.execute ~reps ~seed ~check runner built kernel with
        | Error e -> { base with cpu_error = Some (Codegen_cpu.Runner.error_message e) }
        | Ok (best_s, checked) ->
          { base with
            executed = true;
            exec_best_s = best_s;
            checked = Option.map Result.is_ok checked
          }))
  in
  Obs.Trace.emitf "harness.cpu_op" (fun () ->
      [ ("op", Obs.Json.String name);
        ("machine", Obs.Json.String r.cpu_machine);
        ("vec", Obs.Json.Bool r.cpu_vec);
        ("compiled", Obs.Json.Bool r.compiled);
        ("executed", Obs.Json.Bool r.executed);
        ("exec_us", Obs.Json.Float (r.exec_best_s *. 1e6));
        ( "checked",
          match r.checked with Some b -> Obs.Json.Bool b | None -> Obs.Json.Null );
        ( "error",
          match r.cpu_error with Some e -> Obs.Json.String e | None -> Obs.Json.Null )
      ]);
  (r, source)

let speedup isl x = if x > 0.0 then isl /. x else nan

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
