type sched_obs = Pipeline.sched_obs

type op_obs = {
  isl_sched : sched_obs;
  infl_sched : sched_obs;
  tiled_sched : sched_obs;
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
  obs : op_obs;
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

let timed_schedule = Pipeline.schedule

type tuning = Pipeline.tuning

let influence_with = Pipeline.influence_with

let evaluate_op ?(machine = Gpusim.Machine.v100) ?tuning ~name kernel =
  Obs.Span.with_ "harness.op" @@ fun () ->
  Obs.Trace.emitf "harness.op_start" (fun () -> [ ("op", Obs.Json.String name) ]);
  let tree_s = ref 0.0 and lower_s = ref 0.0 and sim_s = ref 0.0 in
  let timed total f =
    let r, dt = Obs.Span.timed f in
    total := !total +. dt;
    r
  in
  (* One dependence analysis and one solver memo feed every stage.  Three
     schedules: novec and infl share the vectorizer-tree one, and only the
     vectorizer's tree is tuned. *)
  let deps = Deps.Analysis.dependences kernel in
  let memo = Scheduling.Scheduler.memo () in
  let schedule ?tuning version =
    let influence = timed tree_s (fun () -> Pipeline.tree ?tuning ~deps version kernel) in
    Pipeline.schedule ?influence ~deps ~memo kernel
  in
  let isl_sched, _, isl_obs = schedule Pipeline.Isl in
  let infl_sched, infl_stats, infl_obs = schedule ?tuning Pipeline.Infl in
  let tiled_sched_r, tiled_stats, tiled_obs = schedule Pipeline.Tiled in
  let lower version sched =
    timed lower_s (fun () -> Pipeline.lower ~deps version sched kernel)
  in
  let time c =
    timed sim_s (fun () -> Gpusim.Sim.time_us (Pipeline.simulate ~machine c))
  in
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
  let tiled_c = lower Pipeline.Tiled tiled_sched_r in
  let tiled =
    (not tiled_stats.Scheduling.Scheduler.influence_abandoned)
    && Codegen.Tiling.applied tiled_c.Codegen.Compile.ast
  in
  let tvm_us =
    version "tvm"
      (List.fold_left
         (fun acc c -> acc +. time c)
         0.0
         (timed lower_s (fun () -> Baselines.Tvm.compile kernel)))
  in
  let vec = Codegen.Ast.has_vector_loop infl_c.Codegen.Compile.ast in
  let influenced =
    (not infl_stats.Scheduling.Scheduler.influence_abandoned)
    && ((not (rows_equal isl_sched infl_sched)) || vec)
  in
  (* Bound before the record: its fields are evaluated right to left, so
     inside it these simulations would run after [!sim_s] is read. *)
  let isl_us = version "isl" (time isl_c) in
  let novec_us = version "novec" (time novec_c) in
  let infl_us = version "infl" (time infl_c) in
  let tiled_us = version "tiled" (time tiled_c) in
  let r =
    { op_name = name;
      isl_us;
      tvm_us;
      novec_us;
      infl_us;
      tiled_us;
      influenced;
      vec;
      tiled;
      obs =
        { isl_sched = isl_obs;
          infl_sched = infl_obs;
          tiled_sched = tiled_obs;
          tree_s = !tree_s;
          lower_s = !lower_s;
          sim_s = !sim_s
        }
    }
  in
  Obs.Trace.emitf "harness.op" (fun () ->
      [ ("op", Obs.Json.String name);
        ("influenced", Obs.Json.Bool r.influenced);
        ("vec", Obs.Json.Bool r.vec);
        ("tiled", Obs.Json.Bool r.tiled);
        ("isl_ilp_solves", Obs.Json.Int isl_obs.ilp_solves);
        ("infl_ilp_solves", Obs.Json.Int infl_obs.ilp_solves);
        ( "fastpath_hits",
          Obs.Json.Int (isl_obs.fastpath_hits + infl_obs.fastpath_hits) );
        ("infl_bb_nodes", Obs.Json.Int infl_obs.bb_nodes);
        ("sibling_moves", Obs.Json.Int infl_obs.sibling_moves);
        ("ancestor_backtracks", Obs.Json.Int infl_obs.ancestor_backtracks);
        ("abandoned", Obs.Json.Bool infl_obs.abandoned);
        ( "sched_ms",
          Obs.Json.Float ((isl_obs.sched_s +. infl_obs.sched_s +. tiled_obs.sched_s) *. 1e3) );
        ("tree_ms", Obs.Json.Float (r.obs.tree_s *. 1e3));
        ("lower_ms", Obs.Json.Float (r.obs.lower_s *. 1e3));
        ("sim_ms", Obs.Json.Float (r.obs.sim_s *. 1e3))
      ]);
  r

let evaluate_suite ?machine ?(progress = fun _ -> ()) ?tuning_for ops =
  List.map
    (fun (name, kernel) ->
      progress name;
      let tuning = Option.bind tuning_for (fun f -> f name kernel) in
      evaluate_op ?machine ?tuning ~name kernel)
    ops

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the compile cache's payload format)                 *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let sched_obs_to_json (s : sched_obs) =
  J.Assoc
    [ ("ilp_solves", J.Int s.ilp_solves);
      ("bb_nodes", J.Int s.bb_nodes);
      ("sibling_moves", J.Int s.sibling_moves);
      ("ancestor_backtracks", J.Int s.ancestor_backtracks);
      ("scc_separations", J.Int s.scc_separations);
      ("abandoned", J.Bool s.abandoned);
      ("fastpath_hits", J.Int s.fastpath_hits);
      ("fastpath_fallbacks", J.Int s.fastpath_fallbacks);
      ("sched_s", J.Float s.sched_s)
    ]

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
      ("tiled", J.Bool r.tiled);
      ("isl_sched", sched_obs_to_json r.obs.isl_sched);
      ("infl_sched", sched_obs_to_json r.obs.infl_sched);
      ("tiled_sched", sched_obs_to_json r.obs.tiled_sched);
      ("tree_s", J.Float r.obs.tree_s);
      ("lower_s", J.Float r.obs.lower_s);
      ("sim_s", J.Float r.obs.sim_s)
    ]

(* Every accessor is strict: a payload missing any field is rejected so a
   half-written or schema-drifted cache entry recomputes instead of
   producing a plausible-looking wrong row. *)
let result_of_json j =
  let ( let* ) = Result.bind in
  let str k o = match J.member k o with Some (J.String s) -> Ok s | _ -> Error ("missing string " ^ k) in
  let num k o =
    match J.member k o with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error ("missing number " ^ k)
  in
  let int k o = match J.member k o with Some (J.Int i) -> Ok i | _ -> Error ("missing int " ^ k) in
  let bool k o = match J.member k o with Some (J.Bool b) -> Ok b | _ -> Error ("missing bool " ^ k) in
  let sched k o =
    match J.member k o with
    | None -> Error ("missing record " ^ k)
    | Some s ->
      let* ilp_solves = int "ilp_solves" s in
      let* bb_nodes = int "bb_nodes" s in
      let* sibling_moves = int "sibling_moves" s in
      let* ancestor_backtracks = int "ancestor_backtracks" s in
      let* scc_separations = int "scc_separations" s in
      let* abandoned = bool "abandoned" s in
      let* fastpath_hits = int "fastpath_hits" s in
      let* fastpath_fallbacks = int "fastpath_fallbacks" s in
      let* sched_s = num "sched_s" s in
      Ok { Pipeline.ilp_solves; bb_nodes; sibling_moves; ancestor_backtracks;
           scc_separations; abandoned; fastpath_hits; fastpath_fallbacks; sched_s }
  in
  let* op_name = str "op" j in
  let* isl_us = num "isl_us" j in
  let* tvm_us = num "tvm_us" j in
  let* novec_us = num "novec_us" j in
  let* infl_us = num "infl_us" j in
  let* tiled_us = num "tiled_us" j in
  let* influenced = bool "influenced" j in
  let* vec = bool "vec" j in
  let* tiled = bool "tiled" j in
  let* isl_sched = sched "isl_sched" j in
  let* infl_sched = sched "infl_sched" j in
  let* tiled_sched = sched "tiled_sched" j in
  let* tree_s = num "tree_s" j in
  let* lower_s = num "lower_s" j in
  let* sim_s = num "sim_s" j in
  Ok
    { op_name; isl_us; tvm_us; novec_us; infl_us; tiled_us; influenced; vec; tiled;
      obs = { isl_sched; infl_sched; tiled_sched; tree_s; lower_s; sim_s }
    }

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
  emit_s : float;
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
  let kernel = Ir.Kernel.instantiate kernel in
  let machine = Pipeline.cpu_machine machine in
  let p = Pipeline.run ~machine Pipeline.Infl kernel in
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
      emit_s = p.Pipeline.backend_s;
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

let cpu_run_to_json (r : cpu_run) =
  J.Assoc
    [ ("op", J.String r.cpu_op);
      ("machine", J.String r.cpu_machine);
      ("isa", J.String r.cpu_isa);
      ("source_bytes", J.Int r.source_bytes);
      ("emit_s", J.Float r.emit_s);
      ("vec", J.Bool r.cpu_vec);
      ("compiled", J.Bool r.compiled);
      ("compile_cache_hit", J.Bool r.compile_cache_hit);
      ("compile_s", J.Float r.compile_s);
      ("executed", J.Bool r.executed);
      ("exec_best_s", J.Float r.exec_best_s);
      ("checked", match r.checked with Some b -> J.Bool b | None -> J.Null);
      ("error", match r.cpu_error with Some e -> J.String e | None -> J.Null)
    ]

let cpu_run_of_json j =
  let ( let* ) = Result.bind in
  let str k o = match J.member k o with Some (J.String s) -> Ok s | _ -> Error ("missing string " ^ k) in
  let num k o =
    match J.member k o with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error ("missing number " ^ k)
  in
  let int k o = match J.member k o with Some (J.Int i) -> Ok i | _ -> Error ("missing int " ^ k) in
  let bool k o = match J.member k o with Some (J.Bool b) -> Ok b | _ -> Error ("missing bool " ^ k) in
  let* cpu_op = str "op" j in
  let* cpu_machine = str "machine" j in
  let* cpu_isa = str "isa" j in
  let* source_bytes = int "source_bytes" j in
  let* emit_s = num "emit_s" j in
  let* cpu_vec = bool "vec" j in
  let* compiled = bool "compiled" j in
  let* compile_cache_hit = bool "compile_cache_hit" j in
  let* compile_s = num "compile_s" j in
  let* executed = bool "executed" j in
  let* exec_best_s = num "exec_best_s" j in
  let* checked =
    match J.member "checked" j with
    | Some (J.Bool b) -> Ok (Some b)
    | Some J.Null -> Ok None
    | _ -> Error "missing checked"
  in
  let* cpu_error =
    match J.member "error" j with
    | Some (J.String e) -> Ok (Some e)
    | Some J.Null -> Ok None
    | _ -> Error "missing error"
  in
  Ok
    { cpu_op; cpu_machine; cpu_isa; source_bytes; emit_s; cpu_vec; compiled;
      compile_cache_hit; compile_s; executed; exec_best_s; checked; cpu_error
    }

let speedup isl x = if x > 0.0 then isl /. x else nan

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
