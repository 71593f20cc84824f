(** Five-version evaluation of fused operators (the measurement harness
    behind Table II): the four {!Pipeline.versions} through {!Pipeline.run}
    on one {!Pipeline.operator}, beside the TVM comparator.

    For each operator, compiles and simulates:
    - {b isl}: the baseline scheduler, no influence;
    - {b tvm}: the TVM-style manual comparator (unfused, output-aligned);
    - {b novec}: influenced scheduling with the vectorization pass off;
    - {b infl}: influenced scheduling with explicit vector types;
    - {b tiled}: influenced scheduling with the tiling client's tree
      ({!Scheduling.Tiling.influence_for}) and the backend tiling pass
      consuming the injected tile-shape annotation (vectorization off).

    An operator counts as {e influenced} when the injected constraints
    changed compilation (different schedule rows than isl, or a
    vectorization preparation); it counts as {e vec} when the backend pass
    actually rewrote a loop with vector types; it counts as {e tiled} when
    the tiling influence survived scheduling and the backend actually
    rewrote a band into tile/point loops. *)

type op_obs = {
  isl : Scheduling.Scheduler.stats;  (** the uninfluenced baseline run *)
  infl : Scheduling.Scheduler.stats;  (** the influenced run (shared by novec/infl) *)
  tiled : Scheduling.Scheduler.stats;
      (** the tiling-influenced run.  The three runs share a solver memo,
          so solver work ([bb_nodes]) shifts to whichever runs first:
          only their sum is comparable across revisions. *)
  sched_s : float;
      (** scheduling seconds of the three runs: the operator's
          [scheduler.schedule] spans *)
  tree_s : float;
      (** influence-tree construction seconds: the operator's
          [vectorizer.treegen] and [tiling.treegen] spans *)
  lower_s : float;
      (** codegen lowering seconds, the TVM comparator's included: its
          [codegen.lower] spans *)
  sim_s : float;
      (** GPU-model simulation seconds, the walks done and the lookups
          the operator's scope answered: its [gpusim.run] spans *)
}
(** What computing one {!op_result} cost: the three scheduler runs'
    statistics and the stage times, read from the operator's capture —
    rendered by {!Tables.stats_table} and the CLI's [--stats] flag. *)

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
      (** [Some] when this process computed the row; [None] for a row read
          back from the compile cache ({!result_of_json}) *)
}

val influence_with : Ir.Kernel.t -> Scheduling.Influence.t
(** {!Vectorizer.Treegen.influence_for} at the paper's weights, kept for
    the repository benchmark ([perfbench/]), its only caller. *)

val rows_equal : Scheduling.Schedule.t -> Scheduling.Schedule.t -> bool
(** Structural equality of two schedules' rows (kind-insensitive, exact
    coefficient comparison) — the check behind the {e influenced} flag and
    the fast-path differential suite. *)

val timed_schedule :
  ?influence:Scheduling.Influence.t ->
  Ir.Kernel.t ->
  Scheduling.Schedule.t * Scheduling.Scheduler.stats * float
(** {!Pipeline.schedule} in a {!Polyhedra.Solver_memo.scoped} scope of
    its own, with its wall-clock seconds, kept for the repository
    benchmark ([perfbench/]), its only
    caller: its zoo replay and CPU compile schedule outside every other
    scope, so one schedule shares its repeats with nothing else. *)

val evaluate_op :
  ?machine:Gpusim.Machine.t ->
  name:string ->
  Ir.Kernel.t ->
  op_result
(** The five versions of one operator, inside one
    {!Polyhedra.Solver_memo.scoped} scope: {!Pipeline.run} of each of
    {!Pipeline.versions} on one {!Pipeline.operator}, then the TVM
    comparator.  The scope shares the Farkas expansions and ILPs of the
    isl, infl and tiled schedules, and the walks of the four lowerings
    and the TVM comparator's kernels.  It is opened and dropped inside the call, so
    operators evaluate independently on separate domains.  The stages
    run in one {!Obs.scoped} capture, merged back before the call
    returns; the [op_obs] stage times are read from its spans and the
    result's [obs] is [Some].  [machine] (default V100) must be a GPU
    profile; on a CPU profile the call raises [Invalid_argument]. *)

type cpu_run = {
  cpu_op : string;
  cpu_machine : string;
  cpu_isa : string;
  source_bytes : int;
  cpu_vec : bool;  (** emitted AST contains a vector strip *)
  compiled : bool;
  compile_cache_hit : bool;
  compile_s : float;
  executed : bool;
  exec_best_s : float;
      (** best-of-reps measured kernel wall time; 0 when not executed *)
  checked : bool option;
      (** [Some ok]: executed output compared bit-for-bit against
          [Interp.run_original]; [None] when execution or checking was
          skipped *)
  cpu_error : string option;
      (** structured degradation reason (no compiler, unsupported ISA,
          compile or execution failure) — the run still returns a record *)
}
(** One operator through the CPU backend.  Unlike {!op_result} this holds
    {e measured} times (or an emit-only degradation), so it is kept out of
    the simulated Table II columns, which must stay bit-identical across
    hosts and toolchains. *)

val memory_to_buffers : Ir.Kernel.t -> Interp.memory -> float array array
(** {!Pipeline.memory_to_buffers}, kept for the repository benchmark
    ([perfbench/]), its only caller. *)

val evaluate_cpu_op :
  ?machine:Gpusim.Machine.t ->
  ?runner:Codegen_cpu.Runner.t ->
  ?reps:int ->
  ?check:bool ->
  ?seed:int ->
  name:string ->
  Ir.Kernel.t ->
  cpu_run * string
(** The {!Pipeline.cpu_name} request: {b infl} emitted as C for
    {!Pipeline.cpu_machine}[ machine] ([machine] defaults to the portable
    scalar profile), returning the run record and the emitted source.  With a [runner], also compile, execute [reps] times on
    randomized inputs, and (when [check], the default) compare the output
    buffers bit-for-bit against [Interp.run_original].  Without one, the
    record carries the standard no-compiler degradation error. *)

val result_to_json : op_result -> Obs.Json.t
(** The payload the compile cache stores for an operator: Table II's
    facts (the name, the five simulated times and the three flags, floats
    round-tripping exactly).  [obs] is not stored. *)

val result_of_json : Obs.Json.t -> (op_result, string) result
(** Strict inverse of {!result_to_json}, with [obs = None]: any missing
    or mistyped field is an [Error], so a payload of another shape
    recomputes instead of decoding into garbage.  Other fields are
    ignored. *)

type aggregate = {
  total : int;
  vec_count : int;
  infl_count : int;
  tiled_count : int;
  (* all operators, milliseconds *)
  isl_ms : float;
  tvm_ms : float;
  novec_ms : float;
  infl_ms : float;
  tiled_ms : float;
  (* influenced operators only, milliseconds *)
  i_isl_ms : float;
  i_tvm_ms : float;
  i_novec_ms : float;
  i_infl_ms : float;
}

val aggregate : op_result list -> aggregate

val speedup : float -> float -> float
(** [speedup isl x] = isl / x. *)

val geomean : float list -> float
