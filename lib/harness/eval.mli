(** Five-version evaluation of fused operators (the measurement harness
    behind Table II), composed from the {!Pipeline} stages.

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

type sched_obs = Pipeline.sched_obs

type op_obs = {
  isl_sched : sched_obs;  (** the uninfluenced baseline run *)
  infl_sched : sched_obs;  (** the influenced run (shared by novec/infl) *)
  tiled_sched : sched_obs;
      (** the tiling-influenced run.  The three runs share a solver memo,
          so solver work (nodes, seconds) shifts to whichever runs first:
          only their sum is comparable across revisions. *)
  tree_s : float;  (** influence-tree construction seconds (both clients) *)
  lower_s : float;  (** all codegen lowerings, seconds *)
  sim_s : float;  (** all GPU-model simulations, seconds *)
}
(** Per-operator compile+simulate breakdown behind one {!op_result} —
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
  obs : op_obs;
}

type tuning = Pipeline.tuning
(** Only the influenced versions ({b novec}/{b infl}) see a tuning — the
    {b isl} baseline and the {b tvm} comparator never see injected
    constraints, so a tuned evaluation still measures against the paper's
    fixed baselines. *)

val influence_with : ?tuning:tuning -> Ir.Kernel.t -> Scheduling.Influence.t
(** The influence tree a (possibly tuned) evaluation injects: paper
    weights and natural branch order when [tuning] is absent — the
    fixed-configuration fallback for operators without a tuning record. *)

val rows_equal : Scheduling.Schedule.t -> Scheduling.Schedule.t -> bool
(** Structural equality of two schedules' rows (kind-insensitive, exact
    coefficient comparison) — the check behind the {e influenced} flag and
    the fast-path differential suite. *)

val timed_schedule :
  ?influence:Scheduling.Influence.t ->
  ?strategy:Scheduling.Scheduler.strategy ->
  ?deps:Deps.Dependence.t list ->
  ?memo:Scheduling.Scheduler.memo ->
  Ir.Kernel.t ->
  Scheduling.Schedule.t * Scheduling.Scheduler.stats * sched_obs
(** {!Pipeline.schedule}. *)

val evaluate_op :
  ?machine:Gpusim.Machine.t ->
  ?tuning:tuning ->
  name:string ->
  Ir.Kernel.t ->
  op_result
(** The five versions of one operator from one dependence analysis and
    one solver memo ({!Scheduling.Scheduler.memo}) shared by its isl,
    infl and tiled schedules.  Both are created inside the call, so
    operators evaluate independently on separate domains. *)

val evaluate_suite :
  ?machine:Gpusim.Machine.t ->
  ?progress:(string -> unit) ->
  ?tuning_for:(string -> Ir.Kernel.t -> tuning option) ->
  (string * Ir.Kernel.t) list ->
  op_result list

type cpu_run = {
  cpu_op : string;
  cpu_machine : string;
  cpu_isa : string;
  source_bytes : int;
  emit_s : float;
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
(** {!Pipeline.memory_to_buffers}. *)

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

val cpu_run_to_json : cpu_run -> Obs.Json.t

val cpu_run_of_json : Obs.Json.t -> (cpu_run, string) result
(** Strict inverse of {!cpu_run_to_json}, like {!result_of_json}. *)

val result_to_json : op_result -> Obs.Json.t
(** Full-fidelity serialization (floats round-trip exactly): the payload
    the compile cache stores for an operator. *)

val result_of_json : Obs.Json.t -> (op_result, string) result
(** Strict inverse of {!result_to_json}: any missing or mistyped field is
    an [Error], so stale cache payloads recompute instead of decoding
    into garbage. *)

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
