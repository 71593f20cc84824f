(** The one compilation pipeline and its version table.

    Each stage is its own function — {!tree} → {!schedule} → {!lower} →
    {!simulate} or {!emit_c} (then {!execute}) — and {!run} composes them
    for one version.  Table II evaluation, the compile service, the
    fuzzer and the CLI all call these stages, so one
    (operator, version, machine) gives one schedule, one AST and one time
    or C source whichever way it is asked for.

    A version is a schedule and its lowering; the machine profile picks
    the backend.  Any version is simulated on a GPU profile and emitted
    as C on a CPU profile. *)

type version = Isl | Novec | Infl | Tiled

type client =
  | No_influence  (** the uninfluenced baseline scheduler *)
  | Vectorizer  (** {!Vectorizer.Treegen.influence_for} *)
  | Tiling  (** {!Scheduling.Tiling.influence_for} *)

type spec = {
  name : string;  (** the version's name in requests, records and reports *)
  client : client;
  vectorize : bool;  (** run the explicit vectorization pass *)
  vec_min_parallel : int;
      (** the pass's [min_parallel] threshold ({!Codegen.Vectorpass.apply}) *)
}

val spec : version -> spec
(** The version table: [isl] (no influence), [novec] (vectorizer tree),
    [infl] (vectorizer tree, vector pass at threshold 2048) and [tiled]
    (tiling tree). *)

val versions : version list
(** Every version, in table order. *)

val name : version -> string
val of_name : string -> version option
(** The four version names; ["cpu"] is not one (see {!resolve}). *)

val cpu_name : string
(** ["cpu"]: accepted wherever a request, a CLI flag or a replay file
    names a version, meaning {b infl} emitted as C (see {!resolve}). *)

val names : string list
(** Every name {!resolve} accepts: the versions in table order, then
    {!cpu_name}. *)

val cpu_machine : Gpusim.Machine.t -> Gpusim.Machine.t
(** The profile C is emitted for under {!cpu_name}: the machine itself
    when it is a CPU profile, the portable scalar profile otherwise. *)

val resolve : string -> machine:Gpusim.Machine.t -> (version * Gpusim.Machine.t) option
(** A version name with the requested machine, as the pipeline runs it:
    a version's own name keeps [machine]; {!cpu_name} is {b infl} on
    [cpu_machine machine].  [None] for an unknown name. *)

(** {1 Stages} *)

val tree : ?max_tile_size:int -> version -> Ir.Kernel.t -> Scheduling.Influence.t option
(** Stage 1: the version's influence tree ([None] for {b isl}) at the
    paper's weights and branch order.  [max_tile_size] caps the tiling
    client's tile shapes. *)

val schedule :
  ?influence:Scheduling.Influence.t ->
  ?strategy:Scheduling.Scheduler.strategy ->
  Ir.Kernel.t ->
  Scheduling.Schedule.t * Scheduling.Scheduler.stats
(** Stage 2: one scheduler run under the default config (with [strategy]
    substituted when given).  Its time is the [scheduler.schedule] span.
    Inside a {!Polyhedra.Solver_memo.scoped} scope, a solve an earlier
    run of the scope already did is looked up, and its nodes stay
    attributed to that run. *)

val lower :
  ?vec_min_parallel:int ->
  ?tile_sizes:(int -> int option) ->
  ?tile_fault:Codegen.Tiling.fault ->
  version ->
  Scheduling.Schedule.t ->
  Ir.Kernel.t ->
  Codegen.Compile.compiled
(** Stage 3: {!Codegen.Compile.lower} with the version's settings.
    [vec_min_parallel] overrides the table's threshold (the fuzzer and the
    Fig. 2 walkthrough pass 0 to exercise the vector pass on tiny
    kernels); [tile_sizes] and [tile_fault] are passed through. *)

val simulate : ?machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> Gpusim.Sim.report
(** Stage 4 on a GPU profile: the performance model, V100 by default.
    Inside a scope, a kernel an earlier call of the scope already
    simulated is looked up; the report is unchanged. *)

val emit_c : machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> string
(** Stage 4 on a CPU profile: the C source. *)

val memory_to_buffers : Ir.Kernel.t -> Interp.memory -> float array array
(** Tensor contents flattened row-major, in [kernel.tensors] order — the
    input layout {!Codegen_cpu.Runner.execute} expects. *)

val interpret : Ir.Kernel.t -> Codegen.Compile.compiled -> (unit, float) result
(** Semantics check of a lowering: {!Interp.run_ast} over the AST against
    {!Interp.run_original}, both on the same randomized inputs.  [Error d]
    carries the maximum absolute difference. *)

val execute :
  ?reps:int ->
  ?seed:int ->
  ?check:bool ->
  Codegen_cpu.Runner.t ->
  Codegen_cpu.Runner.built ->
  Ir.Kernel.t ->
  (float * (unit, float) result option, Codegen_cpu.Runner.error) result
(** Stage 5 (C only): run a built kernel [reps] times on randomized inputs
    and return the best wall-clock seconds.  With [check] (the default)
    the output buffers are also compared bit-for-bit against
    {!Interp.run_original}, with the verdict of {!interpret}. *)

(** {1 The composed pipeline} *)

type backend_output =
  | Simulated of Gpusim.Sim.report  (** on a GPU profile *)
  | Emitted of string  (** the C source, on a CPU profile *)

type output = {
  sched : Scheduling.Schedule.t;
  stats : Scheduling.Scheduler.stats;
  compiled : Codegen.Compile.compiled;
  backend : backend_output;
  deps : Deps.Dependence.t list;  (** the kernel's dependences, as the run analysed them *)
}

val run :
  ?tile_sizes:(int -> int option) ->
  ?machine:Gpusim.Machine.t ->
  version ->
  Ir.Kernel.t ->
  output
(** {!tree}, {!schedule}, {!lower} and the machine's backend in one
    call: {!simulate} when [machine] (default V100) is a GPU profile,
    {!emit_c} when it is a CPU profile.  The stages run in one
    {!Polyhedra.Solver_memo.scoped} scope, closed when [run] returns, so
    they share one dependence analysis, which the output carries. *)
